//===- bench/BenchHarness.h - Shared benchmark scaffolding -----*- C++ -*-===//
//
// Part of flap-cpp, a C++ reproduction of "flap: A Deterministic Parser
// with Fused Lexing" (PLDI 2023).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Builds every engine of the paper's evaluation (§6) for a benchmark
/// grammar and measures throughput. Engine naming follows Fig. 11, with
/// this repository's proxy mapping (see bench/README.md):
///
///   ocamlyacc     → LALR(1) tables over a materialized token stream
///   menhir+table  → same LALR tables (menhir's table mode is the same
///                   algorithm class; reported once)
///   menhir+code   → direct-coded recursive descent over tokens
///   flap          → the staged fused machine
///   normalized    → flap-normalized DGNF + pull lexer (unfused), (g)
///   asp           → typed-CFE First-set dispatch over tokens
///   ParTS         → pull-stream recursive descent, no token records
///
//===----------------------------------------------------------------------===//

#ifndef FLAP_BENCH_BENCHHARNESS_H
#define FLAP_BENCH_BENCHHARNESS_H

#include "baselines/Lalr.h"
#include "baselines/TokenEngines.h"
#include "engine/Pipeline.h"
#include "engine/Unfused.h"
#include "grammars/Grammars.h"
#include "lexer/CompiledLexer.h"
#include "workloads/Workloads.h"

#include <functional>
#include <memory>
#include <string>
#include <vector>

namespace flapbench {

using namespace flap;

/// All engines for one grammar.
struct EngineSet {
  std::shared_ptr<GrammarDef> Def;
  FlapParser P;
  std::unique_ptr<LalrParser> Lalr;
  std::unique_ptr<CompiledLexer> Lex;
  TokenTables TT;
  std::unique_ptr<PartsStreamParser> Parts;
  std::unique_ptr<UnfusedParser> Unfused;

  /// Builds everything; aborts with a message on failure (benchmarks are
  /// not the place for graceful degradation).
  static EngineSet build(std::shared_ptr<GrammarDef> Def);
};

/// A runnable engine: parses the input, returns success. User contexts
/// are allocated fresh per run.
struct NamedEngine {
  std::string Name;
  std::function<bool(std::string_view)> Run;
};

/// The seven Fig. 11 rows, in paper order.
std::vector<NamedEngine> fig11Engines(EngineSet &E);

/// Recognition-only variants of the same engines (no semantic values),
/// plus — when a system compiler is available — "flap codegen": the
/// emitted C++ parser compiled and dlopen'd at run time, which is the
/// closest analogue of what MetaOCaml does for flap.
std::vector<NamedEngine> recognitionEngines(EngineSet &E);

/// Wall-clock throughput: repeatedly parses \p Input until ~MinSeconds
/// elapsed, returns MB/s of the best run.
double throughputMBs(const NamedEngine &E, std::string_view Input,
                     double MinSeconds = 0.45);

/// Grammar names in the paper's Fig. 11 x-axis order.
const std::vector<std::string> &fig11Order();

/// Reads a size scale factor from FLAP_BENCH_SCALE (default 1.0) so CI
/// and laptops can shrink/grow the corpora uniformly.
double benchScale();

} // namespace flapbench

#endif // FLAP_BENCH_BENCHHARNESS_H
