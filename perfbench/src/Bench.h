//===- perfbench/src/Bench.h - Shared benchmark scaffolding -----*- C++ -*-===//
//
// Part of flap-cpp, a C++ reproduction of "flap: A Deterministic Parser
// with Fused Lexing" (PLDI 2023).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The pieces every workload of flap_perfbench shares: the run options,
/// the result record (end-to-end and per-layer metrics plus the oracle
/// tally), the span tracer, order statistics, and the Fig. 9 oracle.
///
/// The benchmark drives only public entry points, so every layer is
/// measured from outside by timing calls into it; spans are recorded in
/// this directory's code only, never inside the library.
///
//===----------------------------------------------------------------------===//

#ifndef FLAP_PERFBENCH_BENCH_H
#define FLAP_PERFBENCH_BENCH_H

#include "engine/Pipeline.h"
#include "lexer/CompiledLexer.h"

#include <chrono>
#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <vector>

namespace perfbench {

using namespace flap;

struct Options {
  std::string Workload;
  uint64_t Seed = 1;
  double Seconds = 10;
  bool Trace = false;
  /// Print the input hash and the exact work counts instead of timing
  /// (the determinism self-test in run.py compares two such runs).
  bool CountsOnly = false;
  std::string TraceOut; ///< where the traced run writes its spans
  std::string WorkDir;  ///< scratch files (the requests artifact blob)
  std::string Commit;   ///< source identity, supplied by run.py
};

/// Seconds on the steady clock since the process started.
double now();

//===----------------------------------------------------------------------===//
// Results
//===----------------------------------------------------------------------===//

/// The end-to-end numbers of one measurement. BENCHMARK.json gates
/// setup_s, peak_rss_mb, mbps and p90_us; p50 and p99 are printed
/// beside them. What an operation is differs per workload (README.md).
struct EndToEnd {
  double Mbps = 0;  ///< input MB/s through the workload's main path
  double P50Us = 0, P90Us = 0, P99Us = 0; ///< latency of one operation
  size_t Samples = 0; ///< latency samples behind the percentiles
};

/// Closed-loop summary over several inputs, from each input's call
/// times \p Us: mbps is the geometric mean of each input's bytes over its
/// sliceMean() 75th-percentile call time; p50 and p90 are sliceMean()s
/// and p99 is taken over the whole run. Each is taken per input and
/// combined by geometric mean, so one input's latency mode never
/// straddles another's.
EndToEnd summarize(const std::vector<std::vector<double>> &Us,
                   const std::vector<size_t> &Bytes);

class Report {
public:
  Report();

  /// Sets a per-layer metric; the name must be one of layerNames().
  void layer(const std::string &Name, double Value);

  /// One oracle-checked operation: counts it as attempted, and as
  /// failed when \p Ok is false (the first few failures are logged).
  void check(bool Ok, const std::string &What);

  /// Exact work counts (tokens, reductions, ...) printed by --counts.
  void count(const std::string &Name, uint64_t Value) { Counts[Name] = Value; }

  /// Hash of every generated input, in generation order.
  void hashInput(std::string_view Bytes);

  uint64_t attempted() const { return Attempted; }
  uint64_t failed() const { return Failed; }
  uint64_t inputHash() const { return InputHash; }
  const std::map<std::string, uint64_t> &counts() const { return Counts; }
  const std::vector<std::pair<std::string, double>> &layers() const {
    return Layers;
  }

private:
  std::vector<std::pair<std::string, double>> Layers;
  std::map<std::string, uint64_t> Counts;
  uint64_t Attempted = 0, Failed = 0;
  uint64_t InputHash = 0xcbf29ce484222325ull;
};

/// Every per-layer metric name with its unit, in BENCHMARK.json order.
/// A workload that does not exercise a layer reports 0 for it.
const std::vector<std::pair<std::string, std::string>> &layerNames();

/// The six benchmark grammars, in the order the per-layer names use.
const std::vector<std::string> &grammarNames();

/// The requests workload's fixed open-loop rate ladder (requests/s).
const std::vector<unsigned> &ladderRates();

//===----------------------------------------------------------------------===//
// Tracing
//===----------------------------------------------------------------------===//

/// In-memory span recorder. Spans carry name, start, end, parent span
/// and (for requests) the request id; they are written out once, at
/// exit, with per-name self time (duration minus the time covered by
/// child spans). Only the benchmark's main thread records spans.
class Tracer {
public:
  struct Span {
    const char *Name;
    double Start, End;
    int64_t Parent;
    uint64_t Req;
  };

  static Tracer &get();

  bool on() const { return On; }
  void enable(bool B) { On = B; }

  /// Opens a span nested in the innermost open one; returns its id (-1
  /// when tracing is off).
  int64_t begin(const char *Name, uint64_t Req = 0);
  void end(int64_t Id);
  /// Records a finished span with an explicit parent (open-loop
  /// requests overlap, so they cannot use the begin/end nesting).
  int64_t record(const char *Name, double Start, double End, int64_t Parent,
                 uint64_t Req);

  /// Interns \p Name for the lifetime of the process (span names that
  /// embed a grammar).
  static const char *intern(const std::string &Name);

  /// Prints the per-name count / total / self time table.
  void printSelfTimes() const;
  /// Writes every span as JSON lines to \p Path.
  bool write(const std::string &Path) const;

private:
  bool On = false;
  std::vector<Span> Spans;
  std::vector<int64_t> Open;
};

/// RAII span around one call into a layer.
class Scope {
public:
  explicit Scope(const char *Name, uint64_t Req = 0)
      : Id(Tracer::get().begin(Name, Req)) {}
  ~Scope() { Tracer::get().end(Id); }
  Scope(const Scope &) = delete;
  Scope &operator=(const Scope &) = delete;

private:
  int64_t Id;
};

//===----------------------------------------------------------------------===//
// Statistics
//===----------------------------------------------------------------------===//

/// Quantile by linear interpolation between the closest ranks.
double quantile(std::vector<double> V, double Q);
inline double median(const std::vector<double> &V) { return quantile(V, 0.5); }
double geomean(const std::vector<double> &V);
/// The mean over a run of the \p Q quantile of each slice of \p PerSlice
/// consecutive samples of \p V (in time order). The host runs in faster
/// and slower phases of seconds; this moves in proportion to the share
/// of the run each phase takes, where a whole-run quantile jumps from
/// one phase's value to the other's.
double sliceMean(const std::vector<double> &V, size_t PerSlice, double Q);
/// The \p Q quantile of the quietest tenth of a run: \p V (samples in
/// time order) is cut into consecutive slices of \p PerSlice samples,
/// and the result is the 10th percentile of the slices' \p Q quantiles.
/// Host steal and the neighbours' load only ever add latency, so this
/// follows the program as long as a tenth of the slices are undisturbed.
double quietQuantile(const std::vector<double> &V, size_t PerSlice, double Q);

/// Seconds of vCPU time the hypervisor has stolen so far, summed over
/// all CPUs (0 where /proc/stat has no steal column).
double stealSeconds();

/// Peak resident set of this process, MB.
double peakRssMb();

//===----------------------------------------------------------------------===//
// Grammars and the oracle
//===----------------------------------------------------------------------===//

/// A fresh definition of grammar \p Name (arenas and memos start cold).
std::shared_ptr<GrammarDef> makeGrammar(const std::string &Name);

/// Fresh per-parse action context for grammars that need one (null
/// otherwise). The shared_ptr owns it; pass .get() as User.
std::shared_ptr<void> newCtx(const GrammarDef &Def);

/// The Fig. 9 reference: the DGNF interpreter over the standalone
/// lexer's tokens — shares no scan, stack or sink code with the staged
/// machine. Build one to parse many inputs: the lexer is compiled once.
class Oracle {
public:
  /// Parses from P's start symbol, or from \p Start (an entry point of
  /// P.Entries) when given.
  explicit Oracle(const FlapParser &P, NtId Start = NoNt);
  Result<Value> operator()(std::string_view Input) const;

private:
  const FlapParser &P;
  Grammar G;
  CompiledLexer Lex;
};

/// Oracle(P)(Input).
Result<Value> oracleParse(const FlapParser &P, std::string_view Input);

/// Exits with status 1 and a message; the benchmark never degrades
/// silently.
[[noreturn]] void fatal(const std::string &Msg);

/// Reports the set-up stage panel (cfe.typecheck_ms ... engine.verify_ms):
/// the public stage functions (Lang::check, normalize, fuse,
/// compileFused, verifyFlapParser) run by hand in the sequence
/// compileFlap / compileFlapRecords runs them; median over \p Reps runs
/// of each stage, summed over \p Grammars.
void stagePanel(Report &R, const std::vector<std::string> &Grammars,
                bool Records, int Reps);

//===----------------------------------------------------------------------===//
// Workloads
//===----------------------------------------------------------------------===//

/// One workload: input generation, set-up, the oracle gate, exact
/// counts, the end-to-end measurement and the traced layer panel.
class Runner {
public:
  virtual ~Runner() = default;
  /// Generates the inputs from the seed (hashing them into \p R).
  virtual void generate(const Options &O, Report &R) = 0;
  /// Makes the parsers ready; returns the seconds it took. \p Keep
  /// installs them for the measurement; repetitions that only time
  /// set-up discard theirs.
  virtual double setup(bool Keep) = 0;
  /// Checks every output kind against the oracle before timing.
  virtual void gate(Report &R) = 0;
  /// Records the exact work counts.
  virtual void counts(Report &R) = 0;
  /// Closed- or open-loop measurement for \p Seconds.
  virtual EndToEnd measure(double Seconds, Report &R) = 0;
  /// Per-layer panel (traced run only).
  virtual void layers(double Seconds, Report &R) = 0;
};

/// Set-up samples per measurement (their median is setup_s).
constexpr int SetupReps = 41;
/// Back-to-back set-ups averaged into one sample, so that a sample of
/// the records set-up (about 2.5 ms each) is not a single short call.
/// The four land in the same host phase: on a shared host whole
/// seconds run about 1.5x slower, and the median of a run moves with
/// the share of its samples that fall in such phases.
constexpr int SetupBurst = 4;

/// Times set-up again between measurement rounds, \p Reps times spread
/// evenly over \p Seconds: the host's slow phases last seconds, so
/// back-to-back repetitions would all land in one phase.
void sampleSetup(Runner &W, double Seconds, int Reps);
/// Runs a due set-up repetition; the measurement loops call it between
/// rounds, outside any timed region.
void setupTick();
/// The set-up times sampled since the last sampleSetup() call.
const std::vector<double> &setupSamples();

std::unique_ptr<Runner> makeDocs();
std::unique_ptr<Runner> makeRequests();
std::unique_ptr<Runner> makeRecords();

/// Runs \p Fn until \p Seconds of wall time have passed (at least
/// \p MinIters times).
template <typename Fn> void forSeconds(double Seconds, size_t MinIters, Fn F) {
  const double End = now() + Seconds;
  for (size_t I = 0; I < MinIters || now() < End; ++I) {
    F(I);
    setupTick();
  }
}

} // namespace perfbench

#endif // FLAP_PERFBENCH_BENCH_H
