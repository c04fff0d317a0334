//===- bench/Fig11Throughput.cpp - Paper Fig. 11 ------------------------------===//
//
// Part of flap-cpp, a C++ reproduction of "flap: A Deterministic Parser
// with Fused Lexing" (PLDI 2023).
//
//===----------------------------------------------------------------------===//
///
/// Regenerates Fig. 11: parser throughput (MB/s) of the implementations
/// across the six benchmark grammars, followed by the ratio lines quoted
/// in §6 (flap vs asp, flap vs normalized) and the run-skip acceleration
/// ratio (flap vs the pre-PR table walk on the same machine).
///
/// `--json[=path]` additionally writes BENCH_fig11.json — bytes/sec per
/// grammar × engine for both panels — so successive PRs record a perf
/// trajectory (see bench/README.md).
///
//===----------------------------------------------------------------------===//

#include "BenchHarness.h"

#include <cstdio>
#include <cstring>
#include <map>
#include <string>

using namespace flapbench;

namespace {

using Panel = std::map<std::string, std::map<std::string, double>>;

void printPanel(const Panel &Table, const std::vector<std::string> &Engines) {
  std::printf("%-14s", "");
  for (const std::string &Gr : fig11Order())
    std::printf("%9s", Gr.c_str());
  std::printf("\n");
  for (const std::string &Eng : Engines) {
    std::printf("%-14s", Eng.c_str());
    for (const std::string &Gr : fig11Order())
      std::printf("%9.0f", Table.at(Eng).at(Gr));
    std::printf("\n");
  }
}

void jsonPanel(FILE *F, const char *Name, const Panel &Table,
               const std::vector<std::string> &Engines, bool Last) {
  std::fprintf(F, "  \"%s\": {\n", Name);
  for (size_t E = 0; E < Engines.size(); ++E) {
    std::fprintf(F, "    \"%s\": {", Engines[E].c_str());
    const auto &Row = Table.at(Engines[E]);
    bool First = true;
    for (const std::string &Gr : fig11Order()) {
      std::fprintf(F, "%s\"%s\": %.0f", First ? "" : ", ", Gr.c_str(),
                   Row.at(Gr) * 1e6); // MB/s → bytes/sec
      First = false;
    }
    std::fprintf(F, "}%s\n", E + 1 < Engines.size() ? "," : "");
  }
  std::fprintf(F, "  }%s\n", Last ? "" : ",");
}

} // namespace

int main(int argc, char **argv) {
  const char *JsonPath = nullptr;
  for (int I = 1; I < argc; ++I) {
    if (std::strcmp(argv[I], "--json") == 0)
      JsonPath = "BENCH_fig11.json";
    else if (std::strncmp(argv[I], "--json=", 7) == 0)
      JsonPath = argv[I] + 7;
    else {
      std::fprintf(stderr, "usage: %s [--json[=path]]\n", argv[0]);
      return 2;
    }
  }

  const size_t Bytes = static_cast<size_t>(3'000'000 * benchScale());
  std::printf("Fig. 11 — Parser throughput (MB/s); corpus ~%.1f MB per "
              "grammar (synthetic, seed 1)\n",
              Bytes / 1e6);
  std::printf("Proxy mapping: see bench/README.md.\n\n");

  Panel Table, Rec;
  std::vector<std::string> ParseOrder, RecOrder;
  for (const std::string &Gr : fig11Order()) {
    std::shared_ptr<GrammarDef> Def;
    for (auto &G : allBenchmarkGrammars())
      if (G->Name == Gr)
        Def = G;
    EngineSet E = EngineSet::build(Def);
    Workload W = genWorkload(Gr, 1, Bytes);
    for (NamedEngine &Eng : fig11Engines(E)) {
      Table[Eng.Name][Gr] = throughputMBs(Eng, W.Input);
      if (Table.size() > ParseOrder.size())
        ParseOrder.push_back(Eng.Name);
    }
    for (NamedEngine &Eng : recognitionEngines(E)) {
      Rec[Eng.Name][Gr] = throughputMBs(Eng, W.Input);
      bool Seen = false;
      for (const std::string &N : RecOrder)
        Seen |= N == Eng.Name;
      if (!Seen)
        RecOrder.push_back(Eng.Name);
    }
  }

  printPanel(Table, ParseOrder);

  // Panel B: recognition only — the closer analogue of the paper's
  // measurement conditions, where MetaOCaml inlines semantic actions
  // into the generated code (our portable engines pay an indirect call
  // per action, which compresses panel-A ratios; see bench/README.md).
  std::printf("\nRecognition-only throughput (MB/s; no semantic "
              "values):\n");
  // "flap codegen" needs a working system compiler, so it can be absent
  // for some (or all) grammars; only print complete rows.
  std::vector<std::string> RecPrint;
  for (const std::string &N : RecOrder) {
    bool Complete = true;
    for (const std::string &Gr : fig11Order())
      Complete &= Rec[N].count(Gr) != 0;
    if (Complete)
      RecPrint.push_back(N);
    else
      std::printf("(%s: incomplete row, omitted)\n", N.c_str());
  }
  printPanel(Rec, RecPrint);

  std::printf("\nThroughput ratios (the paper's §6 headline claims):\n");
  std::printf("%-14s", "flap/asp");
  for (const std::string &Gr : fig11Order())
    std::printf("%8.1fx", Table["flap"][Gr] / Table["asp"][Gr]);
  std::printf("\n%-14s", "flap/normlzd");
  for (const std::string &Gr : fig11Order())
    std::printf("%8.1fx", Table["flap"][Gr] / Table["normalized"][Gr]);
  std::printf("\n%-14s", "flap/yacc");
  for (const std::string &Gr : fig11Order())
    std::printf("%8.1fx", Table["flap"][Gr] / Table["ocamlyacc"][Gr]);
  std::printf("\n");

  if (JsonPath) {
    FILE *F = std::fopen(JsonPath, "w");
    if (!F) {
      std::fprintf(stderr, "cannot write %s\n", JsonPath);
      return 1;
    }
    std::fprintf(F, "{\n");
    std::fprintf(F,
                 "  \"meta\": {\"corpus_bytes\": %zu, \"scale\": %.3f, "
                 "\"unit\": \"bytes_per_sec\"},\n",
                 Bytes, benchScale());
    jsonPanel(F, "parse", Table, ParseOrder, false);
    jsonPanel(F, "recognize", Rec, RecPrint, true);
    std::fprintf(F, "}\n");
    std::fclose(F);
    std::printf("\nwrote %s\n", JsonPath);
  }
  return 0;
}
