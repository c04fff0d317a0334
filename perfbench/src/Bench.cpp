//===- perfbench/src/Bench.cpp - Main program, results, tracing, oracle --===//
//
// Part of flap-cpp, a C++ reproduction of "flap: A Deterministic Parser
// with Fused Lexing" (PLDI 2023).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// flap_perfbench --workload <docs|requests|records> --seed <n>
///                --seconds <s> --trace <0|1> [--trace-out <path>]
///                [--workdir <dir>] [--commit <id>] [--counts]
///
/// Prints a metadata header, human-readable result lines, and as its
/// last line one JSON object {"correct", "attempted", "failed",
/// "metrics"}: the end-to-end metrics with --trace 0, the per-layer
/// metrics with --trace 1. Exits 1 when any output disagrees with the
/// oracle, 2 on bad usage.
///
//===----------------------------------------------------------------------===//

#include "Bench.h"

#include "core/Normalize.h"
#include "core/Validate.h"
#include "engine/DgnfInterp.h"
#include "engine/Verify.h"
#include "grammars/Grammars.h"
#include "lexer/CompiledLexer.h"

#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <deque>
#include <fstream>
#include <numeric>
#include <thread>

using namespace perfbench;

namespace {
const auto ProcessStart = std::chrono::steady_clock::now();
} // namespace

double perfbench::now() {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                       ProcessStart)
      .count();
}

void perfbench::fatal(const std::string &Msg) {
  std::fprintf(stderr, "flap_perfbench: fatal: %s\n", Msg.c_str());
  std::exit(1);
}

//===----------------------------------------------------------------------===//
// Results
//===----------------------------------------------------------------------===//

const std::vector<std::string> &perfbench::grammarNames() {
  static const std::vector<std::string> Names = {"json", "sexp", "arith",
                                                 "pgn",  "ppm",  "csv"};
  return Names;
}

const std::vector<std::pair<std::string, std::string>> &
perfbench::layerNames() {
  static const std::vector<std::pair<std::string, std::string>> Names = [] {
    std::vector<std::pair<std::string, std::string>> N;
    // engine / lexer: the docs panel, one set per grammar.
    const std::pair<const char *, const char *> PerGrammar[] = {
        {"engine.recognize_mbps", "MB/s"}, {"engine.parse_mbps", "MB/s"},
        {"engine.events_mbps", "MB/s"},    {"engine.value_share", "ratio"},
        {"engine.tokens", "count"},        {"engine.lexemes", "count"},
        {"engine.reductions", "count"},
        {"engine.ns_per_token", "ns"},     {"engine.stream_mbps", "MB/s"},
        {"engine.stream64_mbps", "MB/s"},  {"engine.carry_hw", "bytes"},
        {"lexer.lexall_mbps", "MB/s"}};
    for (const auto &[Base, Unit] : PerGrammar)
      for (const std::string &G : grammarNames())
        N.emplace_back(std::string(Base) + "." + G, Unit);
    // Set-up stages (docs, records).
    for (const char *S : {"cfe.typecheck_ms", "core.normalize_ms",
                          "core.fuse_ms", "engine.stage_ms",
                          "engine.verify_ms"})
      N.emplace_back(S, "ms");
    // Artifact (requests).
    N.emplace_back("engine.artifact_load_ms", "ms");
    N.emplace_back("engine.artifact_trusted_load_ms", "ms");
    // Serve (requests).
    for (const char *S :
         {"serve.submit_p50_us", "serve.submit_p99_us", "serve.ready_p50_us",
          "serve.ready_p99_us", "serve.batch_parse_us", "serve.reply_free_us",
          "serve.gen_lag_p99_us"})
      N.emplace_back(S, "us");
    N.emplace_back("serve.backlog_max", "count");
    N.emplace_back("serve.requests", "count");
    N.emplace_back("serve.rejected", "count");
    N.emplace_back("serve.sustained_rps", "1/s");
    for (unsigned Rate : ladderRates())
      N.emplace_back("serve.p99_us.r" + std::to_string(Rate), "us");
    // Shard (records).
    N.emplace_back("shard.plan_ms", "ms");
    N.emplace_back("shard.run_ms", "ms");
    N.emplace_back("shard.shards", "count");
    N.emplace_back("shard.mispredicted", "count");
    N.emplace_back("shard.useful_frac", "ratio");
    N.emplace_back("shard.speedup", "ratio");
    // Recovery (records).
    for (const char *G : {"json", "csv"}) {
      N.emplace_back(std::string("recover.errors.") + G, "count");
      N.emplace_back(std::string("recover.clean_mbps.") + G, "MB/s");
      N.emplace_back(std::string("recover.resync_us_per_error.") + G, "us");
    }
    return N;
  }();
  return Names;
}

Report::Report() {
  for (const auto &[Name, Unit] : layerNames())
    Layers.emplace_back(Name, 0.0);
}

void Report::layer(const std::string &Name, double Value) {
  for (auto &[N, V] : Layers)
    if (N == Name) {
      V = Value;
      return;
    }
  fatal("unknown per-layer metric '" + Name + "'");
}

void Report::check(bool Ok, const std::string &What) {
  ++Attempted;
  if (Ok)
    return;
  if (++Failed <= 5)
    std::fprintf(stderr, "flap_perfbench: oracle mismatch: %s\n",
                 What.c_str());
}

void Report::hashInput(std::string_view Bytes) {
  // FNV-1a over the length and the bytes: order- and boundary-sensitive.
  auto Mix = [&](unsigned char C) {
    InputHash ^= C;
    InputHash *= 0x100000001b3ull;
  };
  for (int I = 0; I < 8; ++I)
    Mix(static_cast<unsigned char>(Bytes.size() >> (8 * I)));
  for (unsigned char C : Bytes)
    Mix(C);
}

//===----------------------------------------------------------------------===//
// Tracing
//===----------------------------------------------------------------------===//

Tracer &Tracer::get() {
  static Tracer T;
  return T;
}

int64_t Tracer::begin(const char *Name, uint64_t Req) {
  if (!On)
    return -1;
  const int64_t Id = static_cast<int64_t>(Spans.size());
  Spans.push_back({Name, now(), 0, Open.empty() ? -1 : Open.back(), Req});
  Open.push_back(Id);
  return Id;
}

void Tracer::end(int64_t Id) {
  if (Id < 0)
    return;
  Spans[static_cast<size_t>(Id)].End = now();
  if (!Open.empty() && Open.back() == Id)
    Open.pop_back();
}

int64_t Tracer::record(const char *Name, double Start, double End,
                       int64_t Parent, uint64_t Req) {
  if (!On)
    return -1;
  Spans.push_back({Name, Start, End, Parent, Req});
  return static_cast<int64_t>(Spans.size()) - 1;
}

const char *Tracer::intern(const std::string &Name) {
  static std::deque<std::string> Names;
  for (const std::string &N : Names)
    if (N == Name)
      return N.c_str();
  Names.push_back(Name);
  return Names.back().c_str();
}

void Tracer::printSelfTimes() const {
  // Self time = duration minus the time its children cover. Children of
  // one span never overlap (they run on the span's own thread, or are
  // the sequential phases of one request).
  std::vector<double> ChildTime(Spans.size(), 0.0);
  for (const Span &S : Spans)
    if (S.Parent >= 0)
      ChildTime[static_cast<size_t>(S.Parent)] += S.End - S.Start;
  struct Agg {
    size_t N = 0;
    double Total = 0, Self = 0;
  };
  std::map<std::string, Agg> ByName;
  for (size_t I = 0; I < Spans.size(); ++I) {
    Agg &A = ByName[Spans[I].Name];
    ++A.N;
    A.Total += Spans[I].End - Spans[I].Start;
    A.Self += Spans[I].End - Spans[I].Start - ChildTime[I];
  }
  std::printf("# spans: %zu recorded; per name: count, total ms, self ms\n",
              Spans.size());
  for (const auto &[Name, A] : ByName)
    std::printf("#   %-34s %8zu %12.3f %12.3f\n", Name.c_str(), A.N,
                A.Total * 1e3, A.Self * 1e3);
}

bool Tracer::write(const std::string &Path) const {
  std::ofstream F(Path);
  if (!F)
    return false;
  char Buf[256];
  for (size_t I = 0; I < Spans.size(); ++I) {
    const Span &S = Spans[I];
    std::snprintf(Buf, sizeof(Buf),
                  "{\"id\": %zu, \"name\": \"%s\", \"start_us\": %.3f, "
                  "\"end_us\": %.3f, \"parent\": %lld, \"req\": %llu}\n",
                  I, S.Name, S.Start * 1e6, S.End * 1e6,
                  static_cast<long long>(S.Parent),
                  static_cast<unsigned long long>(S.Req));
    F << Buf;
  }
  return static_cast<bool>(F);
}

//===----------------------------------------------------------------------===//
// Statistics
//===----------------------------------------------------------------------===//

double perfbench::quantile(std::vector<double> V, double Q) {
  if (V.empty())
    return 0;
  std::sort(V.begin(), V.end());
  const double Pos = Q * static_cast<double>(V.size() - 1);
  const size_t Lo = static_cast<size_t>(Pos);
  const size_t Hi = std::min(Lo + 1, V.size() - 1);
  return V[Lo] + (V[Hi] - V[Lo]) * (Pos - static_cast<double>(Lo));
}

double perfbench::geomean(const std::vector<double> &V) {
  double Log = 0;
  for (double X : V)
    Log += std::log(X);
  return V.empty() ? 0 : std::exp(Log / static_cast<double>(V.size()));
}

EndToEnd perfbench::summarize(const std::vector<std::vector<double>> &Us,
                              const std::vector<size_t> &Bytes) {
  // Calls per slice: a slice's p90 has five calls beyond it, and a slice
  // is short enough (a few seconds at most) to sit in one host phase.
  constexpr size_t SliceCalls = 50;
  std::vector<double> Mbps, P50, P90, P99;
  EndToEnd E;
  E.Samples = SIZE_MAX;
  for (size_t I = 0; I < Bytes.size(); ++I) {
    const std::vector<double> &T = Us[I];
    // Bytes per microsecond is MB/s.
    Mbps.push_back(static_cast<double>(Bytes[I]) /
                   sliceMean(T, SliceCalls, 0.75));
    P50.push_back(sliceMean(T, SliceCalls, 0.50));
    P90.push_back(sliceMean(T, SliceCalls, 0.90));
    P99.push_back(quantile(T, 0.99));
    E.Samples = std::min(E.Samples, T.size());
  }
  E.Mbps = geomean(Mbps);
  E.P50Us = geomean(P50);
  E.P90Us = geomean(P90);
  E.P99Us = geomean(P99);
  return E;
}

namespace {
/// The \p Q quantile of each slice of \p PerSlice consecutive samples of
/// \p V; the whole of \p V is one slice when it is shorter than that.
std::vector<double> sliceQuantiles(const std::vector<double> &V,
                                   size_t PerSlice, double Q) {
  const size_t Slices = V.size() / PerSlice;
  if (Slices == 0)
    return {quantile(V, Q)};
  std::vector<double> W;
  for (size_t I = 0; I < Slices; ++I)
    W.push_back(quantile(std::vector<double>(V.begin() + I * PerSlice,
                                             V.begin() + (I + 1) * PerSlice),
                         Q));
  return W;
}
} // namespace

double perfbench::sliceMean(const std::vector<double> &V, size_t PerSlice,
                            double Q) {
  const std::vector<double> W = sliceQuantiles(V, PerSlice, Q);
  return std::accumulate(W.begin(), W.end(), 0.0) /
         static_cast<double>(W.size());
}

double perfbench::quietQuantile(const std::vector<double> &V, size_t PerSlice,
                                double Q) {
  return quantile(sliceQuantiles(V, PerSlice, Q), 0.10);
}

double perfbench::stealSeconds() {
  std::ifstream F("/proc/stat");
  std::string Cpu;
  double Field[8] = {0};
  F >> Cpu;
  for (double &X : Field)
    F >> X;
  return Cpu == "cpu" ? Field[7] / static_cast<double>(sysconf(_SC_CLK_TCK))
                      : 0.0;
}

double perfbench::peakRssMb() {
  struct rusage U;
  getrusage(RUSAGE_SELF, &U);
  return static_cast<double>(U.ru_maxrss) / 1024.0; // ru_maxrss is KiB
}

//===----------------------------------------------------------------------===//
// Grammars and the oracle
//===----------------------------------------------------------------------===//

std::shared_ptr<GrammarDef> perfbench::makeGrammar(const std::string &Name) {
  if (Name == "json")
    return makeJsonGrammar();
  if (Name == "sexp")
    return makeSexpGrammar();
  if (Name == "arith")
    return makeArithGrammar();
  if (Name == "pgn")
    return makePgnGrammar();
  if (Name == "ppm")
    return makePpmGrammar();
  if (Name == "csv")
    return makeCsvGrammar();
  fatal("unknown grammar '" + Name + "'");
}

std::shared_ptr<void> perfbench::newCtx(const GrammarDef &Def) {
  return Def.NewCtx ? Def.NewCtx() : nullptr;
}

perfbench::Oracle::Oracle(const FlapParser &P, NtId Start)
    : P(P), G(P.G), Lex(*P.Def->Re, P.Canon) {
  if (Start != NoNt)
    G.Start = Start;
}

Result<Value> perfbench::Oracle::operator()(std::string_view Input) const {
  auto Toks = Lex.lexAll(Input);
  if (!Toks)
    return Err("lex: " + Toks.error());
  std::shared_ptr<void> Ctx = newCtx(*P.Def);
  return parseDgnf(G, P.Def->L->Actions, *Toks, Input, Ctx.get());
}

Result<Value> perfbench::oracleParse(const FlapParser &P,
                                     std::string_view Input) {
  return Oracle(P)(Input);
}

namespace {
struct StageMs {
  double TypeCheck = 0, Normalize = 0, Fuse = 0, Stage = 0, Verify = 0;
};

StageMs timeStages(const std::string &Name, bool Records) {
  std::shared_ptr<GrammarDef> Def = makeGrammar(Name);
  Lang &L = *Def->L;
  StageMs T;
  std::vector<std::pair<std::string, Px>> Roots = {{"main", Def->Root}};
  if (Records)
    Roots.emplace_back("record", Def->Record);

  double T0 = now();
  {
    Scope S("cfe.typecheck");
    for (const auto &[RootName, Root] : Roots)
      if (!L.check(Root))
        fatal("typecheck(" + Name + "/" + RootName + ")");
  }
  T.TypeCheck = (now() - T0) * 1e3;

  T0 = now();
  Grammar G;
  CanonicalLexer Canon;
  {
    Scope S("core.normalize");
    std::vector<CfeId> Ids;
    for (const auto &Root : Roots)
      Ids.push_back(Root.second.Id);
    std::vector<NtId> Starts;
    Result<Grammar> GR = Records ? normalizeMulti(L.Arena, Ids, Starts)
                                 : normalize(L.Arena, Def->Root.Id);
    if (!GR)
      fatal("normalize(" + Name + "): " + GR.error());
    G = GR.take();
    if (Status St = validateDgnf(G, *Def->Toks); !St.ok())
      fatal("dgnf(" + Name + "): " + St.error());
  }
  T.Normalize = (now() - T0) * 1e3;

  // Lexer canonicalization is charged to fusion, as in Table 2.
  T0 = now();
  FusedGrammar F;
  {
    Scope S("core.fuse");
    Result<CanonicalLexer> C = Def->Lexer->canonicalize();
    if (!C)
      fatal("canonicalize(" + Name + "): " + C.error());
    Canon = C.take();
    Result<FusedGrammar> FR = fuse(*Def->Re, Canon, G, *Def->Toks);
    if (!FR)
      fatal("fuse(" + Name + "): " + FR.error());
    F = FR.take();
  }
  T.Fuse = (now() - T0) * 1e3;

  T0 = now();
  {
    Scope S("engine.stage");
    Result<CompiledParser> M =
        compileFused(*Def->Re, F, L.Actions, Def->Toks.get());
    if (!M)
      fatal("stage(" + Name + "): " + M.error());
  }
  T.Stage = (now() - T0) * 1e3;

  // The audit needs a whole FlapParser; compile one untimed.
  auto P = Records ? compileFlapRecords(makeGrammar(Name))
                   : compileFlap(makeGrammar(Name));
  if (!P)
    fatal("compile(" + Name + "): " + P.error());
  T0 = now();
  {
    Scope S("engine.verify");
    VerifyReport VR = verifyFlapParser(*P);
    if (!VR.ok())
      fatal("verify(" + Name + "): " + VR.summary());
  }
  T.Verify = (now() - T0) * 1e3;
  return T;
}
} // namespace

void perfbench::stagePanel(Report &R, const std::vector<std::string> &Grammars,
                           bool Records, int Reps) {
  StageMs Sum;
  for (const std::string &G : Grammars) {
    std::vector<double> Tc, No, Fu, St, Ve;
    for (int I = 0; I < Reps; ++I) {
      StageMs T = timeStages(G, Records);
      Tc.push_back(T.TypeCheck);
      No.push_back(T.Normalize);
      Fu.push_back(T.Fuse);
      St.push_back(T.Stage);
      Ve.push_back(T.Verify);
    }
    Sum.TypeCheck += median(Tc);
    Sum.Normalize += median(No);
    Sum.Fuse += median(Fu);
    Sum.Stage += median(St);
    Sum.Verify += median(Ve);
  }
  R.layer("cfe.typecheck_ms", Sum.TypeCheck);
  R.layer("core.normalize_ms", Sum.Normalize);
  R.layer("core.fuse_ms", Sum.Fuse);
  R.layer("engine.stage_ms", Sum.Stage);
  R.layer("engine.verify_ms", Sum.Verify);
}

//===----------------------------------------------------------------------===//
// Set-up sampling
//===----------------------------------------------------------------------===//

namespace {
struct SetupSampling {
  Runner *W = nullptr;
  double Next = 0, Interval = 0;
  int Left = 0;
  std::vector<double> Samples;
} Sampling;
} // namespace

void perfbench::sampleSetup(Runner &W, double Seconds, int Reps) {
  Sampling.W = &W;
  Sampling.Interval = Reps > 0 ? Seconds / Reps : 0;
  Sampling.Next = now() + Sampling.Interval / 2;
  Sampling.Left = Reps;
  Sampling.Samples.clear();
}

void perfbench::setupTick() {
  if (Sampling.Left <= 0 || now() < Sampling.Next)
    return;
  --Sampling.Left;
  Sampling.Next += Sampling.Interval;
  Scope S("setup");
  double Sum = 0;
  for (int K = 0; K < SetupBurst; ++K)
    Sum += Sampling.W->setup(/*Keep=*/false);
  Sampling.Samples.push_back(Sum / SetupBurst);
}

const std::vector<double> &perfbench::setupSamples() {
  return Sampling.Samples;
}

//===----------------------------------------------------------------------===//
// Main program
//===----------------------------------------------------------------------===//

namespace {

[[noreturn]] void usage(const char *Argv0) {
  std::fprintf(stderr,
               "usage: %s --workload <docs|requests|records> --seed <n> "
               "--seconds <s> --trace <0|1> [--trace-out <path>] "
               "[--workdir <dir>] [--commit <id>] [--counts]\n",
               Argv0);
  std::exit(2);
}

Options parseArgs(int Argc, char **Argv) {
  Options O;
  for (int I = 1; I < Argc; ++I) {
    const std::string A = Argv[I];
    auto Val = [&]() -> std::string {
      if (I + 1 >= Argc)
        usage(Argv[0]);
      return Argv[++I];
    };
    if (A == "--workload")
      O.Workload = Val();
    else if (A == "--seed")
      O.Seed = std::strtoull(Val().c_str(), nullptr, 10);
    else if (A == "--seconds")
      O.Seconds = std::atof(Val().c_str());
    else if (A == "--trace")
      O.Trace = Val() == "1";
    else if (A == "--trace-out")
      O.TraceOut = Val();
    else if (A == "--workdir")
      O.WorkDir = Val();
    else if (A == "--commit")
      O.Commit = Val();
    else if (A == "--counts")
      O.CountsOnly = true;
    else
      usage(Argv[0]);
  }
  if (O.Workload.empty() || !(O.Seconds > 0))
    usage(Argv[0]);
  if (O.WorkDir.empty())
    O.WorkDir = ".";
  return O;
}

std::string cpuModel() {
  std::ifstream F("/proc/cpuinfo");
  std::string Line;
  while (std::getline(F, Line))
    if (Line.rfind("model name", 0) == 0) {
      const size_t C = Line.find(':');
      return C == std::string::npos ? Line : Line.substr(C + 2);
    }
  return "unknown";
}

void printHeader(const Options &O) {
#ifdef NDEBUG
  const char *Asserts = "off";
#else
  const char *Asserts = "on (compileFused runs its Verify hook, so the "
                        "audit is inside setup_s)";
#endif
#ifdef FLAP_NO_SIMD
  const int NoSimd = 1;
#else
  const int NoSimd = 0;
#endif
#ifdef FLAP_NO_DISPATCH
  const int NoDispatch = 1;
#else
  const int NoDispatch = 0;
#endif
#ifdef FLAP_VERIFY_TABLES
  const int VerifyTables = 1;
#else
  const int VerifyTables = 0;
#endif
  std::printf("# flap_perfbench workload=%s seed=%llu seconds=%g trace=%d\n",
              O.Workload.c_str(), static_cast<unsigned long long>(O.Seed),
              O.Seconds, O.Trace ? 1 : 0);
  std::printf("# host: %s, nproc %u\n", cpuModel().c_str(),
              std::thread::hardware_concurrency());
  std::printf("# compiler: %s (%s)\n", PB_COMPILER, __VERSION__);
  std::printf("# build: %s, flags \"%s\"\n", PB_BUILD_TYPE, PB_CXX_FLAGS);
  std::printf("# FLAP_NO_SIMD=%d FLAP_NO_DISPATCH=%d FLAP_VERIFY_TABLES=%d "
              "asserts=%s\n",
              NoSimd, NoDispatch, VerifyTables, Asserts);
  std::printf("# source: %s\n", O.Commit.empty() ? "unknown" : O.Commit.c_str());
}

std::unique_ptr<Runner> makeRunner(const std::string &Name) {
  if (Name == "docs")
    return makeDocs();
  if (Name == "requests")
    return makeRequests();
  if (Name == "records")
    return makeRecords();
  return nullptr;
}

void printMetric(bool &First, const std::string &Name, double Value,
                 const std::string &Unit) {
  std::printf("%s\"%s\": {\"value\": %.10g, \"unit\": \"%s\"}",
              First ? "" : ", ", Name.c_str(), Value, Unit.c_str());
  First = false;
}

} // namespace

int main(int Argc, char **Argv) {
  const Options O = parseArgs(Argc, Argv);
  std::unique_ptr<Runner> W = makeRunner(O.Workload);
  if (!W) {
    std::fprintf(stderr, "unknown workload '%s'\n", O.Workload.c_str());
    return 2;
  }
  Report R;
  W->generate(O, R);

  if (O.CountsOnly) {
    W->setup(/*Keep=*/true);
    W->gate(R);
    W->counts(R);
    std::printf("{\"workload\": \"%s\", \"seed\": %llu, \"inputs_hash\": "
                "\"%016llx\", \"counts\": {",
                O.Workload.c_str(), static_cast<unsigned long long>(O.Seed),
                static_cast<unsigned long long>(R.inputHash()));
    bool First = true;
    for (const auto &[N, V] : R.counts()) {
      std::printf("%s\"%s\": %llu", First ? "" : ", ", N.c_str(),
                  static_cast<unsigned long long>(V));
      First = false;
    }
    std::printf("}}\n");
    return R.failed() ? 1 : 0;
  }

  printHeader(O);
  std::fflush(stdout);
  const double Steal0 = stealSeconds();
  const double FirstSetupS = W->setup(/*Keep=*/true);
  W->gate(R);
  if (R.failed()) {
    std::printf("{\"correct\": false, \"attempted\": %llu, \"failed\": %llu, "
                "\"metrics\": {}}\n",
                static_cast<unsigned long long>(R.attempted()),
                static_cast<unsigned long long>(R.failed()));
    return 1;
  }

  // End-to-end numbers always come from an untraced measurement; the
  // traced run repeats it with spans on (the difference is the tracing
  // overhead), then runs the per-layer panel. Set-up is re-timed while
  // each measurement runs.
  std::vector<double> SetupAll;
  auto Measure = [&](double Seconds, double &SetupS) {
    sampleSetup(*W, Seconds, SetupReps);
    EndToEnd E = W->measure(Seconds, R);
    std::vector<double> S = setupSamples();
    S.push_back(FirstSetupS);
    SetupS = median(S);
    if (!Tracer::get().on())
      SetupAll = S;
    sampleSetup(*W, 0, 0);
    return E;
  };
  EndToEnd E, ET;
  double SetupS = 0, SetupTracedS = 0;
  if (!O.Trace) {
    E = Measure(O.Seconds, SetupS);
  } else {
    E = Measure(O.Seconds * 0.3, SetupS);
    Tracer::get().enable(true);
    ET = Measure(O.Seconds * 0.3, SetupTracedS);
    W->counts(R);
    W->layers(O.Seconds * 0.4, R);
  }
  const double RssMb = peakRssMb();
  std::printf("# host steal during the run: %.2f s of vCPU time\n",
              stealSeconds() - Steal0);

  std::printf("# oracle: %llu operations checked, %llu failed "
              "(failed_frac %.6g)\n",
              static_cast<unsigned long long>(R.attempted()),
              static_cast<unsigned long long>(R.failed()),
              R.attempted() ? static_cast<double>(R.failed()) /
                                  static_cast<double>(R.attempted())
                            : 0.0);
  std::printf("# setup_s %.6g (median of %zu; p10 %.6g, p90 %.6g)  "
              "peak_rss_mb %.1f\n",
              SetupS, SetupAll.size(), quantile(SetupAll, 0.10),
              quantile(SetupAll, 0.90), RssMb);
  std::printf("# mbps %.4g  latency p50 %.4g us, p90 %.4g us, p99 %.4g us "
              "(at least %zu samples each)\n",
              E.Mbps, E.P50Us, E.P90Us, E.P99Us, E.Samples);
  if (O.Trace) {
    auto Pct = [](double Untraced, double Traced) {
      return Untraced > 0 ? 100.0 * (Traced - Untraced) / Untraced : 0.0;
    };
    std::printf("# tracing overhead (traced vs untraced, %% of untraced):\n");
    std::printf("#   setup_s %+.2f%%  peak_rss_mb n/a (one process)  "
                "mbps %+.2f%%  p50_us %+.2f%%  p90_us %+.2f%%\n",
                Pct(SetupS, SetupTracedS), Pct(E.Mbps, ET.Mbps),
                Pct(E.P50Us, ET.P50Us), Pct(E.P90Us, ET.P90Us));
    Tracer::get().printSelfTimes();
    if (!O.TraceOut.empty()) {
      if (!Tracer::get().write(O.TraceOut))
        fatal("cannot write " + O.TraceOut);
      std::printf("# spans written to %s\n", O.TraceOut.c_str());
    }
    for (const auto &[Name, V] : R.layers())
      std::printf("# layer %-36s %.6g\n", Name.c_str(), V);
  }

  const bool Correct = R.failed() == 0;
  std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
              "\"metrics\": {",
              Correct ? "true" : "false",
              static_cast<unsigned long long>(R.attempted()),
              static_cast<unsigned long long>(R.failed()));
  bool First = true;
  if (!O.Trace) {
    printMetric(First, "setup_s", SetupS, "s");
    printMetric(First, "peak_rss_mb", RssMb, "MB");
    printMetric(First, "mbps", E.Mbps, "MB/s");
    printMetric(First, "p90_us", E.P90Us, "us");
  } else {
    size_t I = 0;
    for (const auto &[Name, V] : R.layers())
      printMetric(First, Name, V, layerNames()[I++].second);
  }
  std::printf("}}\n");
  return Correct ? 0 : 1;
}
