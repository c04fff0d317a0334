//===- perfbench/src/Requests.cpp - The requests workload ----------------===//
//
// Part of flap-cpp, a C++ reproduction of "flap: A Deterministic Parser
// with Fused Lexing" (PLDI 2023).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// requests: seeded request-shaped json documents of 40-200 bytes, a
/// seeded 1-64 of them per request, submitted open-loop by one generator
/// thread to a ParseService with 3 workers (4 threads in all). Fixed
/// per-request costs dominate here: scratch reset, PoolBank checkout,
/// queue handoff, the future and reply teardown. Set-up loads a shipped
/// .flapart instead of compiling, so the artifact load and its audit are
/// measured here and nowhere else.
///
/// An operation is one request, timed from when it was due to when the
/// generator saw its future ready (the generator polls, so a stall also
/// delays the requests behind it). The latencies are taken at the
/// nominal rate; mbps is the document bytes per second the service
/// completes with its queue kept full (its capacity).
///
//===----------------------------------------------------------------------===//

#include "Bench.h"

#include "engine/Artifact.h"
#include "engine/Serve.h"
#include "grammars/Grammars.h"
#include "workloads/Workloads.h"

#include <cstdio>
#include <deque>
#include <optional>

using namespace perfbench;

const std::vector<unsigned> &perfbench::ladderRates() {
  static const std::vector<unsigned> Rates = {2000, 5000, 10000, 20000,
                                              40000};
  return Rates;
}

namespace {

constexpr size_t Workers = 3;
constexpr size_t PoolDocs = 4096;
constexpr size_t NumRequests = 1 << 15;
/// The rate the end-to-end latencies are taken at (requests/s), about a
/// quarter of the service's capacity: high enough that the workers stay
/// awake, so the latency measures the service rather than how fast the
/// host wakes an idle vCPU.
constexpr unsigned NominalRate = 20000;
/// The p99 latency a ladder rate must meet to count as sustained.
constexpr double LatencyLimitUs = 1000;
/// A rate keeps up when no more than this many requests are still
/// outstanding as its submission window closes.
constexpr size_t MaxEndBacklog = 4 * Workers;
/// Requests in flight while measuring capacity.
constexpr size_t BurstInFlight = 64;
/// Latency samples per slice for the quiet tenth (50 ms at the nominal
/// rate; the slice's p99 still has ten samples beyond it).
constexpr size_t LatencySlice = 1000;
/// Length of the time slices capacity takes its quiet tenth over.
constexpr double CapacitySliceS = 0.03;

/// What one open-loop run at a fixed rate observed.
struct RateRun {
  std::vector<double> LatUs, SubmitUs, ReadyUs, FreeUs, LagUs;
  size_t Requests = 0, Rejected = 0, BacklogMax = 0, EndBacklog = 0;
};

class Requests : public Runner {
public:
  void generate(const Options &O, Report &R) override {
    Rng G(O.Seed ^ 0x72657175657374ull);
    while (Docs.size() < PoolDocs) {
      flap::Workload W = genJson(G, 1); // exactly one json message
      if (W.Input.size() < 40 || W.Input.size() > 200)
        continue;
      R.hashInput(W.Input);
      Docs.push_back(std::move(W.Input));
      Expected.push_back(W.Expected);
    }
    Reqs.resize(NumRequests);
    Views.resize(NumRequests);
    for (size_t I = 0; I < NumRequests; ++I) {
      const size_t N = 1 + G.below(64);
      for (size_t J = 0; J < N; ++J) {
        const size_t D = G.below(PoolDocs);
        Reqs[I].push_back(D);
        Views[I].push_back(Docs[D]);
      }
      std::string Ids;
      for (size_t D : Reqs[I])
        Ids += std::to_string(D) + ",";
      R.hashInput(Ids);
    }
    BlobPath = O.WorkDir + "/requests-json.flapart";
  }

  double setup(bool Keep) override {
    if (!P) {
      // Shipping the artifact is not part of set-up: compile and write
      // it once, untimed, before the first timed load.
      Def = makeJsonGrammar();
      auto PR = compileFlap(Def);
      if (!PR)
        fatal(PR.error());
      P = std::make_shared<FlapParser>(PR.take());
      if (Status S = writeArtifact(*P, BlobPath); !S.ok())
        fatal("writeArtifact: " + S.error());
    }
    const double T0 = now();
    Result<LoadedArtifact> A = [&] {
      Scope S("loadArtifact");
      return loadArtifact(BlobPath, Def->L->Actions,
                          LoadOptions{/*Trusted=*/false});
    }();
    const double Secs = now() - T0;
    if (!A)
      fatal("loadArtifact: " + A.error());
    if (Keep) {
      Svc.reset(); // borrows the tables it replaces
      Art = std::make_shared<LoadedArtifact>(A.take());
      ServeOptions SO;
      SO.Threads = Workers;
      Svc = std::make_unique<ParseService>(Art->M, Art->M.Start, SO);
    }
    return Secs;
  }

  void gate(Report &R) override {
    for (size_t D = 0; D < Docs.size(); ++D) {
      Result<Value> V = oracleParse(*P, Docs[D]);
      R.check(V.ok() && *V == Expected[D],
              "doc " + std::to_string(D) + ": interpreter != generator");
      Oracle.push_back(V.ok() ? *V : Value());
    }
    ParseScratch Sc;
    for (size_t I = 0; I < 512; ++I) {
      ServeReply Rep = Svc->submit(Views[I]).get();
      R.check(replyOk(I, Rep), "request " + std::to_string(I) + ": reply");
      auto B = Art->M.parseBatch(Art->M.Start, Views[I], Sc);
      bool Ok = B.size() == Reqs[I].size();
      for (size_t J = 0; Ok && J < B.size(); ++J)
        Ok = B[J].ok() && *B[J] == Oracle[Reqs[I][J]];
      R.check(Ok, "request " + std::to_string(I) + ": parseBatch");
    }
  }

  void counts(Report &R) override {
    uint64_t NumDocs = 0, Bytes = 0;
    for (size_t I = 0; I < NumRequests; ++I) {
      NumDocs += Reqs[I].size();
      for (std::string_view V : Views[I])
        Bytes += V.size();
    }
    R.count("requests.schedule", NumRequests);
    R.count("requests.docs", NumDocs);
    R.count("requests.bytes", Bytes);
  }

  EndToEnd measure(double Seconds, Report &R) override {
    RateRun Run = openLoop(NominalRate, Seconds * 0.7, R);
    EndToEnd E;
    E.P50Us = quietQuantile(Run.LatUs, LatencySlice, 0.50);
    E.P90Us = quietQuantile(Run.LatUs, LatencySlice, 0.90);
    E.P99Us = quietQuantile(Run.LatUs, LatencySlice, 0.99);
    E.Samples = Run.LatUs.size();
    // Set-up is re-timed during the capacity phase only: a load on the
    // generator thread during the open loop would delay the requests
    // due meanwhile.
    sampleSetup(*this, Seconds * 0.3, SetupReps);
    E.Mbps = capacityMbps(Seconds * 0.3, R);
    return E;
  }

  void layers(double Seconds, Report &R) override {
    // Artifact: untrusted loads run the Verify audit, trusted ones only
    // the checksum; the difference is the audit.
    std::vector<double> Untrusted, Trusted;
    for (int I = 0; I < 15; ++I)
      for (bool T : {false, true}) {
        const double T0 = now();
        Result<LoadedArtifact> A = [&] {
          Scope S(T ? "loadArtifact.trusted" : "loadArtifact");
          return loadArtifact(BlobPath, Def->L->Actions, LoadOptions{T});
        }();
        (T ? Trusted : Untrusted).push_back((now() - T0) * 1e3);
        R.check(A.ok(), "loadArtifact");
      }
    R.layer("engine.artifact_load_ms", median(Untrusted));
    R.layer("engine.artifact_trusted_load_ms", median(Trusted));

    // The ladder: one open-loop run per fixed rate.
    const auto &Ladder = ladderRates();
    const double Rung = Seconds * 0.75 / static_cast<double>(Ladder.size());
    size_t NumRequestsRun = 0, Rejected = 0;
    double Sustained = 0;
    bool Holding = true;
    for (unsigned Rate : Ladder) {
      RateRun Run = openLoop(Rate, Rung, R);
      const double P99 = quantile(Run.LatUs, 0.99);
      R.layer("serve.p99_us.r" + std::to_string(Rate), P99);
      Holding = Holding && P99 <= LatencyLimitUs &&
                Run.EndBacklog <= MaxEndBacklog && Run.Rejected == 0;
      if (Holding)
        Sustained = Rate;
      NumRequestsRun += Run.Requests;
      Rejected += Run.Rejected;
      std::printf("# rate %6u/s: %zu requests, p50 %.1f us, p99 %.1f us, "
                  "backlog max %zu, at end %zu%s\n",
                  Rate, Run.Requests, quantile(Run.LatUs, 0.5), P99,
                  Run.BacklogMax, Run.EndBacklog,
                  Holding ? "" : "  (not sustained)");
      if (Rate != NominalRate)
        continue;
      R.layer("serve.submit_p50_us", quantile(Run.SubmitUs, 0.50));
      R.layer("serve.submit_p99_us", quantile(Run.SubmitUs, 0.99));
      R.layer("serve.ready_p50_us", quantile(Run.ReadyUs, 0.50));
      R.layer("serve.ready_p99_us", quantile(Run.ReadyUs, 0.99));
      R.layer("serve.reply_free_us", median(Run.FreeUs));
      R.layer("serve.gen_lag_p99_us", quantile(Run.LagUs, 0.99));
      R.layer("serve.backlog_max", static_cast<double>(Run.BacklogMax));
    }
    R.layer("serve.requests", static_cast<double>(NumRequestsRun));
    R.layer("serve.rejected", static_cast<double>(Rejected));
    R.layer("serve.sustained_rps", Sustained);

    // The same requests through parseBatch on this thread: no queue, no
    // handoff. ready - batch_parse is the queue wait plus handoff.
    std::vector<double> BatchUs;
    ParseScratch Sc;
    forSeconds(Seconds * 0.2, 16, [&](size_t I) {
      const size_t Q = I % NumRequests;
      const double T0 = now();
      auto B = [&] {
        Scope S("serve.batch_parse", Q);
        return Art->M.parseBatch(Art->M.Start, Views[Q], Sc);
      }();
      BatchUs.push_back((now() - T0) * 1e6);
      R.check(B.size() == Reqs[Q].size() && B.back().ok(), "parseBatch");
    });
    R.layer("serve.batch_parse_us", median(BatchUs));
  }

private:
  bool replyOk(size_t Req, const ServeReply &Rep) const {
    if (!Rep.Accepted || Rep.Results.size() != Reqs[Req].size())
      return false;
    for (size_t J = 0; J < Rep.Results.size(); ++J)
      if (!Rep.Results[J].ok() || !(*Rep.Results[J] == Oracle[Reqs[Req][J]]))
        return false;
    return true;
  }

  /// Submits requests at \p Rate per second for \p Seconds, one every
  /// 1/Rate seconds, polling the outstanding futures between sends.
  RateRun openLoop(unsigned Rate, double Seconds, Report &R) {
    struct Pending {
      size_t Req;
      double Due, SubmitStart, Submitted;
      std::future<ServeReply> F;
    };
    Tracer &T = Tracer::get();
    RateRun Run;
    std::deque<Pending> Out;
    const double Period = 1.0 / Rate;
    const double Start = now(), Stop = Start + Seconds;
    size_t K = 0;
    auto Complete = [&](Pending &Pd, double Ready) {
      std::optional<ServeReply> Rep(Pd.F.get());
      Run.LatUs.push_back((Ready - Pd.Due) * 1e6);
      Run.ReadyUs.push_back((Ready - Pd.Submitted) * 1e6);
      Run.Rejected += !Rep->Accepted;
      R.check(replyOk(Pd.Req, *Rep), "timed request reply");
      const double F0 = now();
      Rep.reset(); // returns the reply's pool to the PoolBank
      const double F1 = now();
      Run.FreeUs.push_back((F1 - F0) * 1e6);
      if (T.on()) {
        const int64_t Id = T.record("serve.request", Pd.Due, F1, -1, Pd.Req);
        T.record("serve.submit", Pd.SubmitStart, Pd.Submitted, Id, Pd.Req);
        T.record("serve.ready", Pd.Submitted, Ready, Id, Pd.Req);
        T.record("serve.reply_free", F0, F1, Id, Pd.Req);
      }
    };
    for (;;) {
      const double Now = now();
      const double Due = Start + static_cast<double>(K) * Period;
      if (Due < Stop && Now >= Due) {
        const size_t Req = (Base + K++) % NumRequests;
        Run.LagUs.push_back((Now - Due) * 1e6);
        const double S0 = now();
        std::future<ServeReply> F = Svc->submit(Views[Req]);
        const double S1 = now();
        Run.SubmitUs.push_back((S1 - S0) * 1e6);
        Out.push_back({Req, Due, S0, S1, std::move(F)});
        Run.BacklogMax = std::max(Run.BacklogMax, Out.size());
        continue;
      }
      if (Due >= Stop && Run.Requests == 0) {
        Run.Requests = K;
        Run.EndBacklog = Out.size();
      }
      if (Due >= Stop && Out.empty())
        break;
      size_t Scanned = 0;
      for (auto It = Out.begin(); It != Out.end() && Scanned < 64; ++Scanned) {
        if (It->F.wait_for(std::chrono::seconds(0)) !=
            std::future_status::ready) {
          ++It;
          continue;
        }
        Complete(*It, now());
        It = Out.erase(It);
      }
    }
    Base += K;
    return Run;
  }

  /// Document MB/s completed with BurstInFlight requests always queued,
  /// in the quietest tenth of CapacitySliceS time slices (their 90th
  /// percentile: the host's interference only ever lowers it).
  double capacityMbps(double Seconds, Report &R) {
    std::deque<std::pair<size_t, std::future<ServeReply>>> Out;
    const size_t Windows =
        std::max<size_t>(1, static_cast<size_t>(Seconds / CapacitySliceS));
    std::vector<double> Bytes(Windows, 0.0);
    const double Start = now(), Stop = Start + Seconds;
    while (now() < Stop) {
      setupTick(); // the queue stays full while the generator loads
      while (Out.size() < BurstInFlight) {
        const size_t Req = Base++ % NumRequests;
        Out.emplace_back(Req, Svc->submit(Views[Req]));
      }
      auto &[Req, F] = Out.front();
      ServeReply Rep = F.get();
      R.check(replyOk(Req, Rep), "burst request reply");
      const size_t W = std::min(
          Windows - 1, static_cast<size_t>((now() - Start) / Seconds *
                                           static_cast<double>(Windows)));
      for (std::string_view V : Views[Req])
        Bytes[W] += static_cast<double>(V.size());
      Out.pop_front();
    }
    for (auto &[Req, F] : Out)
      R.check(replyOk(Req, F.get()), "burst request reply");
    for (double &B : Bytes)
      B /= Seconds / static_cast<double>(Windows) * 1e6;
    return quantile(Bytes, 0.90);
  }

  std::vector<std::string> Docs;
  std::vector<Value> Expected, Oracle;
  std::vector<std::vector<size_t>> Reqs;
  std::vector<std::vector<std::string_view>> Views;
  std::string BlobPath;
  std::shared_ptr<GrammarDef> Def;
  std::shared_ptr<FlapParser> P;
  std::shared_ptr<LoadedArtifact> Art;
  std::unique_ptr<ParseService> Svc;
  size_t Base = 0; ///< next schedule index, so runs do not replay
};

} // namespace

std::unique_ptr<Runner> perfbench::makeRequests() {
  return std::make_unique<Requests>();
}
