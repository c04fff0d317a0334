//===- perfbench/src/Records.cpp - The records workload ------------------===//
//
// Part of flap-cpp, a C++ reproduction of "flap: A Deterministic Parser
// with Fused Lexing" (PLDI 2023).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// records: seeded NDJSON and csv record corpora in which a seeded 1% of
/// the records are corrupted (their first byte replaced by one no lexer
/// rule accepts there). Each corpus is parsed with
/// CompiledParser::parseRecover sequentially and with
/// ShardParser::parseRecover at 3 workers. The scan layer is used
/// through the resync skipRun over NotSync instead of the parse, and
/// shard planning, speculation checks and stitching run only here.
///
/// An operation is one sequential parseRecover call over a whole corpus;
/// mbps and the latencies are summarize()d over the two corpora. The
/// sharded call is checked and traced but not timed end to end: on a
/// shared 4-vCPU host its latency swings 2-3x from one process to the
/// next (waking idle vCPUs), far beyond any useful bound; shard.* in
/// the traced run reports it.
///
//===----------------------------------------------------------------------===//

#include "Bench.h"

#include "engine/Shard.h"
#include "workloads/Workloads.h"

#include <array>

using namespace perfbench;

namespace {

constexpr size_t CorpusBytes = 2000000;
/// Fixed, so the record count (and with it the per-record share of the
/// work) does not vary with the seed.
constexpr size_t CsvCols = 6;
constexpr size_t ShardWorkers = 3;

/// One csv row: an unquoted integer id first (the byte the corruption
/// replaces), then numeric, bare and quoted text fields. Quoted fields
/// hold commas and doubled quotes but no line break, so the damage of
/// one corrupted row ends at that row's CRLF and the injected count is
/// an exact oracle for the diagnostics.
void appendCsvRow(Rng &R, size_t Cols, size_t Id, std::string &Out) {
  static const char Text[] = "abcdefghijklmnopqrstuvwxyzABCDEFGHIJ0123456789 .;";
  Out += std::to_string(1 + Id);
  for (size_t C = 1; C < Cols; ++C) {
    Out += ',';
    switch (R.below(4)) {
    case 0:
      Out += std::to_string(R.range(-100000, 100000));
      break;
    case 1:
      for (size_t I = 0, N = 1 + R.below(10); I < N; ++I)
        Out += Text[R.below(sizeof(Text) - 1)];
      break;
    case 2: {
      Out += '"';
      for (size_t I = 0, N = R.below(16); I < N; ++I) {
        const unsigned K = static_cast<unsigned>(R.below(12));
        Out += K == 0 ? std::string("\"\"")
               : K == 1 ? std::string(",")
                        : std::string(1, Text[R.below(sizeof(Text) - 1)]);
      }
      Out += '"';
      break;
    }
    default:
      break; // empty field
    }
  }
  Out += "\r\n";
}

struct Corpus {
  std::string Name;
  char Bad = '!';
  std::string Clean, Corrupt, Survivors;
  size_t Records = 0, Injected = 0;
  std::shared_ptr<FlapParser> P;
  std::unique_ptr<ShardParser> SP;
  RecoveredParse Ref; ///< the sequential recovery of Corrupt
  ShardedRecover ShardRef; ///< the unsplit record-level recovery
  Value SurvivorValue; ///< interpreter value of the uncorrupted records
  /// Where each uncorrupted record sits in Survivors, and the
  /// interpreter's value for it alone.
  std::vector<std::pair<size_t, size_t>> SurvivorSpans;
  std::vector<Value> RecordValues;
  const char *SpSeq = nullptr, *SpClean = nullptr;
};

class Records : public Runner {
public:
  void generate(const Options &O, Report &R) override {
    Cs.resize(2);
    Cs[0].Name = "json";
    Cs[0].Bad = '!'; // starts no json token outside a string
    Cs[1].Name = "csv";
    Cs[1].Bad = '\r'; // a lone CR before a digit matches no csv rule
    Rng G(O.Seed ^ 0x7265636f726473ull);
    for (Corpus &C : Cs) {
      while (C.Clean.size() < CorpusBytes) {
        std::string Rec;
        if (C.Name == "json")
          Rec = genJson(G, 1).Input; // exactly one NDJSON message
        else
          appendCsvRow(G, CsvCols, C.Records, Rec);
        C.Clean += Rec;
        if (G.below(100) == 0) {
          Rec[0] = C.Bad;
          ++C.Injected;
        } else {
          C.SurvivorSpans.emplace_back(C.Survivors.size(), Rec.size());
          C.Survivors += Rec;
        }
        C.Corrupt += Rec;
        ++C.Records;
      }
      R.hashInput(C.Clean);
      R.hashInput(C.Corrupt);
      C.SpSeq = Tracer::intern("engine.parseRecover/" + C.Name);
      C.SpClean = Tracer::intern("engine.parseRecover.clean/" + C.Name);
    }
  }

  double setup(bool Keep) override {
    std::vector<std::shared_ptr<FlapParser>> Ps;
    const double T0 = now();
    for (const Corpus &C : Cs) {
      Scope S("compileFlapRecords");
      auto P = compileFlapRecords(makeGrammar(C.Name));
      if (!P)
        fatal(P.error());
      Ps.push_back(std::make_shared<FlapParser>(P.take()));
    }
    const double Secs = now() - T0;
    for (size_t I = 0; Keep && I < Cs.size(); ++I) {
      Corpus &C = Cs[I];
      C.SP.reset(); // borrows the parser it replaces
      C.P = Ps[I];
      ShardOptions SO;
      SO.Threads = ShardWorkers;
      SO.Recover = recoverOpts();
      C.SP = std::make_unique<ShardParser>(C.P->M, recordEntry(*C.P), SO);
    }
    return Secs;
  }

  void gate(Report &R) override {
    for (Corpus &C : Cs) {
      Result<Value> Sv = oracleParse(*C.P, C.Survivors);
      R.check(Sv.ok(), C.Name + ": the interpreter rejects the survivors");
      if (!Sv)
        continue;
      C.SurvivorValue = *Sv;
      R.check(oracleParse(*C.P, C.Clean).ok(),
              C.Name + ": the interpreter rejects the clean corpus");
      // The interpreter from the record entry point, one record at a
      // time.
      const Oracle RecordOracle(*C.P, recordEntry(*C.P));
      C.RecordValues.clear();
      size_t Rejected = 0;
      for (const auto &[Off, Len] : C.SurvivorSpans) {
        Result<Value> V =
            RecordOracle(std::string_view(C.Survivors).substr(Off, Len));
        Rejected += !V;
        C.RecordValues.push_back(V ? *V : Value());
      }
      R.check(Rejected == 0, C.Name + ": the interpreter rejects " +
                                 std::to_string(Rejected) + " records");
      C.Ref = seq(C, C.Corrupt);
      R.check(recoveredOk(C, C.Ref),
              C.Name + ": parseRecover diagnostics/values != oracle (" +
                  std::to_string(C.Ref.Errors.size()) + " errors, " +
                  std::to_string(C.Injected) + " injected)");
      R.check(seq(C, C.Clean).clean(),
              C.Name + ": parseRecover not clean on the clean corpus");
      // The unsplit record run must give the interpreter's value for
      // each uncorrupted record; stitched output must then equal it.
      C.ShardRef = C.SP->parseRecoverAt(C.Corrupt, {});
      R.check(C.ShardRef.R.Values == C.RecordValues && shardOk(C, C.ShardRef),
              C.Name + ": record-level recovery != interpreter");
      R.check(shardOk(C, C.SP->parseRecover(C.Corrupt)),
              C.Name + ": sharded != unsplit");
    }
  }

  void counts(Report &R) override {
    size_t Shards = 0, Mispred = 0;
    for (Corpus &C : Cs) {
      R.count("recover.errors." + C.Name, C.Ref.Errors.size());
      R.layer("recover.errors." + C.Name,
              static_cast<double>(C.Ref.Errors.size()));
      R.count("records." + C.Name, C.Records);
      R.count("injected." + C.Name, C.Injected);
      ShardedRecover S = C.SP->parseRecover(C.Corrupt);
      R.count("shard.shards." + C.Name, S.Stats.Shards);
      R.count("shard.mispredicted." + C.Name, S.Stats.Mispredicted);
      Shards += S.Stats.Shards;
      Mispred += S.Stats.Mispredicted;
    }
    R.layer("shard.shards", static_cast<double>(Shards));
    R.layer("shard.mispredicted", static_cast<double>(Mispred));
    R.layer("shard.useful_frac",
            Shards ? 1.0 - static_cast<double>(Mispred) /
                               static_cast<double>(Shards)
                   : 0.0);
  }

  EndToEnd measure(double Seconds, Report &R) override {
    std::vector<std::vector<double>> Us(Cs.size());
    forSeconds(Seconds, 3, [&](size_t Round) {
      for (size_t K = 0; K < Cs.size(); ++K) {
        const size_t I = (Round + K) % Cs.size();
        Corpus &C = Cs[I];
        const double T0 = now();
        RecoveredParse Out = [&] {
          Scope S(C.SpSeq);
          return seq(C, C.Corrupt);
        }();
        Us[I].push_back((now() - T0) * 1e6);
        R.check(sameAsRef(C, Out), C.Name + ": timed parseRecover");
      }
    });
    std::vector<size_t> Bytes;
    for (const Corpus &C : Cs)
      Bytes.push_back(C.Corrupt.size());
    return summarize(Us, Bytes);
  }

  void layers(double Seconds, Report &R) override {
    stagePanel(R, {"json", "csv"}, /*Records=*/true, 3);

    enum Mode { Clean, Corrupt, Plan, Run, NumModes };
    std::vector<std::array<std::vector<double>, NumModes>> Us(Cs.size());
    forSeconds(Seconds, 3, [&](size_t Round) {
      for (size_t K = 0; K < Cs.size(); ++K) {
        const size_t I = (Round + K) % Cs.size();
        Corpus &C = Cs[I];
        double T0 = now();
        RecoveredParse Out = [&] {
          Scope S(C.SpClean);
          return seq(C, C.Clean);
        }();
        Us[I][Clean].push_back(now() - T0);
        R.check(Out.clean(), C.Name + ": clean parseRecover");
        T0 = now();
        Out = [&] {
          Scope S(C.SpSeq);
          return seq(C, C.Corrupt);
        }();
        Us[I][Corrupt].push_back(now() - T0);
        R.check(sameAsRef(C, Out), C.Name + ": parseRecover");
        T0 = now();
        std::vector<size_t> Splits = [&] {
          Scope S("shard.planSplits");
          return C.SP->planSplits(C.Corrupt, ShardWorkers);
        }();
        Us[I][Plan].push_back(now() - T0);
        T0 = now();
        ShardedRecover Sh = [&] {
          Scope S("shard.parseRecoverAt");
          return C.SP->parseRecoverAt(C.Corrupt, Splits);
        }();
        Us[I][Run].push_back(now() - T0);
        R.check(shardOk(C, Sh), C.Name + ": parseRecoverAt");
      }
    });
    double PlanMs = 0, RunMs = 0, SeqS = 0;
    for (size_t I = 0; I < Cs.size(); ++I) {
      const Corpus &C = Cs[I];
      const double CleanS = median(Us[I][Clean]);
      const double CorruptS = median(Us[I][Corrupt]);
      R.layer("recover.clean_mbps." + C.Name,
              static_cast<double>(C.Clean.size()) / CleanS / 1e6);
      if (!C.Ref.Errors.empty())
        R.layer("recover.resync_us_per_error." + C.Name,
                (CorruptS - CleanS) * 1e6 /
                    static_cast<double>(C.Ref.Errors.size()));
      PlanMs += median(Us[I][Plan]) * 1e3;
      RunMs += median(Us[I][Run]) * 1e3;
      SeqS += CorruptS;
    }
    R.layer("shard.plan_ms", PlanMs);
    R.layer("shard.run_ms", RunMs);
    R.layer("shard.speedup", SeqS * 1e3 / (PlanMs + RunMs));
  }

private:
  static RecoverOptions recoverOpts() {
    RecoverOptions O;
    O.MaxErrors = CorpusBytes; // never truncate: every error is reported
    return O;
  }

  RecoveredParse seq(Corpus &C, std::string_view In) {
    return C.P->parseRecover(In, Scratch, nullptr, recoverOpts());
  }

  /// Diagnostics equal the injected count and the segment values add up
  /// to the interpreter's value for the uncorrupted records.
  static bool recoveredOk(const Corpus &C, const RecoveredParse &Out) {
    if (Out.Truncated || Out.Errors.size() != C.Injected)
      return false;
    int64_t Sum = 0;
    for (const Value &V : Out.Values) {
      if (!V.isInt())
        return false;
      Sum += V.asInt();
    }
    return C.SurvivorValue.isInt() && Sum == C.SurvivorValue.asInt();
  }

  static bool sameAsRef(const Corpus &C, const RecoveredParse &Out) {
    return Out.Truncated == C.Ref.Truncated && Out.Errors == C.Ref.Errors &&
           Out.Values == C.Ref.Values;
  }

  /// One diagnostic per injected record, one value per clean record, and
  /// the same output as the unsplit run (itself checked against the
  /// interpreter's per-record values in the gate).
  static bool shardOk(const Corpus &C, const ShardedRecover &S) {
    return S.R.Errors.size() == C.Injected &&
           S.NumRecords == C.Records - C.Injected &&
           S.R.Errors == C.ShardRef.R.Errors &&
           S.R.Values == C.ShardRef.R.Values;
  }

  std::vector<Corpus> Cs;
  ParseScratch Scratch;
};

} // namespace

std::unique_ptr<Runner> perfbench::makeRecords() {
  return std::make_unique<Records>();
}
