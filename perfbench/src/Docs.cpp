//===- perfbench/src/Docs.cpp - The docs workload ------------------------===//
//
// Part of flap-cpp, a C++ reproduction of "flap: A Deterministic Parser
// with Fused Lexing" (PLDI 2023).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// docs: six seeded genWorkload corpora (json, sexp, arith, pgn, ppm,
/// csv), each parsed whole by one caller in a closed loop. Almost all
/// the time goes to the scan kernels, the residual stack machine and
/// value building; no queue, shard or artifact code is on the path.
///
/// An operation is one whole-document FlapParser::parse; mbps and the
/// latencies are summarize()d over the six grammars.
///
//===----------------------------------------------------------------------===//

#include "Bench.h"

#include "lexer/CompiledLexer.h"
#include "workloads/Workloads.h"

#include <array>

using namespace perfbench;

namespace {

/// Corpus bytes per grammar, sized so each whole-document parse takes a
/// similar time (~1.5 ms on the recording host) rather than holding a
/// similar number of bytes: arith is ~10x slower per byte than pgn.
size_t corpusBytes(const std::string &G) {
  if (G == "json")
    return 230000;
  if (G == "sexp")
    return 190000;
  if (G == "arith")
    return 30000;
  if (G == "pgn")
    return 390000;
  if (G == "ppm")
    return 110000;
  return 275000; // csv
}

/// splitmix64: derives independent per-corpus seeds from the run seed.
uint64_t mixSeed(uint64_t Seed, uint64_t Salt) {
  uint64_t Z = Seed + 0x9e3779b97f4a7c15ull * (Salt + 1);
  Z = (Z ^ (Z >> 30)) * 0xbf58476d1ce4e5b9ull;
  Z = (Z ^ (Z >> 27)) * 0x94d049bb133111ebull;
  return Z ^ (Z >> 31);
}

struct Doc {
  std::string Name;
  std::string Input;
  Value Expected;
  bool HasExpected = false;
  std::shared_ptr<FlapParser> P;
  Value Oracle;
  const char *SpParse = nullptr;
};

class Docs : public Runner {
public:
  void generate(const Options &O, Report &R) override {
    for (size_t I = 0; I < grammarNames().size(); ++I) {
      const std::string &G = grammarNames()[I];
      flap::Workload W = genWorkload(G, mixSeed(O.Seed, I), corpusBytes(G));
      R.hashInput(W.Input);
      Doc D;
      D.Name = G;
      D.Input = std::move(W.Input);
      D.Expected = W.Expected;
      D.HasExpected = W.HasExpected;
      D.SpParse = Tracer::intern("engine.parse/" + G);
      Ds.push_back(std::move(D));
    }
  }

  double setup(bool Keep) override {
    std::vector<std::shared_ptr<FlapParser>> Ps;
    const double T0 = now();
    for (const Doc &D : Ds) {
      Scope S("compileFlap");
      auto P = compileFlap(makeGrammar(D.Name));
      if (!P)
        fatal(P.error());
      Ps.push_back(std::make_shared<FlapParser>(P.take()));
    }
    const double Secs = now() - T0;
    for (size_t I = 0; Keep && I < Ds.size(); ++I)
      Ds[I].P = Ps[I];
    return Secs;
  }

  void gate(Report &R) override {
    for (Doc &D : Ds) {
      Result<Value> Ref = oracleParse(*D.P, D.Input);
      R.check(Ref.ok(), D.Name + ": the interpreter rejects the corpus");
      if (!Ref)
        continue;
      D.Oracle = *Ref;
      if (D.HasExpected)
        R.check(D.Oracle == D.Expected,
                D.Name + ": interpreter value != generator's expected value");
      R.check(parseOk(D), D.Name + ": parse != interpreter");
      ParseScratch Sc;
      R.check(D.P->M.recognize(D.Input, Sc), D.Name + ": recognize rejects");
      for (size_t Chunk : {size_t(4096), size_t(64)}) {
        size_t Hw = 0;
        R.check(streamOk(D, Chunk, Hw), D.Name + ": stream(" +
                                            std::to_string(Chunk) +
                                            ") != interpreter");
      }
      std::vector<ParseEvent> Ev;
      R.check(D.P->parseEvents(D.Input, Ev).ok(),
              D.Name + ": parseEvents rejects");
    }
  }

  void counts(Report &R) override {
    for (Doc &D : Ds) {
      std::vector<ParseEvent> Ev;
      if (!D.P->parseEvents(D.Input, Ev).ok())
        fatal(D.Name + ": parseEvents rejects");
      uint64_t Toks = 0, Reds = 0;
      for (const ParseEvent &E : Ev) {
        Toks += E.Kind == EventKind::Token;
        Reds += E.Kind == EventKind::Reduce;
      }
      // Dead-token elision drops value-free tokens from the event
      // stream, so the lexeme count comes from the standalone lexer.
      auto Lexemes = CompiledLexer(*D.P->Def->Re, D.P->Canon).lexAll(D.Input);
      if (!Lexemes)
        fatal(D.Name + ": lexAll rejects");
      const uint64_t Lx = Lexemes->size();
      size_t Hw = 0;
      streamOk(D, 4096, Hw);
      R.count("engine.tokens." + D.Name, Toks);
      R.count("engine.lexemes." + D.Name, Lx);
      R.layer("engine.lexemes." + D.Name, static_cast<double>(Lx));
      R.count("engine.reductions." + D.Name, Reds);
      R.count("engine.carry_hw." + D.Name, Hw);
      R.layer("engine.tokens." + D.Name, static_cast<double>(Toks));
      R.layer("engine.reductions." + D.Name, static_cast<double>(Reds));
      R.layer("engine.carry_hw." + D.Name, static_cast<double>(Hw));
      LexemeCount[D.Name] = Lx;
    }
  }

  EndToEnd measure(double Seconds, Report &R) override {
    std::vector<std::vector<double>> Us(Ds.size());
    // Rotating grammar order per round, so slow drift of the host
    // spreads evenly over the grammars.
    forSeconds(Seconds, 3, [&](size_t Round) {
      for (size_t K = 0; K < Ds.size(); ++K) {
        const size_t I = (Round + K) % Ds.size();
        Doc &D = Ds[I];
        std::shared_ptr<void> Ctx = newCtx(*D.P->Def);
        const double T0 = now();
        Result<Value> V = [&] {
          Scope S(D.SpParse);
          return D.P->parse(D.Input, Ctx.get());
        }();
        Us[I].push_back((now() - T0) * 1e6);
        R.check(V.ok() && *V == D.Oracle, D.Name + ": timed parse");
      }
    });
    std::vector<size_t> Bytes;
    for (const Doc &D : Ds)
      Bytes.push_back(D.Input.size());
    return summarize(Us, Bytes);
  }

  void layers(double Seconds, Report &R) override {
    stagePanel(R, grammarNames(), /*Records=*/false, 3);

    enum Mode { Recog, Parse, Events, Stream4K, Stream64, LexAll, NumModes };
    static const char *const ModeName[NumModes] = {
        "engine.recognize", "engine.parse",    "engine.events",
        "engine.stream",    "engine.stream64", "lexer.lexall"};
    std::vector<std::unique_ptr<CompiledLexer>> Lexers;
    std::vector<std::array<const char *, NumModes>> Span(Ds.size());
    for (size_t I = 0; I < Ds.size(); ++I) {
      Lexers.push_back(std::make_unique<CompiledLexer>(*Ds[I].P->Def->Re,
                                                       Ds[I].P->Canon));
      for (int M = 0; M < NumModes; ++M)
        Span[I][M] = Tracer::intern(std::string(ModeName[M]) + "/" +
                                    Ds[I].Name);
    }
    std::vector<std::array<std::vector<double>, NumModes>> Us(Ds.size());
    ParseScratch Scratch;
    std::vector<ParseEvent> Ev;
    forSeconds(Seconds, 3, [&](size_t Round) {
      for (size_t K = 0; K < Ds.size(); ++K) {
        const size_t I = (Round + K) % Ds.size();
        Doc &D = Ds[I];
        for (int M = 0; M < NumModes; ++M) {
          std::shared_ptr<void> Ctx = newCtx(*D.P->Def);
          bool Ok = false;
          size_t Hw = 0;
          Ev.clear();
          const double T0 = now();
          {
            Scope S(Span[I][M]);
            switch (M) {
            case Recog:
              Ok = D.P->M.recognize(D.Input, Scratch);
              break;
            case Parse: {
              Result<Value> V = D.P->parse(D.Input, Ctx.get());
              Ok = V.ok() && *V == D.Oracle;
              break;
            }
            case Events:
              Ok = D.P->parseEvents(D.Input, Ev).ok();
              break;
            case Stream4K:
              Ok = streamOk(D, 4096, Hw);
              break;
            case Stream64:
              Ok = streamOk(D, 64, Hw);
              break;
            case LexAll:
              Ok = Lexers[I]->lexAll(D.Input).ok();
              break;
            }
          }
          Us[I][M].push_back((now() - T0) * 1e6);
          R.check(Ok, D.Name + ": " + ModeName[M]);
        }
      }
    });
    for (size_t I = 0; I < Ds.size(); ++I) {
      const std::string &G = Ds[I].Name;
      const double Bytes = static_cast<double>(Ds[I].Input.size());
      auto Mbps = [&](int M) { return Bytes / median(Us[I][M]); };
      R.layer("engine.recognize_mbps." + G, Mbps(Recog));
      R.layer("engine.parse_mbps." + G, Mbps(Parse));
      R.layer("engine.events_mbps." + G, Mbps(Events));
      R.layer("engine.value_share." + G,
              1.0 - median(Us[I][Recog]) / median(Us[I][Parse]));
      R.layer("engine.stream_mbps." + G, Mbps(Stream4K));
      R.layer("engine.stream64_mbps." + G, Mbps(Stream64));
      R.layer("lexer.lexall_mbps." + G, Mbps(LexAll));
      if (uint64_t Lx = LexemeCount[G])
        R.layer("engine.ns_per_token." + G,
                median(Us[I][Parse]) * 1e3 / static_cast<double>(Lx));
    }
  }

private:
  bool parseOk(Doc &D) {
    std::shared_ptr<void> Ctx = newCtx(*D.P->Def);
    Result<Value> V = D.P->parse(D.Input, Ctx.get());
    return V.ok() && *V == D.Oracle;
  }

  /// Streams \p D in \p Chunk-byte pieces, then finish and take; true
  /// when the value equals the interpreter's.
  bool streamOk(Doc &D, size_t Chunk, size_t &CarryHw) {
    std::shared_ptr<void> Ctx = newCtx(*D.P->Def);
    StreamParser S = D.P->stream(Ctx.get());
    const std::string_view In = D.Input;
    for (size_t Off = 0; Off < In.size(); Off += Chunk)
      if (S.feed(In.substr(Off, Chunk)) == StreamStatus::Error)
        return false;
    if (S.finish() != StreamStatus::Done)
      return false;
    CarryHw = S.carryHighWater();
    Result<Value> V = S.take();
    return V.ok() && *V == D.Oracle;
  }

  std::vector<Doc> Ds;
  std::map<std::string, uint64_t> LexemeCount;
};

} // namespace

std::unique_ptr<Runner> perfbench::makeDocs() {
  return std::make_unique<Docs>();
}
