//===- tests/ActionDispatchTest.cpp - Tagged dispatch vs the interpreter ------===//
//
// Part of flap-cpp, a C++ reproduction of "flap: A Deterministic Parser
// with Fused Lexing" (PLDI 2023).
//
//===----------------------------------------------------------------------===//
///
/// Differential suite for the devirtualized semantic-action path. The
/// tagged micro-op dispatch (plus dead-token elision, pre-fused ε-chains
/// and the arena value pool) must be observationally identical to the
/// Fig. 9 interpreter (parseFusedInterp: the unrewritten symbol stream
/// through ValueStack::apply, with heap values):
///
///   - whole buffer: CompiledParser::parse (tagged, elided, pooled) vs
///     the interpreter — the same verdict, structurally equal Value
///     trees and the same failure offset;
///   - streaming: StreamParser vs the interpreter and vs the whole-buffer
///     error string, across split points (the StreamDiffTest driver
///     shape), whole-buffer and chunked.
///
//===----------------------------------------------------------------------===//

#include "FailSite.h"
#include "engine/FusedInterp.h"
#include "engine/Pipeline.h"
#include "engine/Serve.h"
#include "engine/Stream.h"
#include "grammars/Grammars.h"
#include "support/Rng.h"
#include "workloads/Workloads.h"

#include <gtest/gtest.h>

#include <thread>

using namespace flap;

namespace {

struct DispatchRig {
  std::shared_ptr<GrammarDef> Def;
  FlapParser P;

  explicit DispatchRig(std::shared_ptr<GrammarDef> D) : Def(std::move(D)) {
    auto R = compileFlap(Def);
    if (!R.ok()) {
      ADD_FAILURE() << "compile failed: " << R.error();
      return;
    }
    P = R.take();
  }

  void *fresh(std::shared_ptr<void> &C) {
    if (Def->NewCtx)
      C = Def->NewCtx();
    return C.get();
  }

  /// The oracle's result on \p In: the Fig. 9 interpreter.
  Result<Value> interp(std::string_view In) {
    std::shared_ptr<void> C;
    return parseFusedInterp(*Def->Re, P.F, Def->L->Actions, In, fresh(C));
  }

  /// Streams \p In cut at \p Cuts.
  Result<Value> streamParse(std::string_view In,
                            const std::vector<size_t> &Cuts) {
    std::shared_ptr<void> C;
    StreamOptions O;
    O.User = fresh(C);
    StreamParser SP(P.M, O);
    size_t Prev = 0;
    for (size_t Cut : Cuts) {
      SP.feed(In.substr(Prev, Cut - Prev));
      Prev = Cut;
    }
    SP.feed(In.substr(Prev));
    SP.finish();
    return SP.take();
  }

  /// Tagged whole-buffer and streamed (cut at \p Cuts) parses against
  /// the interpreter's result \p Spec on the same input: same verdict,
  /// structurally equal values, the interpreter's failure site, and one
  /// error string for whole-buffer and streamed.
  void checkAll(std::string_view In, const Result<Value> &Spec,
                const std::vector<size_t> &Cuts) {
    std::shared_ptr<void> C;
    ParseScratch Scratch;
    Result<Value> Tagged = P.M.parse(In, Scratch, fresh(C));
    ASSERT_EQ(Tagged.ok(), Spec.ok())
        << Def->Name << ": tagged vs interpreter verdict on '" << In << "'";
    if (Tagged.ok())
      EXPECT_EQ(*Tagged, *Spec) << Def->Name << " value drift on '" << In
                                << "'";
    else
      EXPECT_EQ(failSite(Tagged.error()), failSite(Spec.error()))
          << Def->Name << ": '" << Tagged.error() << "' vs '"
          << Spec.error() << "'";

    Result<Value> Streamed = streamParse(In, Cuts);
    ASSERT_EQ(Streamed.ok(), Spec.ok()) << Def->Name << " (streamed)";
    if (Streamed.ok())
      EXPECT_EQ(*Streamed, *Spec) << Def->Name << " streamed value";
    else
      EXPECT_EQ(Streamed.error(), Tagged.error()) << Def->Name;
  }
};

TEST(ActionDispatchTest, WholeBufferAndChunkedOnAllGrammars) {
  Rng Rand(2027);
  for (auto &Def : allBenchmarkGrammars()) {
    DispatchRig R(Def);
    for (uint64_t Seed : {5u, 19u}) {
      Workload W = genWorkload(Def->Name, Seed, 2500 + Seed * 500);
      const Result<Value> Spec = R.interp(W.Input);
      // Whole buffer, plus random multi-way chunkings.
      R.checkAll(W.Input, Spec, {});
      for (int Round = 0; Round < 4; ++Round) {
        std::vector<size_t> Cuts;
        size_t At = 0;
        while (At < W.Input.size()) {
          At += 1 + Rand.below(Rand.chance(1, 3) ? 7 : 301);
          if (At < W.Input.size())
            Cuts.push_back(At);
        }
        R.checkAll(W.Input, Spec, Cuts);
      }
    }
  }
}

TEST(ActionDispatchTest, EveryTwoWaySplitOnSmallInputs) {
  // The exhaustive split sweep of the StreamDiffTest driver, applied to
  // the tagged-vs-interpreter comparison.
  for (auto &Def : allBenchmarkGrammars()) {
    DispatchRig R(Def);
    Workload W = genWorkload(Def->Name, 23, 220);
    const Result<Value> Spec = R.interp(W.Input);
    for (size_t Cut = 0; Cut <= W.Input.size(); ++Cut)
      R.checkAll(W.Input, Spec, {Cut});
  }
}

TEST(ActionDispatchTest, ErrorStringsIdenticalOnCorruptedInputs) {
  Rng Rand(11);
  for (auto &Def : allBenchmarkGrammars()) {
    DispatchRig R(Def);
    Workload W = genWorkload(Def->Name, 29, 280);
    for (int Round = 0; Round < 10; ++Round) {
      std::string In = W.Input;
      size_t At = Rand.below(In.size());
      switch (Rand.below(3)) {
      case 0:
        In[At] = static_cast<char>(1 + Rand.below(127));
        break;
      case 1:
        In.erase(At, 1 + Rand.below(3));
        break;
      default:
        In.insert(At, 1 + Rand.below(2), "(){}[]\"!,;"[Rand.below(10)]);
        break;
      }
      const Result<Value> Spec = R.interp(In);
      for (size_t Cut = 0; Cut <= In.size(); Cut += 5)
        R.checkAll(In, Spec, {Cut});
    }
  }
}

TEST(ActionDispatchTest, TokenIntAndMaxAccumAgreeWithReferences) {
  // The TokenInt and MaxAccum micro-op kinds (the devirtualized ppm
  // per-sample path) against the interpreter, whole-buffer and streamed
  // at every 2-way split: the packed count+max fold must come out
  // bit-identical everywhere.
  auto Def = std::make_shared<GrammarDef>("stats");
  Lang &L = *Def->L;
  TokenId Num = Def->Lexer->rule("[0-9]+", "num");
  Def->Lexer->skip("[ \\n]");
  Def->Root = L.foldMaxAccum(L.mapTokenInt(L.tok(Num)));
  DispatchRig R(Def);
  for (const std::string In :
       {"", "7", "0", "1 2 3", "9 8 7 6 5", "40 2 40", "007 3",
        "4294967 1 4294967"}) {
    const Result<Value> Spec = R.interp(In);
    R.checkAll(In, Spec, {});
    for (size_t Cut = 0; Cut <= In.size(); ++Cut)
      R.checkAll(In, Spec, {Cut});
  }
  // Unpack semantics: count in the low 32 bits, max in the high 32.
  Result<Value> V = R.P.M.parse("3 1 4 1 5");
  ASSERT_TRUE(V.ok()) << V.error();
  EXPECT_EQ(maxAccumCount(V->asInt()), 5);
  EXPECT_EQ(maxAccumMax(V->asInt()), 5);
  // Samples past the 32-bit pack saturate to 2^32-1 — still above any
  // 32-bit bound, so out-of-range detection survives — and must never
  // corrupt the count half (the shift would otherwise be signed-
  // overflow UB).
  Result<Value> Big = R.P.M.parse("42 4294967296 99999999999 7");
  ASSERT_TRUE(Big.ok()) << Big.error();
  EXPECT_EQ(maxAccumCount(Big->asInt()), 4);
  EXPECT_EQ(maxAccumMax(Big->asInt()), 4294967295LL);
  // ppm: an oversized sample must still fail the color-range check.
  {
    auto PpmDef = makePpmGrammar();
    auto PpmP = compileFlap(PpmDef);
    ASSERT_TRUE(PpmP.ok());
    Result<Value> Bad = PpmP->M.parse("P3\n1 1\n255\n0 4294967296 2\n");
    ASSERT_TRUE(Bad.ok());
    EXPECT_FALSE(Bad->asBool());
  }
  Result<Value> E = R.P.M.parse("");
  ASSERT_TRUE(E.ok());
  EXPECT_EQ(E->asInt(), 0);
  // The ppm grammar rides these kinds: its hot actions must all be
  // micro-ops now (only the cold root check stays custom).
  auto Ppm = makePpmGrammar();
  auto PP = compileFlap(Ppm);
  ASSERT_TRUE(PP.ok());
  int Slow = 0;
  for (size_t A = 0; A < Ppm->L->Actions.size(); ++A)
    Slow += Ppm->L->Actions.micro()[A].K == MicroOp::MSlow;
  EXPECT_EQ(Slow, 1) << "ppm should keep exactly the root check custom";
}

TEST(ActionDispatchTest, PooledValuesEscapeTheirScratch) {
  // Arena-backed values must stay valid after the scratch (and its
  // pool handle) is gone: the nodes pin the pool pages. arith builds
  // genuine pair structure mid-parse; json/sexp return scalars — both
  // paths covered.
  for (const char *Name : {"arith", "json"}) {
    std::shared_ptr<GrammarDef> Def;
    for (auto &G : allBenchmarkGrammars())
      if (G->Name == Name)
        Def = G;
    DispatchRig R(Def);
    Workload W = genWorkload(Name, 31, 1500);
    Result<Value> Ref = R.interp(W.Input);
    ASSERT_TRUE(Ref.ok()) << Ref.error();
    Value Escaped;
    {
      auto Scratch = std::make_unique<ParseScratch>();
      Result<Value> V = R.P.M.parse(W.Input, *Scratch);
      ASSERT_TRUE(V.ok()) << V.error();
      Escaped = V.take();
      // Reuse the scratch (recycles dead nodes), then destroy it.
      Result<Value> V2 = R.P.M.parse(W.Input, *Scratch);
      ASSERT_TRUE(V2.ok());
    }
    EXPECT_EQ(Escaped, *Ref) << Name;
  }
}

static_assert(sizeof(Value) == 16, "Value moves as one 16-byte copy");

/// chain := ε | 'a' chain, valued by the tagged Pair action: a
/// right-nested pooled pair chain (a . (a . ... ())) as deep as the input
/// is long.
std::shared_ptr<GrammarDef> makeChainGrammar() {
  auto Def = std::make_shared<GrammarDef>("chain");
  TokenId A = Def->Lexer->rule("a", "a");
  Lang &L = *Def->L;
  Def->Root = L.fix([&](Px Self) {
    return L.alt(L.eps(Value::unit(), "nil"), L.pairUp(L.tok(A), Self));
  });
  return Def;
}

/// The heap-built twin of a chain grammar parse of \p Len bytes.
Value heapChain(size_t Len) {
  Value V = Value::unit();
  for (size_t I = Len; I-- > 0;)
    V = Value::pair(Value::token(0, static_cast<uint32_t>(I),
                                 static_cast<uint32_t>(I + 1)),
                    std::move(V));
  return V;
}

size_t chainDepth(const Value &V) {
  size_t N = 0;
  for (const Value *Cur = &V; Cur->isPair(); Cur = &Cur->asPair().second)
    ++N;
  return N;
}

TEST(ActionDispatchTest, DeepValuesTearDownWithoutRecursion) {
  // Dropping, comparing and printing a depth-10^6 structure must not
  // recurse per level (the stack would overflow), and dropping it must
  // not allocate. Built by a grammar action into the parse's pool, and
  // by hand on the heap as nested pairs and lists. EXPECT_TRUE, not
  // EXPECT_EQ: a failure must not try to print the values.
  constexpr size_t Depth = 1000000;
  DispatchRig R(makeChainGrammar());
  {
    Result<Value> V = R.P.M.parse(std::string(Depth, 'a'));
    ASSERT_TRUE(V.ok()) << V.error();
    EXPECT_EQ(chainDepth(*V), Depth);
    const Value Twin = heapChain(Depth);
    EXPECT_TRUE(*V == Twin);
    EXPECT_FALSE(*V == heapChain(Depth - 1));
    const std::string S = V->str();
    EXPECT_EQ(S.compare(0, 30, "([tok:0@0-1] . ([tok:0@1-2] . "), 0);
    const std::string Tail =
        "[tok:0@999999-1000000] . ()" + std::string(Depth, ')');
    ASSERT_GE(S.size(), Tail.size());
    EXPECT_EQ(S.compare(S.size() - Tail.size(), Tail.size(), Tail), 0);
    EXPECT_TRUE(S == Twin.str());
  }
  Value Heap = Value::unit();
  for (size_t I = 0; I < Depth; ++I)
    Heap = I % 2 ? Value::pair(Value::string("s"), std::move(Heap))
                 : Value::list({Value::integer(1), std::move(Heap)});
  {
    const Value Copy = Heap;
    EXPECT_TRUE(Copy == Heap);
    const std::string S = Heap.str();
    EXPECT_EQ(S.compare(0, 20, "(\"s\" . [1 (\"s\" . [1 "), 0);
    std::string Tail = "[1 ()]";
    for (size_t I = 1; I < Depth; ++I)
      Tail += I % 2 ? ')' : ']';
    ASSERT_GE(S.size(), Tail.size());
    EXPECT_EQ(S.compare(S.size() - Tail.size(), Tail.size(), Tail), 0);
  }
  Heap = Value();
  EXPECT_TRUE(Heap.isUnit());
}

TEST(ActionDispatchTest, PooledValuesOutliveTheirStreamParser) {
  // A value taken from a StreamParser keeps the parser's pool alive
  // after the parser is gone (the live-node pin).
  DispatchRig R(makeChainGrammar());
  const std::string In(5000, 'a');
  Value Escaped;
  {
    StreamParser SP(R.P.M);
    for (size_t At = 0; At < In.size(); At += 64)
      SP.feed(std::string_view(In).substr(At, 64));
    ASSERT_EQ(SP.finish(), StreamStatus::Done);
    Result<Value> V = SP.take();
    ASSERT_TRUE(V.ok()) << V.error();
    Escaped = V.take();
  }
  EXPECT_EQ(Escaped, heapChain(In.size()));
  // And from a ParseScratch: the pool outlives its last handle while a
  // node is alive, and the live count is exact.
  ValuePool *Raw = nullptr;
  {
    ParseScratch Scratch;
    Raw = Scratch.Pool.get();
    Result<Value> V = R.P.M.parse(In, Scratch);
    ASSERT_TRUE(V.ok()) << V.error();
    Escaped = V.take();
  }
  EXPECT_EQ(Raw->liveNodes(), In.size());
  EXPECT_EQ(Escaped, heapChain(In.size()));
  Escaped = Value(); // the last node: frees the pool
}

TEST(ActionDispatchTest, PoolBankRecyclesOnlyPoolsWithNoLiveNode) {
  PoolBank Bank;
  ValuePoolRef P = Bank.acquire();
  ValuePool *Pinned = P.get();
  Value Escaped = Value::pair(P, Value::integer(1), Value::integer(2));
  Bank.give(std::move(P));
  ValuePoolRef Q = Bank.acquire();
  EXPECT_NE(Q.get(), Pinned) << "a pool with a live node was recycled";
  EXPECT_EQ(Escaped.asPair().second.asInt(), 2);
  Escaped = Value();

  ValuePool *Idle = Q.get();
  { Value Dead = Value::list(Q, {Value::integer(3)}); }
  EXPECT_EQ(Idle->liveNodes(), 0u);
  Bank.give(std::move(Q));
  EXPECT_EQ(Bank.acquire().get(), Idle) << "an idle pool was not recycled";
}

TEST(ActionDispatchTest, ListAppendMutatesOnlyUniqueLists) {
  ValuePoolRef Pool = ValuePool::create();
  for (ValuePool *P : {Pool.get(), static_cast<ValuePool *>(nullptr)}) {
    Value L = Value::list(P, {Value::integer(0)});
    const ValueList *Node = &L.asList();
    L = Value::listAppend(P, std::move(L), Value::integer(1));
    EXPECT_EQ(&L.asList(), Node) << "a unique list was copied";
    L = Value::listReversed(P, std::move(L));
    EXPECT_EQ(&L.asList(), Node);
    EXPECT_EQ(L.asList()[0].asInt(), 1);

    Value Shared = L;
    Value L2 = Value::listAppend(P, L, Value::integer(2));
    EXPECT_NE(&L2.asList(), Node) << "a shared list was mutated";
    EXPECT_EQ(L.asList().size(), 2u);
    EXPECT_EQ(L2.asList().size(), 3u);
    EXPECT_EQ(Shared, L);
  }
}

TEST(ActionDispatchTest, PooledAndHeapValuesCompareEqual) {
  ValuePoolRef Pool = ValuePool::create();
  auto Build = [](ValuePool *P) {
    return Value::list(
        P, {Value::pair(P, Value::token(3, 1, 4), Value::string("x")),
            Value::pair(P, Value::real(0.5), Value::boolean(true)),
            Value::list(P, {Value::integer(-7), Value::unit()})});
  };
  Value Pooled = Build(Pool), Heap = Build(nullptr);
  EXPECT_EQ(Pooled, Heap);
  EXPECT_EQ(Pooled.str(), Heap.str());
  EXPECT_EQ(Pooled.asList()[0].asPair().first.asToken(), (Lexeme{3, 1, 4}));
  EXPECT_NE(Pooled, Build(nullptr).asList()[0]);
}

TEST(ActionDispatchTest, ServeReplyIsConsumedAndCopiedOnAnotherThread) {
  // The reply's pooled values cross to the consumer thread over the
  // future, are copied there (plain counts), and die there in either
  // order relative to the reply. The tsan preset checks the handoffs.
  DispatchRig R(makeChainGrammar());
  ServeOptions O;
  O.Threads = 2;
  ParseService S(R.P.M, R.P.M.Start, O);
  const std::string In(300, 'a');
  const Value Expect = heapChain(In.size());
  for (int Round = 0; Round < 8; ++Round) {
    std::future<ServeReply> F = S.submit({In, In});
    std::thread Consumer([&, Round] {
      Value Copy;
      {
        ServeReply Rep = F.get();
        ASSERT_EQ(Rep.Results.size(), 2u);
        ASSERT_TRUE(Rep.Results[1].ok());
        Copy = *Rep.Results[1];
        Value Second = Copy;
        EXPECT_EQ(Second, Expect);
        if (Round % 2)
          Copy = Value(); // dies before the reply: the pool recycles
      }
      if (!Copy.isUnit()) {
        EXPECT_EQ(Copy, Expect); // outlived the reply
      }
    });
    Consumer.join();
  }
}

TEST(ActionDispatchTest, ReadsInputFlagsMatchTheGrammars) {
  // json/sexp/csv never read lexeme text → the streaming parser may
  // drop retain tracking wholesale; pgn/ppm/arith do read.
  for (auto &Def : allBenchmarkGrammars()) {
    auto P = compileFlap(Def);
    ASSERT_TRUE(P.ok());
    bool Reads = Def->L->Actions.readsInput();
    bool Expect = Def->Name == "pgn" || Def->Name == "ppm" ||
                  Def->Name == "arith";
    EXPECT_EQ(Reads, Expect) << Def->Name;
  }
}

TEST(ActionDispatchTest, CarryStaysLexemeSizedWithTrackingOff) {
  // With no input-reading actions, the streaming carry is just the
  // suspended lexeme — not the document (ROADMAP follow-up (a)).
  DispatchRig R(makeJsonGrammar());
  ASSERT_FALSE(R.Def->L->Actions.readsInput());
  Workload W = genWorkload("json", 37, 64 * 1024);
  StreamParser SP(R.P.M);
  std::string_view In = W.Input;
  for (size_t At = 0; At < In.size(); At += 997)
    SP.feed(In.substr(At, 997));
  ASSERT_EQ(SP.finish(), StreamStatus::Done) << SP.take().error();
  EXPECT_LT(SP.carryHighWater(), 2048u)
      << "carry should be lexeme-sized, not document-sized";
}

} // namespace
