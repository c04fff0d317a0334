//===- cfe/Value.h - Semantic values ----------------------------*- C++ -*-===//
//
// Part of flap-cpp, a C++ reproduction of "flap: A Deterministic Parser
// with Fused Lexing" (PLDI 2023).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Runtime semantic values produced by parser actions. flap (§5.5)
/// "supports semantic actions — i.e. constructing and returning ASTs or
/// other values when parsing succeeds". All engines in this repository
/// evaluate actions over this Value type so differential tests can compare
/// full results, not just accept/reject.
///
/// A Value is 16 bytes: a tag, a token id and an 8-byte payload. Scalars
/// (unit, bool, int, double, token spans) are unboxed; strings, pairs and
/// lists point at an immutable *intrusive node*: a 16-byte header
/// {reference count, owning ValuePool*} followed by the payload. Moving a
/// Value is a plain 16-byte copy, so value stacks grow with realloc.
///
/// Heap nodes (pool == null; e.g. grammar constants shared by concurrent
/// parses) count references atomically. Pooled nodes come from a
/// ValuePool — a freelist arena owned by the per-parse scratch — and,
/// under the pool's single-owner rule, count with plain integers. A pool
/// stays alive while any handle (ValuePoolRef) or any live node of it
/// exists, so a value escaping its parse (StreamParser::take(), a result
/// outliving its ParseScratch) keeps its pool's pages alive. Pooled and
/// heap values are indistinguishable through the API (same structural
/// equality). See engine/README.md "Arena-pooled values".
///
//===----------------------------------------------------------------------===//

#ifndef FLAP_CFE_VALUE_H
#define FLAP_CFE_VALUE_H

#include "lexer/Token.h"

#include <atomic>
#include <cassert>
#include <cstddef>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#ifndef NDEBUG
#include <thread>
#endif

namespace flap {

class Value;
class ValuePoolRef;
using ValuePair = std::pair<Value, Value>;
using ValueList = std::vector<Value>;

/// A freelist arena of fixed-size slots for pair/list nodes. One pool per
/// parse scratch; nodes recycle through the freelist as values die, so a
/// scratch reused across parses amortizes to zero allocation. Always
/// heap-allocated through create() and held by ValuePoolRef handles; the
/// pool deletes itself once no handle and no live node is left (the live
/// nodes together hold one handle, taken when the first is allocated and
/// dropped when the last dies — the *live-node pin*).
///
/// Not thread-safe. The ownership rule is *single owner at a time*: at
/// any moment exactly one thread may allocate from the pool, copy a value
/// built from it, or destroy such a value (pooled nodes count references
/// with plain integers and die into the pool's freelist). Ownership may
/// move between threads, but only across a synchronization point (a
/// joined task, a mutex-guarded handoff — see engine/Serve.h's pool bank
/// and engine/Shard.h's per-worker arenas), and the new owner announces
/// itself with adoptOwner(). Assert-enabled builds (every preset here)
/// check the rule on allocate/deallocate: a thread that neither adopted
/// the pool nor created it aborts rather than racing the freelist.
class ValuePool {
public:
  /// Slot size: the largest pooled node (header + ValuePair).
  static constexpr size_t SlotBytes = 48;

  ValuePool(const ValuePool &) = delete;
  ValuePool &operator=(const ValuePool &) = delete;

  static ValuePoolRef create();

  /// Declares the calling thread the pool's owner. Call at a transfer
  /// point, after the previous owner's accesses have been synchronized
  /// with (task join, mutex handoff). No-op in NDEBUG builds.
  void adoptOwner() noexcept {
#ifndef NDEBUG
    Owner.store(std::this_thread::get_id(), std::memory_order_relaxed);
#endif
  }

  /// Releases ownership without naming a successor: the next thread to
  /// touch the pool claims it (the serving reply handoff, where the
  /// consumer thread is unknown at hand-off time). No-op in NDEBUG.
  void disownOwner() noexcept {
#ifndef NDEBUG
    Owner.store(std::thread::id(), std::memory_order_relaxed);
#endif
  }

  /// One SlotBytes slot. The caller must hold a handle (or a live node).
  void *allocate() {
    checkOwner();
    void *P;
    if (Free) {
      P = Free;
      Free = Free->Next;
    } else {
      if (Left < SlotBytes) {
        Pages.push_back(std::make_unique<char[]>(PageBytes));
        Cur = Pages.back().get();
        Left = PageBytes;
      }
      P = Cur;
      Cur += SlotBytes;
      Left -= SlotBytes;
    }
    if (Live++ == 0)
      retain(); // the live-node pin
    return P;
  }

  /// Returns a slot. May delete the pool (the last node of a pool with no
  /// handle left), so it is the caller's last touch of it.
  void deallocate(void *P) noexcept {
    checkOwner();
    FreeNode *N = static_cast<FreeNode *>(P);
    N->Next = Free;
    Free = N;
    if (--Live == 0)
      release();
  }

  size_t pageCount() const { return Pages.size(); }
  /// Nodes allocated and not yet returned (owner thread only).
  size_t liveNodes() const { return Live; }

private:
  friend class ValuePoolRef;
  ValuePool() = default;

  void retain() noexcept { Handles.fetch_add(1, std::memory_order_relaxed); }
  void release() noexcept {
    if (Handles.fetch_sub(1, std::memory_order_acq_rel) == 1)
      delete this;
  }

  /// The owner-affinity assert: the caller must be the owning thread.
  /// An unowned pool (disownOwner) is claimed by the first toucher — a
  /// debug-only CAS, so two threads racing to claim still abort.
  void checkOwner() noexcept {
#ifndef NDEBUG
    const std::thread::id Self = std::this_thread::get_id();
    std::thread::id Cur = Owner.load(std::memory_order_relaxed);
    if (Cur == Self)
      return;
    if (Cur == std::thread::id() &&
        Owner.compare_exchange_strong(Cur, Self, std::memory_order_relaxed))
      return;
    assert(false && "ValuePool touched off its owning thread: values "
                    "built from a pool must be copied and destroyed on "
                    "the thread that owns it (adoptOwner at transfer "
                    "points)");
#endif
  }

  struct FreeNode {
    FreeNode *Next;
  };

  static constexpr size_t PageBytes = 16 * 1024;
  std::atomic<size_t> Handles{0}; ///< ValuePoolRefs + the live-node pin
  size_t Live = 0;                ///< live nodes (owner thread only)
  FreeNode *Free = nullptr;
  std::vector<std::unique_ptr<char[]>> Pages;
  char *Cur = nullptr;
  size_t Left = 0;
#ifndef NDEBUG
  std::atomic<std::thread::id> Owner{std::this_thread::get_id()};
#endif
};

/// Owning handle to a pool (atomic count; copied once per scratch or
/// reply, never per node). Converts to the borrowed ValuePool* that
/// ParseContext and the pool-backed constructors take.
class ValuePoolRef {
public:
  ValuePoolRef() = default;
  ValuePoolRef(const ValuePoolRef &O) : P(O.P) {
    if (P)
      P->retain();
  }
  ValuePoolRef(ValuePoolRef &&O) noexcept : P(O.P) { O.P = nullptr; }
  ValuePoolRef &operator=(ValuePoolRef O) noexcept {
    std::swap(P, O.P);
    return *this;
  }
  ~ValuePoolRef() { reset(); }

  void reset() noexcept {
    if (P)
      std::exchange(P, nullptr)->release();
  }
  ValuePool *get() const { return P; }
  ValuePool *operator->() const { return P; }
  operator ValuePool *() const { return P; }

private:
  friend class ValuePool;
  explicit ValuePoolRef(ValuePool *Fresh) : P(Fresh) { P->retain(); }
  ValuePool *P = nullptr;
};

inline ValuePoolRef ValuePool::create() { return ValuePoolRef(new ValuePool); }

/// A dynamically-typed semantic value.
///
/// Representation: a hand-rolled tagged union, not std::variant. The
/// value stack moves/destroys millions of these per parse: a move is a
/// 16-byte copy and a scalar destroy a single compare here. All boxed
/// kinds (string/pair/list) share one node pointer — the tag recovers the
/// payload type.
class Value {
  enum class Tag : uint8_t {
    Unit,
    Bool,
    Int,
    Real,
    Token,
    // Boxed tags from here on: hasPtr() is one compare.
    Str,
    Pair,
    List
  };

  /// The intrusive node header. A dead node's count is reused as the
  /// teardown worklist link (destroyNode).
  struct Node {
    union {
      size_t Refs; ///< plain when pooled, atomic (builtins) when heap
      Node *Next;
    };
    ValuePool *Pool; ///< null for a heap node
    explicit Node(ValuePool *P) : Refs(1), Pool(P) {}
  };
  template <typename P> struct Box : Node {
    P Payload;
    template <typename... A>
    explicit Box(ValuePool *Pool, A &&...Args)
        : Node(Pool), Payload(std::forward<A>(Args)...) {}
  };

  Tag T = Tag::Unit;
  TokenId Tok = NoToken; ///< Token tag only
  union Rep {
    int64_t I;
    uint64_t Span; ///< Token: Begin | End << 32, built in one register
    bool B;
    double D;
    Node *N;
  } R{0};

  explicit Value(Tag Tg) : T(Tg) {}
  bool hasPtr() const { return T >= Tag::Str; }

  template <typename P, typename... A>
  static Value box(Tag Tg, ValuePool *Pool, A &&...Args) {
    static_assert(sizeof(Box<P>) <= ValuePool::SlotBytes, "slot too small");
    void *Mem = Pool ? Pool->allocate() : ::operator new(sizeof(Box<P>));
    Value V(Tg);
    V.R.N = ::new (Mem) Box<P>(Pool, std::forward<A>(Args)...);
    return V;
  }
  template <typename P> P &payload() const {
    return static_cast<Box<P> *>(R.N)->Payload;
  }

  static void retain(Node *N) noexcept {
    if (N->Pool)
      ++N->Refs;
    else
      __atomic_fetch_add(&N->Refs, 1, __ATOMIC_RELAXED);
  }
  /// Drops one reference; true when it was the last.
  static bool unref(Node *N) noexcept {
    if (N->Pool)
      return --N->Refs == 0;
    return __atomic_sub_fetch(&N->Refs, 1, __ATOMIC_ACQ_REL) == 0;
  }
  /// True when \p V's node has no other reference (in-place mutation).
  static bool unique(const Value &V) {
    const Node *N = V.R.N;
    return N->Pool ? N->Refs == 1
                   : __atomic_load_n(&N->Refs, __ATOMIC_ACQUIRE) == 1;
  }
  /// Frees a dead node and every node only it kept alive, without
  /// recursion or allocation (Value.cpp).
  static void destroyNode(Tag Tg, Node *N) noexcept;

  void swap(Value &O) noexcept {
    std::swap(T, O.T);
    std::swap(Tok, O.Tok);
    std::swap(R, O.R);
  }

public:
  Value() = default;
  Value(const Value &O) noexcept : T(O.T), Tok(O.Tok), R(O.R) {
    if (hasPtr())
      retain(R.N);
  }
  Value(Value &&O) noexcept : T(O.T), Tok(O.Tok), R(O.R) { O.T = Tag::Unit; }
  /// Copy/move-and-swap: the old value dies after the new one is in
  /// place, so assigning from a part of the old value is safe.
  Value &operator=(Value O) noexcept {
    swap(O);
    return *this;
  }
  ~Value() {
    if (hasPtr() && unref(R.N))
      destroyNode(T, R.N);
  }

  static Value unit() { return Value(); }
  static Value boolean(bool B) {
    Value V(Tag::Bool);
    V.R.B = B;
    return V;
  }
  static Value integer(int64_t I) {
    Value V(Tag::Int);
    V.R.I = I;
    return V;
  }
  static Value real(double D) {
    Value V(Tag::Real);
    V.R.D = D;
    return V;
  }
  static Value token(TokenId Tok, uint32_t Begin, uint32_t End) {
    Value V(Tag::Token);
    V.Tok = Tok;
    V.R.Span = Begin | uint64_t(End) << 32;
    return V;
  }
  static Value token(const Lexeme &L) { return token(L.Tok, L.Begin, L.End); }
  static Value string(std::string S) {
    return box<std::string>(Tag::Str, nullptr, std::move(S));
  }
  static Value pair(Value A, Value B) {
    return pair(nullptr, std::move(A), std::move(B));
  }
  static Value list(ValueList L) { return list(nullptr, std::move(L)); }

  //===--------------------------------------------------------------===//
  // Pool-backed constructors: identical semantics, arena-backed nodes.
  // A null pool degrades to the heap constructors above.
  //===--------------------------------------------------------------===//

  static Value pair(ValuePool *Pool, Value A, Value B) {
    return box<ValuePair>(Tag::Pair, Pool, std::move(A), std::move(B));
  }
  static Value list(ValuePool *Pool, ValueList L) {
    return box<ValueList>(Tag::List, Pool, std::move(L));
  }

  /// \p ListV (a list value) with \p Elem appended. Mutates in place when
  /// the node is uniquely owned (the accumulator discipline of `star`),
  /// copies otherwise.
  static Value listAppend(ValuePool *Pool, Value ListV, Value Elem);
  /// \p ListV reversed; in place when uniquely owned.
  static Value listReversed(ValuePool *Pool, Value ListV);

  bool isUnit() const { return T == Tag::Unit; }
  bool isBool() const { return T == Tag::Bool; }
  bool isInt() const { return T == Tag::Int; }
  bool isReal() const { return T == Tag::Real; }
  bool isToken() const { return T == Tag::Token; }
  bool isString() const { return T == Tag::Str; }
  bool isPair() const { return T == Tag::Pair; }
  bool isList() const { return T == Tag::List; }
  /// Scalars provably hold no input references (streaming retain
  /// watermarks rely on this classification). Strings qualify: they own
  /// a copy of their bytes, unlike token spans.
  bool isScalar() const {
    return T != Tag::Token && T != Tag::Pair && T != Tag::List;
  }

  bool asBool() const {
    assert(isBool() && "value is not a bool");
    return R.B;
  }
  int64_t asInt() const {
    assert(isInt() && "value is not an int");
    return R.I;
  }
  double asReal() const {
    assert(isReal() && "value is not a real");
    return R.D;
  }
  Lexeme asToken() const {
    assert(isToken() && "value is not a token");
    return Lexeme{Tok, static_cast<uint32_t>(R.Span),
                  static_cast<uint32_t>(R.Span >> 32)};
  }
  const std::string &asString() const {
    assert(isString() && "value is not a string");
    return payload<std::string>();
  }
  const ValuePair &asPair() const {
    assert(isPair() && "value is not a pair");
    return payload<ValuePair>();
  }
  const ValueList &asList() const {
    assert(isList() && "value is not a list");
    return payload<ValueList>();
  }

  /// Deep structural equality (for differential tests); iterative, so
  /// the depth of a value never bounds it.
  bool operator==(const Value &O) const;
  bool operator!=(const Value &O) const { return !(*this == O); }

  /// Debug rendering, e.g. `(3 . [tok:atom@2-5])`; iterative too.
  std::string str() const;
};

static_assert(sizeof(Value) == 16, "Value is a tag, a token id and 8 bytes");

} // namespace flap

#endif // FLAP_CFE_VALUE_H
