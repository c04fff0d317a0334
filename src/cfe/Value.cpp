//===- cfe/Value.cpp - Semantic values ---------------------------------------===//
//
// Part of flap-cpp, a C++ reproduction of "flap: A Deterministic Parser
// with Fused Lexing" (PLDI 2023).
//
//===----------------------------------------------------------------------===//

#include "cfe/Value.h"

#include "support/StrUtil.h"

#include <algorithm>
#include <type_traits>

using namespace flap;

void Value::destroyNode(Tag Tg, Node *N) noexcept {
  // Dead pairs and lists whose children are still to be released, each
  // stack threaded through its dead nodes' own count fields: a
  // depth-10^6 chain tears down in a loop, with no recursion and no
  // allocation. Strings have no children and are freed on the spot.
  Node *Pairs = nullptr, *Lists = nullptr;
  auto Free = [](auto *B) {
    ValuePool *Pool = B->Pool;
    using BoxT = std::remove_pointer_t<decltype(B)>;
    B->~BoxT(); // every child is unit by now: no recursion
    if (Pool)
      Pool->deallocate(B); // last: may delete the pool
    else
      ::operator delete(B);
  };
  auto Dead = [&](Tag K, Node *D) {
    if (K == Tag::Str) {
      Free(static_cast<Box<std::string> *>(D));
    } else {
      Node *&Stack = K == Tag::Pair ? Pairs : Lists;
      D->Next = Stack;
      Stack = D;
    }
  };
  // Releases a child's reference and leaves it unit.
  auto Drop = [&](Value &C) {
    if (C.hasPtr() && unref(C.R.N))
      Dead(C.T, C.R.N);
    C.T = Tag::Unit;
  };
  Dead(Tg, N);
  while (Pairs || Lists) {
    if (Pairs) {
      auto *B = static_cast<Box<ValuePair> *>(Pairs);
      Pairs = Pairs->Next;
      Drop(B->Payload.first);
      Drop(B->Payload.second);
      Free(B);
    } else {
      auto *B = static_cast<Box<ValueList> *>(Lists);
      Lists = Lists->Next;
      for (Value &C : B->Payload)
        Drop(C);
      Free(B);
    }
  }
}

Value Value::listAppend(ValuePool *Pool, Value ListV, Value Elem) {
  assert(ListV.isList() && "listAppend needs a list");
  if (unique(ListV)) {
    ListV.payload<ValueList>().push_back(std::move(Elem));
    return ListV;
  }
  ValueList L = ListV.asList();
  L.push_back(std::move(Elem));
  return list(Pool, std::move(L));
}

Value Value::listReversed(ValuePool *Pool, Value ListV) {
  assert(ListV.isList() && "listReversed needs a list");
  if (unique(ListV)) {
    ValueList &L = ListV.payload<ValueList>();
    std::reverse(L.begin(), L.end());
    return ListV;
  }
  ValueList L(ListV.asList().rbegin(), ListV.asList().rend());
  return list(Pool, std::move(L));
}

bool Value::operator==(const Value &O) const {
  if (T != O.T)
    return false;
  if (isUnit())
    return true;
  if (isBool())
    return asBool() == O.asBool();
  if (isInt())
    return asInt() == O.asInt();
  if (isReal())
    return asReal() == O.asReal();
  if (isToken())
    return asToken() == O.asToken();
  if (isString())
    return asString() == O.asString();
  if (isPair())
    return asPair().first == O.asPair().first &&
           asPair().second == O.asPair().second;
  if (isList()) {
    const ValueList &A = asList(), &B = O.asList();
    if (A.size() != B.size())
      return false;
    for (size_t I = 0; I < A.size(); ++I)
      if (A[I] != B[I])
        return false;
    return true;
  }
  return false;
}

std::string Value::str() const {
  if (isUnit())
    return "()";
  if (isBool())
    return asBool() ? "true" : "false";
  if (isInt())
    return format("%lld", static_cast<long long>(asInt()));
  if (isReal())
    return format("%g", asReal());
  if (isToken()) {
    const Lexeme L = asToken();
    return format("[tok:%d@%u-%u]", L.Tok, L.Begin, L.End);
  }
  if (isString())
    return "\"" + escapeString(asString()) + "\"";
  if (isPair())
    return "(" + asPair().first.str() + " . " + asPair().second.str() + ")";
  if (isList()) {
    std::vector<std::string> Parts;
    for (const Value &E : asList())
      Parts.push_back(E.str());
    return "[" + join(Parts, " ") + "]";
  }
  return "?";
}
