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
#include <utility>
#include <vector>

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

/// Equality of two values of one non-container tag.
static bool sameLeaf(const Value &A, const Value &B) {
  if (A.isUnit())
    return true;
  if (A.isBool())
    return A.asBool() == B.asBool();
  if (A.isInt())
    return A.asInt() == B.asInt();
  if (A.isReal())
    return A.asReal() == B.asReal();
  if (A.isToken())
    return A.asToken() == B.asToken();
  return A.asString() == B.asString();
}

bool Value::operator==(const Value &O) const {
  if (T != O.T)
    return false;
  if (!hasPtr() || T == Tag::Str)
    return sameLeaf(*this, O); // no worklist (and no allocation)
  // An explicit worklist of pairs still to compare: a depth-10^6 chain
  // compares in a loop, not one stack frame per level.
  std::vector<std::pair<const Value *, const Value *>> Work{{this, &O}};
  while (!Work.empty()) {
    const auto [A, B] = Work.back();
    Work.pop_back();
    if (A->T != B->T)
      return false;
    if (A->isPair()) {
      // Second first: the stack then compares the first halves first.
      Work.push_back({&A->asPair().second, &B->asPair().second});
      Work.push_back({&A->asPair().first, &B->asPair().first});
    } else if (A->isList()) {
      const ValueList &LA = A->asList(), &LB = B->asList();
      if (LA.size() != LB.size())
        return false;
      for (size_t I = LA.size(); I-- > 0;)
        Work.push_back({&LA[I], &LB[I]});
    } else if (!sameLeaf(*A, *B)) {
      return false;
    }
  }
  return true;
}

std::string Value::str() const {
  // The same worklist discipline as operator==: an entry is a value to
  // render or a literal to append, pushed in reverse output order.
  struct Item {
    const Value *V;
    const char *Lit;
  };
  std::string Out;
  std::vector<Item> Work{{this, nullptr}};
  while (!Work.empty()) {
    const Item It = Work.back();
    Work.pop_back();
    if (It.Lit) {
      Out += It.Lit;
      continue;
    }
    const Value &V = *It.V;
    switch (V.T) {
    case Tag::Unit:
      Out += "()";
      break;
    case Tag::Bool:
      Out += V.R.B ? "true" : "false";
      break;
    case Tag::Int:
      Out += format("%lld", static_cast<long long>(V.R.I));
      break;
    case Tag::Real:
      Out += format("%g", V.R.D);
      break;
    case Tag::Token: {
      const Lexeme L = V.asToken();
      Out += format("[tok:%d@%u-%u]", L.Tok, L.Begin, L.End);
      break;
    }
    case Tag::Str:
      Out += "\"" + escapeString(V.asString()) + "\"";
      break;
    case Tag::Pair:
      Work.push_back({nullptr, ")"});
      Work.push_back({&V.asPair().second, nullptr});
      Work.push_back({nullptr, " . "});
      Work.push_back({&V.asPair().first, nullptr});
      Out += "(";
      break;
    case Tag::List: {
      const ValueList &L = V.asList();
      Work.push_back({nullptr, "]"});
      for (size_t I = L.size(); I-- > 0;) {
        Work.push_back({&L[I], nullptr});
        if (I)
          Work.push_back({nullptr, " "});
      }
      Out += "[";
      break;
    }
    }
  }
  return Out;
}
