//===- cfe/Action.cpp - Legacy reference dispatch ------------------------------===//
//
// Part of flap-cpp, a C++ reproduction of "flap: A Deterministic Parser
// with Fused Lexing" (PLDI 2023).
//
//===----------------------------------------------------------------------===//
///
/// The retained std::function reference path: every tagged action is
/// wrapped in a type-erased callable with identical semantics, except
/// that structure-building kinds take the plain heap constructors (no
/// pool), so the differential suite exercises both allocation paths.
///
//===----------------------------------------------------------------------===//

#include "cfe/Action.h"

#include <cstdlib>
#include <new>

using namespace flap;

void ValueStack::grow(size_t Need) {
  const size_t Len = size();
  size_t Cap = static_cast<size_t>(End - Base);
  size_t NewCap = Cap ? Cap * 2 : 64;
  while (NewCap < Len + Need)
    NewCap *= 2;
  // A Value is trivially relocatable, so realloc may move the bytes (or
  // remap a large block's pages) without running any Value code.
  Value *NB = static_cast<Value *>(std::realloc(
      static_cast<void *>(Base), NewCap * sizeof(Value)));
  if (!NB)
    throw std::bad_alloc();
  Base = NB;
  Top = NB + Len;
  End = NB + NewCap;
}

void ValueStack::applyTokInt(const MicroOp M, ParseContext &Ctx) {
  Value *Args = Top - M.Arity;
  int64_t V = lexemeInt(Ctx, Args[M.Sel].asToken());
  dropAbove(Args);
  *Args = Value::integer(V);
}

Value ValueStack::applySlow(const Action &A, ParseContext &Ctx,
                            Value *Args) {
  switch (A.Kind) {
  case ActionKind::Pair:
    return Value::pair(Ctx.Pool, std::move(Args[0]), std::move(Args[1]));
  case ActionKind::TokenText:
    return Value::string(std::string(Ctx.text(Args[0].asToken())));
  case ActionKind::ListNew: {
    ValueList L;
    L.reserve(static_cast<size_t>(A.Arity));
    for (int I = 0; I < A.Arity; ++I)
      L.push_back(std::move(Args[I]));
    return Value::list(Ctx.Pool, std::move(L));
  }
  case ActionKind::ListPush:
    return Value::listAppend(Ctx.Pool, std::move(Args[A.Sel]),
                             std::move(Args[1 - A.Sel]));
  default:
    break;
  }
  assert(false && "scalar kind reached applySlow");
  return Value();
}

void ActionTable::buildRefs() const {
  RefFns.resize(Actions.size());
  for (size_t I = 0; I < Actions.size(); ++I) {
    const Action &A = Actions[I];
    switch (A.Kind) {
    case ActionKind::Custom: {
      ActionFn Fn = A.Fn;
      RefFns[I] = [Fn](ParseContext &Ctx, Value *Args) {
        return Fn(Ctx, Args);
      };
      break;
    }
    case ActionKind::CustomP: {
      ActionPFn Fn = A.PFn;
      const void *Payload = A.Payload;
      RefFns[I] = [Fn, Payload](ParseContext &Ctx, Value *Args) {
        return Fn(Ctx, Args, Payload);
      };
      break;
    }
    case ActionKind::Const: {
      Value V = A.ConstVal;
      RefFns[I] = [V](ParseContext &, Value *) { return V; };
      break;
    }
    case ActionKind::Select: {
      int Sel = A.Sel;
      RefFns[I] = [Sel](ParseContext &, Value *Args) {
        return std::move(Args[Sel]);
      };
      break;
    }
    case ActionKind::Pair:
      RefFns[I] = [](ParseContext &, Value *Args) {
        return Value::pair(std::move(Args[0]), std::move(Args[1]));
      };
      break;
    case ActionKind::TokenText:
      RefFns[I] = [](ParseContext &Ctx, Value *Args) {
        return Value::string(std::string(Ctx.text(Args[0].asToken())));
      };
      break;
    case ActionKind::ListNew: {
      int Arity = A.Arity;
      RefFns[I] = [Arity](ParseContext &, Value *Args) {
        ValueList L;
        L.reserve(static_cast<size_t>(Arity));
        for (int J = 0; J < Arity; ++J)
          L.push_back(std::move(Args[J]));
        return Value::list(std::move(L));
      };
      break;
    }
    case ActionKind::ListPush: {
      int Sel = A.Sel;
      RefFns[I] = [Sel](ParseContext &, Value *Args) {
        return Value::listAppend(nullptr, std::move(Args[Sel]),
                                 std::move(Args[1 - Sel]));
      };
      break;
    }
    case ActionKind::AddArgs: {
      int SA = A.Sel, SB = A.Sel2;
      RefFns[I] = [SA, SB](ParseContext &, Value *Args) {
        return Value::integer(Args[SA].asInt() + Args[SB].asInt());
      };
      break;
    }
    case ActionKind::AddImm: {
      int Sel = A.Sel;
      int64_t Imm = A.Imm;
      RefFns[I] = [Sel, Imm](ParseContext &, Value *Args) {
        return Value::integer(Args[Sel].asInt() + Imm);
      };
      break;
    }
    case ActionKind::TokenInt: {
      int Sel = A.Sel;
      RefFns[I] = [Sel](ParseContext &Ctx, Value *Args) {
        return Value::integer(lexemeInt(Ctx, Args[Sel].asToken()));
      };
      break;
    }
    case ActionKind::MaxAccum: {
      int SA = A.Sel, SB = A.Sel2;
      RefFns[I] = [SA, SB](ParseContext &, Value *Args) {
        return Value::integer(
            maxAccumStep(Args[SA].asInt(), Args[SB].asInt()));
      };
      break;
    }
    }
  }
}
