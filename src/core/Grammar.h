//===- core/Grammar.h - Normal-form grammars --------------------*- C++ -*-===//
//
// Part of flap-cpp, a C++ reproduction of "flap: A Deterministic Parser
// with Fused Lexing" (PLDI 2023).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Normal-form grammars (paper Fig. 4):
///
///   N ::= ε | t n̄ | α n̄            normal forms
///   G ::= { n → N }                 normal-form grammar
///   D ::= { n → t n̄ } ∪ { n → ε }   DGNF grammar
///
/// The α n̄ form is the internal form used while normalizing fixpoints
/// (§3.1); closed well-typed expressions normalize to grammars without it
/// (Corollary 3.5), i.e. to DGNF.
///
/// Tails carry two kinds of symbols: real nonterminals and *action
/// markers* — pseudo-nonterminals with ε-semantics that route flap's
/// semantic actions through normalization. Validators and
/// language-level semantics erase markers.
///
//===----------------------------------------------------------------------===//

#ifndef FLAP_CORE_GRAMMAR_H
#define FLAP_CORE_GRAMMAR_H

#include "cfe/Action.h"
#include "cfe/Cfe.h"
#include "lexer/Token.h"

#include <cassert>
#include <cstdint>
#include <string>
#include <vector>

namespace flap {

/// Dense nonterminal identity within one Grammar.
using NtId = uint32_t;
constexpr NtId NoNt = static_cast<NtId>(-1);

/// A tail symbol: a nonterminal to parse or an action marker to run.
struct Sym {
  enum KindTy : uint8_t { Nt, Act } Kind;
  uint32_t Idx; ///< NtId or ActionId

  static Sym nt(NtId N) { return {Nt, N}; }
  static Sym act(ActionId A) { return {Act, static_cast<uint32_t>(A)}; }

  bool isNt() const { return Kind == Nt; }
  bool operator==(const Sym &O) const {
    return Kind == O.Kind && Idx == O.Idx;
  }
};

/// One production n → N. The head is ε, a terminal t, or a variable α
/// (internal form). An ε-headed production's tail may contain only
/// markers.
struct Production {
  enum class HeadKind : uint8_t { Eps, Tok, Var };

  HeadKind Head = HeadKind::Eps;
  TokenId Tok = NoToken; ///< when Head == Tok
  VarId Var = 0;         ///< when Head == Var
  std::vector<Sym> Tail;

  static Production eps(std::vector<Sym> Markers = {}) {
    Production P;
    P.Head = HeadKind::Eps;
    P.Tail = std::move(Markers);
    return P;
  }
  static Production tok(TokenId T, std::vector<Sym> Tail = {}) {
    Production P;
    P.Head = HeadKind::Tok;
    P.Tok = T;
    P.Tail = std::move(Tail);
    return P;
  }
  static Production var(VarId V, std::vector<Sym> Tail = {}) {
    Production P;
    P.Head = HeadKind::Var;
    P.Var = V;
    P.Tail = std::move(Tail);
    return P;
  }

  bool isEps() const { return Head == HeadKind::Eps; }
  bool isTok() const { return Head == HeadKind::Tok; }
  bool isVar() const { return Head == HeadKind::Var; }

  /// True when the tail contains a real nonterminal.
  bool tailHasNt() const {
    for (const Sym &S : Tail)
      if (S.isNt())
        return true;
    return false;
  }
};

/// A normal-form grammar: productions grouped by nonterminal, plus a
/// start symbol.
struct Grammar {
  NtId Start = NoNt;
  std::vector<std::vector<Production>> Prods; ///< by NtId
  std::vector<std::string> Names;             ///< by NtId

  NtId addNt(std::string Name) {
    Prods.emplace_back();
    Names.push_back(std::move(Name));
    return static_cast<NtId>(Prods.size() - 1);
  }

  size_t numNts() const { return Prods.size(); }

  size_t numProductions() const {
    size_t N = 0;
    for (const auto &Ps : Prods)
      N += Ps.size();
    return N;
  }

  const std::vector<Production> &prodsOf(NtId N) const {
    assert(N < Prods.size() && "nonterminal out of range");
    return Prods[N];
  }

  /// The ε-production of \p N, or nullptr.
  const Production *epsProd(NtId N) const {
    for (const Production &P : prodsOf(N))
      if (P.isEps())
        return &P;
    return nullptr;
  }

  /// The unique production of \p N headed by token \p T, or nullptr
  /// (uniqueness is the DGNF Determinism condition).
  const Production *tokProd(NtId N, TokenId T) const {
    for (const Production &P : prodsOf(N))
      if (P.isTok() && P.Tok == T)
        return &P;
    return nullptr;
  }

  /// Renames a nonterminal (used by tests for readable fixtures).
  void setName(NtId N, std::string Name) { Names[N] = std::move(Name); }

  /// Renders in BNF-ish form, one production per line:
  ///   sexp -> lpar sexps rpar
  /// Markers print as @name when \p Actions is provided, and are omitted
  /// otherwise.
  std::string str(const TokenSet &Toks,
                  const ActionTable *Actions = nullptr) const;

  /// Renders a single production body.
  std::string strProduction(const Production &P, const TokenSet &Toks,
                            const ActionTable *Actions = nullptr) const;
};

} // namespace flap

#endif // FLAP_CORE_GRAMMAR_H
