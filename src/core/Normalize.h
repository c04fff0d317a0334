//===- core/Normalize.h - CFE → DGNF normalization (Fig. 4) ----*- C++ -*-===//
//
// Part of flap-cpp, a C++ reproduction of "flap: A Deterministic Parser
// with Fused Lexing" (PLDI 2023).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The normalization function N⟦g⟧ of paper Fig. 4, which elaborates a
/// (well-typed) context-free expression into Deterministic Greibach
/// Normal Form. The subtle case is (fix): the body is normalized with α
/// as a placeholder, then the knot is tied by ① copying the start
/// symbol's productions onto α, ② substituting productions that *begin*
/// with α, and ③ keeping everything else (§3.1). Per Theorem 3.3/3.7,
/// normalization succeeds and yields DGNF for every closed well-typed
/// expression; internal invariants assert exactly the lemmas the paper
/// proves (Lemma 3.2: no ε-production appears where typing forbids it).
///
/// Semantic actions travel as ε-markers appended to production tails
/// (core/Grammar.h); they are invisible to the grammar-level semantics.
///
//===----------------------------------------------------------------------===//

#ifndef FLAP_CORE_NORMALIZE_H
#define FLAP_CORE_NORMALIZE_H

#include "cfe/Cfe.h"
#include "core/Grammar.h"
#include "support/Result.h"

namespace flap {

struct NormalizeOptions {
  /// Appendix-A optimization: when a tail would reference a fresh
  /// nonterminal whose only production is `n → α` (a pure variable
  /// alias), reference α's nonterminal directly. This reproduces the
  /// paper's presented derivations (Fig. 5) and Table 1 sizes.
  bool CollapseVarAliases = true;
  /// Remove nonterminals unreachable from the start symbol ("it is easy
  /// to trim unreachable productions in the implementation", §3.1).
  bool TrimUnreachable = true;
};

/// Normalizes \p Root. The expression must be closed and well-typed
/// (run typeCheck first); internal invariant violations — which typing
/// rules out — abort in debug builds and surface as errors in release.
Result<Grammar> normalize(const CfeArena &Arena, CfeId Root,
                          NormalizeOptions Opts = {});

/// Multi-entry normalization (paper §8: "lexers and parsers with
/// multiple entry points"): normalizes several roots into *one* grammar
/// with shared subexpressions, returning the start nonterminal of each
/// root in \p StartsOut. Grammar::Start is the first root's start.
Result<Grammar> normalizeMulti(const CfeArena &Arena,
                               const std::vector<CfeId> &Roots,
                               std::vector<NtId> &StartsOut,
                               NormalizeOptions Opts = {});

} // namespace flap

#endif // FLAP_CORE_NORMALIZE_H
