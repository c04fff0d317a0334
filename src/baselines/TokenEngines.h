//===- baselines/TokenEngines.h - Token-level baseline engines -*- C++ -*-===//
//
// Part of flap-cpp, a C++ reproduction of "flap: A Deterministic Parser
// with Fused Lexing" (PLDI 2023).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The token-level engines of the paper's evaluation, §6 (bench/README.md
/// lists the proxy mapping):
///
///  - RdTokenParser    — recursive descent over a materialized token
///                       vector, direct per-nonterminal dispatch: the
///                       `menhir` code-mode proxy (c).
///  - AspTokenParser   — the typed-CFE-derived dispatch machine over
///                       materialized tokens: the `asp` proxy (e). asp's
///                       staged code branches on tokens using First sets;
///                       DGNF makes the same decision procedure a table.
///  - PartsStreamParser— recursive descent pulling lexemes one at a time,
///                       never materializing the stream: the `ParTS`
///                       stream-fusion proxy (f).
///
/// All three share the DGNF dispatch tables and evaluate the same
/// semantic actions; what varies is exactly the token-interface shape the
/// paper's Fig. 11 compares.
///
//===----------------------------------------------------------------------===//

#ifndef FLAP_BASELINES_TOKENENGINES_H
#define FLAP_BASELINES_TOKENENGINES_H

#include "cfe/Action.h"
#include "core/Grammar.h"
#include "lexer/CompiledLexer.h"
#include "support/Result.h"

#include <memory>
#include <string_view>
#include <vector>

namespace flap {

/// Shared DGNF dispatch structure for the token engines.
struct TokenTables {
  struct Prod {
    TokenId Head;
    std::vector<Sym> Tail;
  };

  size_t NumToks = 0;
  std::vector<int32_t> Table; ///< [nt*NumToks + tok] → prod index or -1
  std::vector<Prod> Prods;
  std::vector<int32_t> NtEps; ///< [nt] → ε-chain index or -1
  std::vector<std::vector<ActionId>> EpsChains;
  std::vector<std::string> NtNames;
  NtId Start = NoNt;
};

/// Builds dispatch tables from a DGNF grammar.
TokenTables buildTokenTables(const Grammar &G, size_t NumTokens);

/// Recursive-descent parse over a pre-lexed token vector.
Result<Value> parseRdTokens(const TokenTables &T, const ActionTable &Actions,
                            const std::vector<Lexeme> &Toks,
                            std::string_view Input, void *User = nullptr);

/// Recognition-only variants (no values/actions).
bool recognizeRdTokens(const TokenTables &T,
                       const std::vector<Lexeme> &Toks);
bool recognizeAspTokens(const TokenTables &T,
                        const std::vector<Lexeme> &Toks);

/// Explicit-stack dispatch machine over a pre-lexed token vector.
Result<Value> parseAspTokens(const TokenTables &T,
                             const ActionTable &Actions,
                             const std::vector<Lexeme> &Toks,
                             std::string_view Input, void *User = nullptr);

/// Recursive descent with a pull-based lexer (one transient lookahead
/// lexeme, no token records kept).
class PartsStreamParser {
public:
  PartsStreamParser(RegexArena &Arena, const CanonicalLexer &Lexer,
                    const Grammar &G, const ActionTable &Actions,
                    size_t NumTokens)
      : Lex(Arena, Lexer), T(buildTokenTables(G, NumTokens)),
        Actions(&Actions) {}

  Result<Value> parse(std::string_view Input, void *User = nullptr) const;
  bool recognize(std::string_view Input) const;

private:
  CompiledLexer Lex;
  TokenTables T;
  const ActionTable *Actions;
};

} // namespace flap

#endif // FLAP_BASELINES_TOKENENGINES_H
