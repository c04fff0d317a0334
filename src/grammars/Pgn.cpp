//===- grammars/Pgn.cpp - Portable Game Notation grammar ----------------------===//
//
// Part of flap-cpp, a C++ reproduction of "flap: A Deterministic Parser
// with Fused Lexing" (PLDI 2023).
//
//===----------------------------------------------------------------------===//
///
/// PGN chess game descriptions (§6 benchmark (1)): tag-pair headers
/// followed by movetext and a result marker. Words (tag names and SAN
/// moves share the lexical shape) and move numbers are distinguished by
/// grammar position. Brace comments and whitespace are skipped.
///
/// Semantic value: the number of games; the §6 "extract game results"
/// semantics tallies results per kind in PgnCtx.
///
//===----------------------------------------------------------------------===//

#include "grammars/Grammars.h"

using namespace flap;

std::shared_ptr<GrammarDef> flap::makePgnGrammar() {
  auto Def = std::make_shared<GrammarDef>("pgn");
  Lang &L = *Def->L;

  Def->Lexer->skip("[ \\t\\r\\n]");
  Def->Lexer->skip("\\{[^}]*\\}"); // brace comments
  TokenId ResultTok =
      Def->Lexer->rule("1-0|0-1|1/2-1/2|\\*", "result");
  TokenId MoveNum = Def->Lexer->rule("[0-9]+\\.(\\.\\.)?", "movenum");
  TokenId Word =
      Def->Lexer->rule("[A-Za-z][A-Za-z0-9_+#=-]*", "word");
  TokenId Str = Def->Lexer->rule("\"[^\"]*\"", "string");
  TokenId Lbrack = Def->Lexer->rule("\\[", "lbrack");
  TokenId Rbrack = Def->Lexer->rule("\\]", "rbrack");

  // tag := '[' word string ']'
  Px Tag = L.mapConst(
      L.seqAll({L.tok(Lbrack), L.tok(Word), L.tok(Str), L.tok(Rbrack)}),
      Value::unit(), "tag");

  // tags := tag tags | tag      (exported games always carry tags)
  Px Tags = L.fix([&](Px Self) {
    return L.mapConst(
        L.seq(Tag, L.alt(L.eps(Value::unit(), "tagsEnd"), Self)),
        Value::unit(), "tags");
  });

  // movesResult := result | (word|movenum) movesResult
  // Consumes movetext until the result marker; classifies the result.
  Px MovesResult = L.fix([&](Px Self) {
    Px End = L.map(
        L.tok(ResultTok),
        [](ParseContext &Ctx, Value *Args) {
          if (auto *C = static_cast<PgnCtx *>(Ctx.User)) {
            const Lexeme R = Args[0].asToken();
            std::string_view T = Ctx.text(R);
            if (T == "1-0")
              ++C->White;
            else if (T == "0-1")
              ++C->Black;
            else if (T == "1/2-1/2")
              ++C->Draw;
            else
              ++C->Unknown;
          }
          return Value::unit();
        },
        "gameResult");
    Px MoveItem = L.alt(L.tok(Word), L.tok(MoveNum));
    return L.alt(End, L.mapSelect(L.seq(MoveItem, Self), 1, "moveStep"));
  });

  Px Game = L.mapConst(L.seq(Tags, MovesResult), Value::integer(1),
                       "game");

  Def->Root = L.foldrAct(Game, Value::integer(0),
                         L.Actions.addAddArgs(2, 0, 1, "countGames"));
  // Record unit for the shard layer: one game.
  Def->Record = Game;
  Def->HasRecord = true;
  Def->NewCtx = [] { return std::make_shared<PgnCtx>(); };
  return Def;
}
