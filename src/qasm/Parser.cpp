//===- qasm/Parser.cpp - OpenQASM 2.0 parser ----------------------------------===//
//
// Part of the Qlosure project. Distributed under the MIT license.
//
//===----------------------------------------------------------------------===//

#include "qasm/Parser.h"

#include "qasm/Lexer.h"
#include "route/Cancellation.h"
#include "support/StringUtils.h"

#include <cstdlib>

using namespace qlosure;
using namespace qlosure::qasm;

namespace {

class ParserImpl {
public:
  ParserImpl(std::vector<Token> Tokens, const CancellationToken *Cancel)
      : Tokens(std::move(Tokens)), Cancel(Cancel) {}

  ParseResult run() {
    Program Prog;
    if (!parseHeader(Prog))
      return fail();
    while (!peek().is(TokenKind::EndOfFile)) {
      if (peek().is(TokenKind::Error))
        return error(peek(), peek().Text), fail();
      if (Cancel && Prog.Statements.size() % 256 == 0 && Cancel->cancelled())
        return error(peek(), "import cancelled"), fail();
      if (!parseStatement(Prog))
        return fail();
    }
    ParseResult Result;
    Result.Prog = std::move(Prog);
    return Result;
  }

private:
  //===--------------------------------------------------------------------===//
  // Token plumbing
  //===--------------------------------------------------------------------===//

  const Token &peek(size_t Ahead = 0) const {
    size_t I = Pos + Ahead;
    return I < Tokens.size() ? Tokens[I] : Tokens.back();
  }

  const Token &advance() { return Tokens[Pos < Tokens.size() - 1 ? Pos++ : Pos]; }

  bool expect(TokenKind Kind, const char *What) {
    if (peek().is(Kind)) {
      advance();
      return true;
    }
    return error(peek(), std::string("expected ") + What);
  }

  bool error(const Token &At, const std::string &Message) {
    if (ErrorMessage.empty()) {
      // A lexical Error token carries its own diagnostic (e.g. "malformed
      // real literal"); surface that instead of the parser's expectation,
      // which would otherwise mask the real problem mid-statement.
      const std::string &Shown =
          At.is(TokenKind::Error) && !At.Text.empty() ? At.Text : Message;
      ErrorMessage = formatString("line %u, column %u: %s", At.Line,
                                  At.Column, Shown.c_str());
    }
    return false;
  }

  ParseResult fail() {
    ParseResult Result;
    Result.Error =
        ErrorMessage.empty() ? "unknown parse error" : ErrorMessage;
    return Result;
  }

  //===--------------------------------------------------------------------===//
  // Grammar
  //===--------------------------------------------------------------------===//

  bool parseHeader(Program &Prog) {
    // Optional "OPENQASM <real>;"
    if (peek().isIdentifier("OPENQASM")) {
      advance();
      if (!peek().is(TokenKind::Real) && !peek().is(TokenKind::Integer))
        return error(peek(), "expected version number after OPENQASM");
      Prog.Version = advance().Text;
      if (!expect(TokenKind::Semicolon, "';' after version"))
        return false;
    }
    return true;
  }

  bool parseStatement(Program &Prog) {
    const Token &T = peek();
    if (T.isIdentifier("include"))
      return parseInclude(Prog);
    if (T.isIdentifier("qreg") || T.isIdentifier("creg"))
      return parseRegDecl(Prog);
    if (T.isIdentifier("gate"))
      return parseGateDef(Prog, /*IsOpaque=*/false);
    if (T.isIdentifier("opaque"))
      return parseGateDef(Prog, /*IsOpaque=*/true);
    if (T.isIdentifier("measure"))
      return parseMeasure(Prog);
    if (T.isIdentifier("barrier"))
      return parseBarrier(Prog);
    if (T.isIdentifier("reset"))
      return parseReset(Prog);
    if (T.isIdentifier("if"))
      return error(T, "classical control ('if') is not supported");
    if (T.is(TokenKind::Identifier))
      return parseGateCall(Prog);
    return error(T, "expected a statement");
  }

  bool parseInclude(Program &Prog) {
    advance(); // include
    if (!peek().is(TokenKind::StringLiteral))
      return error(peek(), "expected a string after include");
    Prog.Includes.push_back(advance().Text);
    return expect(TokenKind::Semicolon, "';' after include");
  }

  bool parseRegDecl(Program &Prog) {
    bool IsQuantum = peek().isIdentifier("qreg");
    advance();
    if (!peek().is(TokenKind::Identifier))
      return error(peek(), "expected register name");
    Statement Stmt;
    Stmt.StmtKind = Statement::Kind::Reg;
    Stmt.Reg.IsQuantum = IsQuantum;
    Stmt.Reg.Name = advance().Text;
    if (!expect(TokenKind::LBracket, "'['"))
      return false;
    if (!peek().is(TokenKind::Integer))
      return error(peek(), "expected register size");
    Stmt.Reg.Size = static_cast<unsigned>(std::strtoul(
        advance().Text.c_str(), nullptr, 10));
    if (!expect(TokenKind::RBracket, "']'") ||
        !expect(TokenKind::Semicolon, "';'"))
      return false;
    Prog.Statements.push_back(std::move(Stmt));
    return true;
  }

  bool parseGateDef(Program &Prog, bool IsOpaque) {
    advance(); // gate / opaque
    if (!peek().is(TokenKind::Identifier))
      return error(peek(), "expected gate name");
    Statement Stmt;
    Stmt.StmtKind = Statement::Kind::Gate;
    Stmt.Gate.Name = advance().Text;
    Stmt.Gate.IsOpaque = IsOpaque;

    if (peek().is(TokenKind::LParen)) {
      advance();
      while (!peek().is(TokenKind::RParen)) {
        if (!peek().is(TokenKind::Identifier))
          return error(peek(), "expected parameter name");
        Stmt.Gate.ParamNames.push_back(advance().Text);
        if (peek().is(TokenKind::Comma))
          advance();
      }
      advance(); // ')'
    }
    // Qubit formal names.
    for (;;) {
      if (!peek().is(TokenKind::Identifier))
        return error(peek(), "expected qubit parameter name");
      Stmt.Gate.QubitNames.push_back(advance().Text);
      if (peek().is(TokenKind::Comma)) {
        advance();
        continue;
      }
      break;
    }
    if (IsOpaque) {
      if (!expect(TokenKind::Semicolon, "';' after opaque declaration"))
        return false;
      Prog.Statements.push_back(std::move(Stmt));
      return true;
    }
    if (!expect(TokenKind::LBrace, "'{'"))
      return false;
    while (!peek().is(TokenKind::RBrace)) {
      if (peek().is(TokenKind::EndOfFile))
        return error(peek(), "unterminated gate body");
      if (peek().isIdentifier("barrier")) {
        // Barriers inside bodies do not affect unitary semantics; skip.
        while (!peek().is(TokenKind::Semicolon) &&
               !peek().is(TokenKind::EndOfFile))
          advance();
        if (!expect(TokenKind::Semicolon, "';'"))
          return false;
        continue;
      }
      GateCall Call;
      if (!parseCallInto(Call))
        return false;
      Stmt.Gate.Body.push_back(std::move(Call));
    }
    advance(); // '}'
    Prog.Statements.push_back(std::move(Stmt));
    return true;
  }

  bool parseMeasure(Program &Prog) {
    advance(); // measure
    Statement Stmt;
    Stmt.StmtKind = Statement::Kind::Measure;
    if (!parseArgument(Stmt.Measure.Src))
      return false;
    if (!expect(TokenKind::Arrow, "'->' in measure"))
      return false;
    if (!parseArgument(Stmt.Measure.Dst))
      return false;
    if (!expect(TokenKind::Semicolon, "';'"))
      return false;
    Prog.Statements.push_back(std::move(Stmt));
    return true;
  }

  bool parseBarrier(Program &Prog) {
    advance(); // barrier
    Statement Stmt;
    Stmt.StmtKind = Statement::Kind::Barrier;
    for (;;) {
      Argument Arg;
      if (!parseArgument(Arg))
        return false;
      Stmt.Barrier.Args.push_back(std::move(Arg));
      if (peek().is(TokenKind::Comma)) {
        advance();
        continue;
      }
      break;
    }
    if (!expect(TokenKind::Semicolon, "';'"))
      return false;
    Prog.Statements.push_back(std::move(Stmt));
    return true;
  }

  bool parseReset(Program &Prog) {
    advance(); // reset
    Statement Stmt;
    Stmt.StmtKind = Statement::Kind::Reset;
    if (!parseArgument(Stmt.ResetArg))
      return false;
    if (!expect(TokenKind::Semicolon, "';'"))
      return false;
    Prog.Statements.push_back(std::move(Stmt));
    return true;
  }

  bool parseGateCall(Program &Prog) {
    Statement Stmt;
    Stmt.StmtKind = Statement::Kind::Call;
    if (!parseCallInto(Stmt.Call))
      return false;
    Prog.Statements.push_back(std::move(Stmt));
    return true;
  }

  bool parseCallInto(GateCall &Call) {
    if (!peek().is(TokenKind::Identifier))
      return error(peek(), "expected gate name");
    Call.Line = peek().Line;
    Call.Name = advance().Text;
    if (peek().is(TokenKind::LParen)) {
      advance();
      if (!peek().is(TokenKind::RParen)) {
        for (;;) {
          auto E = parseExpr();
          if (!E)
            return false;
          Call.Params.push_back(std::move(E));
          if (peek().is(TokenKind::Comma)) {
            advance();
            continue;
          }
          break;
        }
      }
      if (!expect(TokenKind::RParen, "')'"))
        return false;
    }
    for (;;) {
      Argument Arg;
      if (!parseArgument(Arg))
        return false;
      Call.Args.push_back(std::move(Arg));
      if (peek().is(TokenKind::Comma)) {
        advance();
        continue;
      }
      break;
    }
    return expect(TokenKind::Semicolon, "';'");
  }

  bool parseArgument(Argument &Arg) {
    if (!peek().is(TokenKind::Identifier))
      return error(peek(), "expected register reference");
    Arg.Reg = advance().Text;
    if (peek().is(TokenKind::LBracket)) {
      advance();
      if (!peek().is(TokenKind::Integer))
        return error(peek(), "expected index");
      Arg.Index = static_cast<unsigned>(
          std::strtoul(advance().Text.c_str(), nullptr, 10));
      if (!expect(TokenKind::RBracket, "']'"))
        return false;
    }
    return true;
  }

  //===--------------------------------------------------------------------===//
  // Expressions (precedence climbing)
  //===--------------------------------------------------------------------===//

  std::unique_ptr<Expr> parseExpr() { return parseAdditive(); }

  /// Expression depth bound. Parentheses, function arguments, unary minus
  /// and '^' recurse through parseUnary, and every '+', '-', '*', '/' in a
  /// chain deepens the left-leaning tree; the AST's evaluation and
  /// destruction recurse just as deep. Past MaxExprDepth levels the
  /// expression is rejected with a parse error instead of overflowing the
  /// stack.
  static constexpr unsigned MaxExprDepth = 256;

  /// Restores ExprDepth when the parse function that entered levels
  /// returns.
  struct DepthScope {
    unsigned &Depth;
    unsigned Saved;
    explicit DepthScope(unsigned &Depth) : Depth(Depth), Saved(Depth) {}
    ~DepthScope() { Depth = Saved; }
  };

  /// Enters one more expression level; false past MaxExprDepth.
  bool deeper() {
    if (ExprDepth == MaxExprDepth)
      return error(peek(), "expression nested too deeply");
    ++ExprDepth;
    return true;
  }

  std::unique_ptr<Expr> parseAdditive() {
    DepthScope Scope(ExprDepth);
    auto Lhs = parseMultiplicative();
    if (!Lhs)
      return nullptr;
    while (peek().is(TokenKind::Plus) || peek().is(TokenKind::Minus)) {
      if (!deeper())
        return nullptr;
      std::string Op = advance().Text;
      auto Rhs = parseMultiplicative();
      if (!Rhs)
        return nullptr;
      auto Node = std::make_unique<Expr>();
      Node->NodeKind = Expr::Kind::Binary;
      Node->Name = Op;
      Node->Lhs = std::move(Lhs);
      Node->Rhs = std::move(Rhs);
      Lhs = std::move(Node);
    }
    return Lhs;
  }

  std::unique_ptr<Expr> parseMultiplicative() {
    DepthScope Scope(ExprDepth);
    auto Lhs = parseUnary();
    if (!Lhs)
      return nullptr;
    while (peek().is(TokenKind::Star) || peek().is(TokenKind::Slash)) {
      if (!deeper())
        return nullptr;
      std::string Op = advance().Text;
      auto Rhs = parseUnary();
      if (!Rhs)
        return nullptr;
      auto Node = std::make_unique<Expr>();
      Node->NodeKind = Expr::Kind::Binary;
      Node->Name = Op;
      Node->Lhs = std::move(Lhs);
      Node->Rhs = std::move(Rhs);
      Lhs = std::move(Node);
    }
    return Lhs;
  }

  // Unary minus binds looser than '^' (so "-2^2" is -(2^2)), matching the
  // usual mathematical convention.
  std::unique_ptr<Expr> parseUnary() {
    DepthScope Scope(ExprDepth);
    if (!deeper())
      return nullptr;
    if (peek().is(TokenKind::Minus)) {
      advance();
      auto Sub = parseUnary();
      if (!Sub)
        return nullptr;
      auto Node = std::make_unique<Expr>();
      Node->NodeKind = Expr::Kind::Unary;
      Node->Name = "-";
      Node->Lhs = std::move(Sub);
      return Node;
    }
    return parsePower();
  }

  std::unique_ptr<Expr> parsePower() {
    auto Lhs = parsePrimary();
    if (!Lhs)
      return nullptr;
    if (peek().is(TokenKind::Caret)) {
      advance();
      auto Rhs = parseUnary(); // Right associative; permits "2^-3".
      if (!Rhs)
        return nullptr;
      auto Node = std::make_unique<Expr>();
      Node->NodeKind = Expr::Kind::Binary;
      Node->Name = "^";
      Node->Lhs = std::move(Lhs);
      Node->Rhs = std::move(Rhs);
      return Node;
    }
    return Lhs;
  }

  std::unique_ptr<Expr> parsePrimary() {
    const Token &T = peek();
    if (T.is(TokenKind::Integer) || T.is(TokenKind::Real)) {
      auto Node = std::make_unique<Expr>();
      Node->NodeKind = Expr::Kind::Number;
      Node->Number = std::strtod(advance().Text.c_str(), nullptr);
      return Node;
    }
    if (T.is(TokenKind::LParen)) {
      advance();
      auto Inner = parseExpr();
      if (!Inner)
        return nullptr;
      if (!expect(TokenKind::RParen, "')'"))
        return nullptr;
      return Inner;
    }
    if (T.is(TokenKind::Identifier)) {
      std::string Name = advance().Text;
      if (Name == "pi") {
        auto Node = std::make_unique<Expr>();
        Node->NodeKind = Expr::Kind::Pi;
        return Node;
      }
      static const char *Functions[] = {"sin", "cos", "tan",
                                        "exp", "ln",  "sqrt"};
      for (const char *Fn : Functions) {
        if (Name == Fn) {
          if (!expect(TokenKind::LParen, "'(' after function name"))
            return nullptr;
          auto ArgExpr = parseExpr();
          if (!ArgExpr)
            return nullptr;
          if (!expect(TokenKind::RParen, "')'"))
            return nullptr;
          auto Node = std::make_unique<Expr>();
          Node->NodeKind = Expr::Kind::Unary;
          Node->Name = Name;
          Node->Lhs = std::move(ArgExpr);
          return Node;
        }
      }
      // A formal parameter reference (resolved during import).
      auto Node = std::make_unique<Expr>();
      Node->NodeKind = Expr::Kind::Param;
      Node->Name = std::move(Name);
      return Node;
    }
    error(T, "expected an expression");
    return nullptr;
  }

  std::vector<Token> Tokens;
  const CancellationToken *Cancel;
  size_t Pos = 0;
  std::string ErrorMessage;
  unsigned ExprDepth = 0;
};

} // namespace

ParseResult qasm::parseQasm(const std::string &Source,
                            const CancellationToken *Cancel) {
  return ParserImpl(tokenize(Source, Cancel), Cancel).run();
}
