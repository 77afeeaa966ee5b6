//===- qasm/Lexer.cpp - OpenQASM 2.0 lexer -----------------------------------===//
//
// Part of the Qlosure project. Distributed under the MIT license.
//
//===----------------------------------------------------------------------===//

#include "qasm/Lexer.h"

#include "route/Cancellation.h"

#include <cctype>

using namespace qlosure;
using namespace qlosure::qasm;

namespace {

class LexerImpl {
public:
  LexerImpl(const std::string &Source, const CancellationToken *Cancel)
      : Source(Source), Cancel(Cancel) {}

  std::vector<Token> run() {
    std::vector<Token> Tokens;
    for (;;) {
      if (Cancel && Tokens.size() % 4096 == 0 && Cancel->cancelled()) {
        Token T;
        T.Text = "import cancelled";
        T.Line = Line;
        T.Column = Column;
        Tokens.push_back(std::move(T));
        break;
      }
      Token T = next();
      bool Done = T.is(TokenKind::EndOfFile) || T.is(TokenKind::Error);
      Tokens.push_back(std::move(T));
      if (Done)
        break;
    }
    return Tokens;
  }

private:
  char peek(size_t Ahead = 0) const {
    return Pos + Ahead < Source.size() ? Source[Pos + Ahead] : '\0';
  }

  char advance() {
    char C = Source[Pos++];
    if (C == '\n') {
      ++Line;
      Column = 1;
    } else {
      ++Column;
    }
    return C;
  }

  void skipTrivia() {
    for (;;) {
      char C = peek();
      if (C == ' ' || C == '\t' || C == '\r' || C == '\n') {
        advance();
        continue;
      }
      if (C == '/' && peek(1) == '/') {
        while (peek() && peek() != '\n')
          advance();
        continue;
      }
      if (C == '/' && peek(1) == '*') {
        advance();
        advance();
        while (peek() && !(peek() == '*' && peek(1) == '/'))
          advance();
        if (peek()) {
          advance();
          advance();
        }
        continue;
      }
      return;
    }
  }

  Token make(TokenKind Kind, std::string Text, unsigned L, unsigned C) {
    Token T;
    T.Kind = Kind;
    T.Text = std::move(Text);
    T.Line = L;
    T.Column = C;
    return T;
  }

  Token next() {
    skipTrivia();
    unsigned L = Line, C = Column;
    if (Pos >= Source.size())
      return make(TokenKind::EndOfFile, "", L, C);

    char Ch = peek();
    if (std::isalpha(static_cast<unsigned char>(Ch)) || Ch == '_') {
      std::string Text;
      while (std::isalnum(static_cast<unsigned char>(peek())) ||
             peek() == '_')
        Text.push_back(advance());
      return make(TokenKind::Identifier, std::move(Text), L, C);
    }
    if (std::isdigit(static_cast<unsigned char>(Ch)) ||
        (Ch == '.' && std::isdigit(static_cast<unsigned char>(peek(1))))) {
      std::string Text;
      bool IsReal = false;
      while (std::isdigit(static_cast<unsigned char>(peek())))
        Text.push_back(advance());
      if (peek() == '.') {
        IsReal = true;
        Text.push_back(advance());
        while (std::isdigit(static_cast<unsigned char>(peek())))
          Text.push_back(advance());
      }
      if (peek() == 'e' || peek() == 'E') {
        IsReal = true;
        Text.push_back(advance());
        if (peek() == '+' || peek() == '-')
          Text.push_back(advance());
        // An exponent marker with no digits ("1e", "1e+", "2.5E-") is not
        // a number std::stod can parse downstream; reject it here with a
        // position instead of letting the parser throw.
        if (!std::isdigit(static_cast<unsigned char>(peek())))
          return make(TokenKind::Error,
                      "malformed real literal '" + Text +
                          "': exponent has no digits",
                      L, C);
        while (std::isdigit(static_cast<unsigned char>(peek())))
          Text.push_back(advance());
      }
      return make(IsReal ? TokenKind::Real : TokenKind::Integer,
                  std::move(Text), L, C);
    }
    if (Ch == '"') {
      advance();
      std::string Text;
      while (peek() && peek() != '"')
        Text.push_back(advance());
      if (!peek())
        return make(TokenKind::Error, "unterminated string literal", L, C);
      advance();
      return make(TokenKind::StringLiteral, std::move(Text), L, C);
    }

    advance();
    switch (Ch) {
    case '(':
      return make(TokenKind::LParen, "(", L, C);
    case ')':
      return make(TokenKind::RParen, ")", L, C);
    case '[':
      return make(TokenKind::LBracket, "[", L, C);
    case ']':
      return make(TokenKind::RBracket, "]", L, C);
    case '{':
      return make(TokenKind::LBrace, "{", L, C);
    case '}':
      return make(TokenKind::RBrace, "}", L, C);
    case ';':
      return make(TokenKind::Semicolon, ";", L, C);
    case ',':
      return make(TokenKind::Comma, ",", L, C);
    case '+':
      return make(TokenKind::Plus, "+", L, C);
    case '*':
      return make(TokenKind::Star, "*", L, C);
    case '/':
      return make(TokenKind::Slash, "/", L, C);
    case '^':
      return make(TokenKind::Caret, "^", L, C);
    case '-':
      if (peek() == '>') {
        advance();
        return make(TokenKind::Arrow, "->", L, C);
      }
      return make(TokenKind::Minus, "-", L, C);
    case '=':
      if (peek() == '=') {
        advance();
        return make(TokenKind::Equals, "==", L, C);
      }
      return make(TokenKind::Error, "stray '='", L, C);
    default:
      return make(TokenKind::Error,
                  std::string("unexpected character '") + Ch + "'", L, C);
    }
  }

  const std::string &Source;
  const CancellationToken *Cancel;
  size_t Pos = 0;
  unsigned Line = 1;
  unsigned Column = 1;
};

} // namespace

std::vector<Token> qasm::tokenize(const std::string &Source,
                                  const CancellationToken *Cancel) {
  return LexerImpl(Source, Cancel).run();
}
