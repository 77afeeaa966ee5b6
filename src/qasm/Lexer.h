//===- qasm/Lexer.h - OpenQASM 2.0 lexer -------------------------*- C++ -*-===//
//
// Part of the Qlosure project. Distributed under the MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Tokenizer for OpenQASM 2.0 source. Produces a flat token stream with
/// line/column positions for diagnostics; comments are skipped.
///
//===----------------------------------------------------------------------===//

#ifndef QLOSURE_QASM_LEXER_H
#define QLOSURE_QASM_LEXER_H

#include <cstdint>
#include <string>
#include <vector>

namespace qlosure {

class CancellationToken;

namespace qasm {

enum class TokenKind : uint8_t {
  Identifier, ///< Includes keywords; the parser distinguishes them.
  Integer,
  Real,
  StringLiteral,
  LParen,
  RParen,
  LBracket,
  RBracket,
  LBrace,
  RBrace,
  Semicolon,
  Comma,
  Arrow, ///< "->"
  Equals, ///< "=="
  Plus,
  Minus,
  Star,
  Slash,
  Caret,
  EndOfFile,
  Error
};

struct Token {
  TokenKind Kind = TokenKind::Error;
  std::string Text;
  unsigned Line = 0;
  unsigned Column = 0;

  bool is(TokenKind K) const { return Kind == K; }
  bool isIdentifier(const char *Name) const {
    return Kind == TokenKind::Identifier && Text == Name;
  }
};

/// Tokenizes \p Source. On a lexical error the stream ends with an Error
/// token whose Text holds the message; otherwise it ends with EndOfFile.
/// \p Cancel, when set, is polled every few thousand tokens; once it
/// fires the stream ends early with an Error token.
std::vector<Token> tokenize(const std::string &Source,
                            const CancellationToken *Cancel = nullptr);

} // namespace qasm
} // namespace qlosure

#endif // QLOSURE_QASM_LEXER_H
