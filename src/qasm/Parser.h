//===- qasm/Parser.h - OpenQASM 2.0 parser -----------------------*- C++ -*-===//
//
// Part of the Qlosure project. Distributed under the MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Recursive-descent parser for OpenQASM 2.0. Returns either a Program or a
/// diagnostic with source position; the library never throws.
///
//===----------------------------------------------------------------------===//

#ifndef QLOSURE_QASM_PARSER_H
#define QLOSURE_QASM_PARSER_H

#include "qasm/Ast.h"

#include <string>

namespace qlosure {

class CancellationToken;

namespace qasm {

/// Outcome of a parse: exactly one of Program/Error is meaningful.
struct ParseResult {
  std::optional<Program> Prog;
  std::string Error;

  bool succeeded() const { return Prog.has_value(); }
};

/// Parses OpenQASM 2.0 source text. `include "qelib1.inc";` is recognized
/// and recorded; the standard gates are built in, so no file access occurs.
/// \p Cancel, when set, is polled while lexing and every few hundred
/// statements; once it fires the parse fails early.
ParseResult parseQasm(const std::string &Source,
                      const CancellationToken *Cancel = nullptr);

} // namespace qasm
} // namespace qlosure

#endif // QLOSURE_QASM_PARSER_H
