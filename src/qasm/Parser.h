//===- qasm/Parser.h - Two-step names over importQasm ------------*- C++ -*-===//
//
// Part of the Qlosure project. Distributed under the MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// For callers that still time a "parse" and an "import" step: parseQasm
/// runs the whole importQasm; importProgram renames a copy of its result.
///
//===----------------------------------------------------------------------===//

#ifndef QLOSURE_QASM_PARSER_H
#define QLOSURE_QASM_PARSER_H

#include "qasm/Importer.h"

namespace qlosure {
namespace qasm {

struct ParseResult {
  std::optional<Circuit> Prog;
  std::string Error;

  bool succeeded() const { return Prog.has_value(); }
};

inline ParseResult parseQasm(const std::string &Source,
                             const CancellationToken *Cancel = nullptr) {
  ImportResult Imported = importQasm(Source, "", Cancel);
  return {std::move(Imported.Circ), std::move(Imported.Error)};
}

inline ImportResult importProgram(const Circuit &Prog,
                                  const std::string &Name = "") {
  ImportResult Result;
  Result.Circ = Prog;
  Result.Circ->setName(Name);
  return Result;
}

} // namespace qasm
} // namespace qlosure

#endif // QLOSURE_QASM_PARSER_H
