//===- qasm/Importer.h - AST to circuit IR conversion ------------*- C++ -*-===//
//
// Part of the Qlosure project. Distributed under the MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Lowers a parsed OpenQASM 2.0 program to the flat Circuit IR: flattens
/// quantum registers into one index space, resolves the qelib1 builtin
/// gates, inlines user-defined gates recursively, applies whole-register
/// broadcasting, and evaluates parameter expressions. Imports are bounded:
/// a program that declares or expands to more than a fixed budget of
/// qubits or gates fails with ImportResult::OverBudget before it can
/// exhaust memory or time. An import can also be bounded from outside:
/// given a CancellationToken, lexing, parsing and lowering poll it and
/// stop with ImportResult::Cancelled once it fires.
///
//===----------------------------------------------------------------------===//

#ifndef QLOSURE_QASM_IMPORTER_H
#define QLOSURE_QASM_IMPORTER_H

#include "circuit/Circuit.h"
#include "qasm/Ast.h"

#include <optional>
#include <string>

namespace qlosure {

class CancellationToken;

namespace qasm {

/// Outcome of an import: exactly one of Circ/Error is meaningful.
struct ImportResult {
  std::optional<Circuit> Circ;
  std::string Error;
  /// The program is well formed but exceeds the import budget (declared
  /// qubits or emitted gates, see Importer.cpp); Error says which.
  bool OverBudget = false;
  /// The CancellationToken fired before the import finished.
  bool Cancelled = false;

  bool succeeded() const { return Circ.has_value(); }
};

/// Lowers \p Prog to a Circuit named \p Name, polling \p Cancel (when
/// set) every few thousand emitted gates.
ImportResult importProgram(const Program &Prog, const std::string &Name = "",
                           const CancellationToken *Cancel = nullptr);

/// Convenience: parse + import in one step, both polling \p Cancel.
ImportResult importQasm(const std::string &Source,
                        const std::string &Name = "",
                        const CancellationToken *Cancel = nullptr);

} // namespace qasm
} // namespace qlosure

#endif // QLOSURE_QASM_IMPORTER_H
