//===- qasm/Importer.h - One-pass OpenQASM 2.0 importer ----------*- C++ -*-===//
//
// Part of the Qlosure project. Distributed under the MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Reads OpenQASM 2.0 source straight into the flat Circuit IR in one
/// pass, with no token list and no syntax tree: each top-level statement
/// is lowered as it is read (registers flatten into one index space,
/// parameters are evaluated, whole registers broadcast, user gates stored
/// in resolved form are inlined), so declarations must precede their use,
/// as OpenQASM 2.0 requires. The qelib1 gates are built in; `include`
/// reads no file.
///
/// Imports are bounded: a program that declares or expands to more than a
/// fixed budget of qubits or gates fails with ImportResult::OverBudget
/// before it can exhaust memory or time. Given a CancellationToken, the
/// import polls it and stops with ImportResult::Cancelled once it fires.
/// The library never throws; errors read "line L, column C: message".
///
//===----------------------------------------------------------------------===//

#ifndef QLOSURE_QASM_IMPORTER_H
#define QLOSURE_QASM_IMPORTER_H

#include "circuit/Circuit.h"

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

/// Imports \p Source as a Circuit named \p Name, polling \p Cancel when
/// set.
ImportResult importQasm(const std::string &Source,
                        const std::string &Name = "",
                        const CancellationToken *Cancel = nullptr);

} // namespace qasm
} // namespace qlosure

#endif // QLOSURE_QASM_IMPORTER_H
