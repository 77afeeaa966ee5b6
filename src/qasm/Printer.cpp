//===- qasm/Printer.cpp - Circuit to OpenQASM 2.0 export ----------------------===//
//
// Part of the Qlosure project. Distributed under the MIT license.
//
//===----------------------------------------------------------------------===//

#include "qasm/Printer.h"

#include <charconv>

using namespace qlosure;
using namespace qlosure::qasm;

std::string qasm::printQasm(const Circuit &Circ) {
  std::string Out;
  // ~16 bytes per parameterless gate; one growth at most for the rest.
  Out.reserve(64 + 20 * Circ.size());
  char Buf[32];
  auto number = [&](auto Value) {
    Out.append(Buf, std::to_chars(Buf, Buf + sizeof(Buf), Value).ptr);
  };
  // The same bytes as printf's "%.17g": exact, and read back exactly.
  auto angle = [&](double Value) {
    Out.append(Buf, std::to_chars(Buf, Buf + sizeof(Buf), Value,
                                  std::chars_format::general, 17)
                        .ptr);
  };
  auto qubit = [&](const char *Reg, int32_t Q) {
    Out += Reg;
    number(Q);
    Out += ']';
  };

  Out += "OPENQASM 2.0;\ninclude \"qelib1.inc\";\n";
  qubit("qreg q[", int32_t(Circ.numQubits()));
  Out += ";\n";
  for (const Gate &G : Circ.gates())
    if (G.Kind == GateKind::Measure) {
      qubit("creg c[", int32_t(Circ.numQubits()));
      Out += ";\n";
      break;
    }

  for (const Gate &G : Circ.gates()) {
    if (G.Kind == GateKind::Measure) {
      qubit("measure q[", G.Qubits[0]);
      qubit(" -> c[", G.Qubits[0]);
      Out += ";\n";
      continue;
    }
    if (G.Kind == GateKind::Barrier) {
      qubit("barrier q[", G.Qubits[0]);
      Out += ";\n";
      continue;
    }
    Out += gateName(G.Kind);
    for (unsigned I = 0, NP = G.numParams(); I < NP; ++I) {
      Out += I ? ',' : '(';
      angle(G.Params[I]);
    }
    if (G.numParams())
      Out += ')';
    for (unsigned I = 0, NQ = G.numQubits(); I < NQ; ++I)
      qubit(I ? ",q[" : " q[", G.Qubits[I]);
    Out += ";\n";
  }
  return Out;
}
