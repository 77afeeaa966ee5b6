//===- tests/QasmCorpus.h - Shared OpenQASM inputs for frontend tests ----*- C++ -*-===//
//
// Part of the Qlosure project. Distributed under the MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The OpenQASM 2.0 inputs QasmGoldenTest pins and QasmFuzzTest mutates:
/// the committed tests/data files, printQasm of generated circuits, and
/// hand-written programs covering the language surface the importer
/// accepts, plus malformed and hostile programs it must reject.
///
//===----------------------------------------------------------------------===//

#ifndef QLOSURE_TESTS_QASMCORPUS_H
#define QLOSURE_TESTS_QASMCORPUS_H

#include "qasm/Printer.h"
#include "topology/Backends.h"
#include "workloads/QasmBench.h"
#include "workloads/Queko.h"

#include <fstream>
#include <sstream>
#include <string>
#include <vector>

namespace qlosure {
namespace qasm_corpus {

struct Case {
  std::string Name;
  std::string Source;
};

inline std::string readDataFile(const std::string &File) {
  std::ifstream In(std::string(QLOSURE_TEST_DATA_DIR) + "/" + File);
  std::stringstream Buffer;
  Buffer << In.rdbuf();
  return Buffer.str();
}

inline std::string quekoText(const CouplingGraph &Device, unsigned Depth,
                             uint64_t Seed) {
  QuekoSpec Spec;
  Spec.Depth = Depth;
  Spec.Seed = Seed;
  return qasm::printQasm(generateQueko(Device, Spec).Circ);
}

/// \p Levels nested definitions, each calling the previous twice, and one
/// call of the last: 2^Levels gates from O(Levels) bytes.
inline std::string doublingText(unsigned Levels) {
  std::string Text = "qreg q[1];\ngate g0 a { h a; }\n";
  for (unsigned I = 1; I <= Levels; ++I)
    Text += "gate g" + std::to_string(I) + " a { g" + std::to_string(I - 1) +
            " a; g" + std::to_string(I - 1) + " a; }\n";
  return Text + "g" + std::to_string(Levels) + " q[0];\n";
}

/// \p Levels nested definitions, each calling the previous once and
/// adding an x: a nesting chain Levels + 1 bodies deep.
inline std::string chainText(unsigned Levels) {
  std::string Text = "qreg q[1];\ngate g0 a { h a; }\n";
  for (unsigned I = 1; I <= Levels; ++I)
    Text += "gate g" + std::to_string(I) + " a { g" + std::to_string(I - 1) +
            " a; x a; }\n";
  return Text + "g" + std::to_string(Levels) + " q[0];\n";
}

/// Programs that import. The generated ones are large (up to 122 KB).
inline std::vector<Case> validCases() {
  std::vector<Case> Cases = {
      {"file_barriered_ghz", readDataFile("barriered_ghz.qasm")},
      {"file_queko16", readDataFile("queko-16qbt-d25-s42.qasm")},
      {"queko_aspen16_d25_s3", quekoText(makeAspen16(), 25, 3)},
      {"queko_sycamore54_d500_s1", quekoText(makeSycamore54(), 500, 1)},
      {"queko_kings9x9_d60_s2", quekoText(makeKings9x9(), 60, 2)},
      {"qft16", qasm::printQasm(makeQft(16))},
      {"qft8_cp", qasm::printQasm(makeQft(8, /*DecomposeCp=*/false))},
      {"adder10", qasm::printQasm(makeAdder(10))},
      {"user_gate_params",
       "OPENQASM 2.0;\ninclude \"qelib1.inc\";\nqreg q[3];\n"
       "gate rot(theta, phi) a, b {\n"
       "  rz(theta) a; cx a, b; ry(phi / 2) b; u3(theta, phi, -theta) a;\n"
       "}\n"
       "rot(0.3, 1.7) q[0], q[2];\nrot(pi/3, -pi) q[1], q[0];\n"},
      {"nested_user_gates",
       "OPENQASM 2.0;\nqreg q[4];\n"
       "gate inner(t) a, b { cx a, b; rz(2*t) b; cx a, b; }\n"
       "gate middle(t, s) a, b, c { inner(t + s) a, b; inner(t - s) b, c; "
       "rx(s^2) a; }\n"
       "gate outer(x) a, b, c, d { middle(x, x/3) a, b, c; "
       "middle(-x, 0.25) b, c, d; }\n"
       "outer(0.7) q[0], q[1], q[2], q[3];\n"
       "outer(1.1) q[3], q[2], q[1], q[0];\n"},
      {"broadcast_registers",
       "OPENQASM 2.0;\nqreg a[3];\nqreg b[3];\ncreg c[3];\n"
       "h a;\ncx a, b;\ncx a[0], b;\nrz(0.5) b;\nswap a, b;\n"
       "measure a -> c;\n"},
      {"pi_power_unary_minus",
       "qreg q[2];\nrz(-pi^2/4) q[0];\nrx(2^-3) q[1];\n"
       "ry(-(pi - 1)^2) q[0];\np(--pi) q[1];\nu2(-2^2, 3^2^0.5) q[0];\n"
       "rz(1+2*3) q[1];\nrz(-2^2) q[0];\nrz(8/4/2) q[1];\nrz(1-2-3) q[0];\n"},
      {"math_functions",
       "qreg q[2];\nrz(sin(pi/6)) q[0];\nrz(cos(0.3)+tan(0.2)) q[1];\n"
       "rz(exp(-1)*ln(10)) q[0];\nrz(sqrt(2)/2) q[1];\n"
       "gate f(t) a { rz(sin(t)*cos(t)) a; rx(exp(ln(t))) a; "
       "ry(sqrt(t^2)) a; p(tan(-t)) a; }\n"
       "f(0.4) q[1];\n"},
      {"comments",
       "// leading comment\nOPENQASM 2.0; // header\n/* block\n comment */\n"
       "qreg q[2]; /* inline */ h q[0];\n"
       "cx /* between */ q[0], // trailing\n q[1];\n"
       "// final comment without newline"},
      {"measure_barrier_reset",
       "qreg q[3];\ncreg c[3];\nreset q[0];\nh q[1];\n"
       "barrier q[0], q[1];\nbarrier q;\nmeasure q -> c;\n"
       "measure q[1] -> c[0];\nreset q;\n"},
      {"several_qregs",
       "qreg a[2];\nqreg b[5];\nqreg c1[1];\ncx a[1], b[4];\n"
       "ccx a[0], b[2], c1[0];\ncswap c1[0], a[0], b[0];\nh c1;\n"},
      {"real_literal_forms",
       "qreg q[1];\nrz(1e-3) q[0];\nrz(.5) q[0];\nrz(2.) q[0];\n"
       "rz(1.5E+2) q[0];\nrz(0.5e0) q[0];\nrz(12345678901234567890) q[0];\n"
       "rz(3.14159265358979323846264338327950288) q[0];\n"
       "rz(0.1e-320) q[0];\nrz(1e400) q[0];\nrz(007) q[0];\n"},
      {"every_builtin",
       "qreg q[3];\nid q[0];\nx q[0];\ny q[1];\nz q[2];\nh q[0];\ns q[1];\n"
       "sdg q[2];\nt q[0];\ntdg q[1];\nsx q[2];\nrx(0.1) q[0];\n"
       "ry(0.2) q[1];\nrz(0.3) q[2];\np(0.4) q[0];\nu1(0.5) q[1];\n"
       "u2(0.6, 0.7) q[2];\nu3(0.8, 0.9, 1.0) q[0];\nu(1.1, 1.2, 1.3) q[1];\n"
       "cx q[0], q[1];\nCX q[1], q[2];\ncz q[2], q[0];\ncp(1.4) q[0], q[2];\n"
       "cu1(1.5) q[1], q[0];\ncrz(1.6) q[2], q[1];\nrzz(1.7) q[0], q[1];\n"
       "ch q[1], q[2];\ncy q[2], q[0];\nswap q[0], q[2];\n"
       "ccx q[0], q[1], q[2];\ncswap q[2], q[0], q[1];\n"},
      {"body_barrier_empty_params_shadowing",
       "qreg q[2];\n"
       "gate g() a, b { h a; barrier a, b; cx a, b; }\n"
       "gate rzz(t) a, b { cx a, b; rz(t) b; cx a, b; }\n"
       "gate same(a) a { rz(a) a; }\n"
       "g() q[0], q[1];\ng q[1], q[0];\nrzz(0.2) q[0], q[1];\n"
       "same(0.9) q[1];\n"},
      {"qreg_between_gates",
       "qreg a[2];\nh a[0];\nqreg b[2];\ncx a[0], b[1];\nh b;\n"},
      {"whitespace_no_header",
       "qreg q[2];\r\n\th q[0];\tcx q[0],q[1] ;\r\n  x  q [ 1 ] ;"},
      {"user_gate_broadcast",
       "qreg x[3];\nqreg y[3];\ngate bell a, b { h a; cx a, b; }\n"
       "bell x, y;\nbell x[0], y;\nbell x, y[2];\n"},
      {"doubling10", doublingText(10)},
      {"chain60", chainText(60)},
      {"empty_program", "OPENQASM 2.0;\ninclude \"qelib1.inc\";\n"},
  };
  return Cases;
}

/// Programs that must fail to import.
inline std::vector<Case> hostileCases() {
  std::string Broadcasts = "qreg q[65536];\n";
  for (int I = 0; I < 64; ++I)
    Broadcasts += "h q;\n";
  Broadcasts += "h q[0];\n";
  // One statement over the budget on its own: 128 gates x 2^16 qubits.
  std::string BroadcastCall = "gate g a {";
  for (int I = 0; I < 128; ++I)
    BroadcastCall += " h a;";
  BroadcastCall += " }\nqreg q[65536];\ng q;\n";
  std::string PlusChain = "2";
  for (int I = 0; I < 200000; ++I)
    PlusChain += "+2";
  return {
      {"huge_register", "OPENQASM 2.0;\nqreg q[2000000000];\nh q;\n"},
      {"registers_sum_over_budget", "qreg a[40000]; qreg b[40000]; h a[0];"},
      {"doubling40", doublingText(40)},
      {"broadcasts_over_budget", Broadcasts},
      {"broadcast_call_over_budget", BroadcastCall},
      {"deep_parens", "qreg q[1];\nrz(" + std::string(20000, '(') + "1" +
                          std::string(20000, ')') + ") q[0];\n"},
      {"deep_unary_minus",
       "qreg q[1];\nrz(" + std::string(200000, '-') + "1) q[0];\n"},
      {"long_plus_chain", "qreg q[1];\nrz(" + PlusChain + ") q[0];\n"},
      {"chain70_too_deep", chainText(70)},
      {"unknown_gate", "qreg q[1]; frobnicate q[0];"},
      {"missing_final_semicolon", "qreg q[1]; h q[0]"},
      {"missing_comma", "qreg q[2];\ncx q[0] q[1];"},
      {"unterminated_string", "include \"qelib1.inc;\nqreg q[1];\n"},
      {"classical_if", "qreg q[1]; creg c[1]; if (c==1) x q[0];"},
      {"repeated_operand", "qreg q[2]; cx q[1],q[1];"},
      {"index_out_of_range", "qreg q[2]; h q[5];"},
      {"broadcast_mismatch", "qreg a[2]; qreg b[3]; cx a, b;"},
      {"opaque_gate", "opaque g a;\nqreg q[1];\nh q[0];\n"},
      {"unknown_register", "qreg q[1]; h r[0];"},
      {"user_gate_arity", "gate g a,b { cx a,b; }\nqreg q[2]; g q[0];"},
      {"builtin_param_count", "qreg q[1]; rz q[0];"},
      {"builtin_extra_param", "qreg q[1]; rz(1,2) q[0];"},
      {"stray_character", "qreg q[1]; h q[0]; $"},
      {"malformed_exponent", "qreg q[1];\nrx(1e) q[0];\n"},
      {"duplicate_qreg", "qreg q[1]; qreg q[2]; h q[0];"},
      {"unknown_formal_qubit", "gate g a { h b; }\nqreg q[1]; g q[0];"},
      {"unbound_parameter", "qreg q[1]; rz(theta) q[0];"},
      {"unbalanced_brace", "gate g a { h a;\nqreg q[1];\n"},
  };
}

} // namespace qasm_corpus
} // namespace qlosure

#endif // QLOSURE_TESTS_QASMCORPUS_H
