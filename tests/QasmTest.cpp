//===- tests/QasmTest.cpp - OpenQASM frontend tests -------------------------------===//
//
// Part of the Qlosure project. Distributed under the MIT license.
//
//===----------------------------------------------------------------------===//

#include "qasm/Importer.h"
#include "qasm/Printer.h"
#include "support/StringUtils.h"

#include <gtest/gtest.h>

#include <sys/resource.h>

#include <chrono>
#include <cmath>
#include <cstdlib>
#include <cstring>
#include <limits>
#include <string>

using namespace qlosure;
using namespace qlosure::qasm;

//===----------------------------------------------------------------------===//
// Lexing, observed through importQasm
//===----------------------------------------------------------------------===//

TEST(LexerTest, BasicTokens) {
  auto R = importQasm("qreg q[2];cx q[0],q[1];");
  ASSERT_TRUE(R.succeeded()) << R.Error;
  ASSERT_EQ(R.Circ->size(), 1u);
  EXPECT_EQ(R.Circ->gate(0).Kind, GateKind::CX);
  EXPECT_EQ(R.Circ->gate(0).Qubits[0], 0);
  EXPECT_EQ(R.Circ->gate(0).Qubits[1], 1);
}

TEST(LexerTest, CommentsSkipped) {
  auto R = importQasm("// line h q;\nqreg q[1];\nh /* block x q; */ q;\n"
                      "/* multi\nline */ // trailing");
  ASSERT_TRUE(R.succeeded()) << R.Error;
  ASSERT_EQ(R.Circ->size(), 1u);
  EXPECT_EQ(R.Circ->gate(0).Kind, GateKind::H);
}

TEST(LexerTest, NumbersAndArrow) {
  auto R = importQasm("qreg q[8]; creg c[8]; rz(3.25e-2) q[7]; "
                      "measure q[7] -> c[7];");
  ASSERT_TRUE(R.succeeded()) << R.Error;
  ASSERT_EQ(R.Circ->size(), 2u);
  EXPECT_EQ(R.Circ->gate(0).Params[0], 3.25e-2);
  EXPECT_EQ(R.Circ->gate(0).Qubits[0], 7);
  EXPECT_EQ(R.Circ->gate(1).Kind, GateKind::Measure);
}

TEST(LexerTest, PositionsTracked) {
  auto R = importQasm("qreg q[1];\nh q;\ncx a,b;");
  ASSERT_FALSE(R.succeeded());
  EXPECT_TRUE(startsWith(R.Error, "line 3, column 4: ")) << R.Error;
}

TEST(LexerTest, ErrorToken) {
  auto R = importQasm("qreg q[1]; h q[0]; $");
  ASSERT_FALSE(R.succeeded());
  EXPECT_TRUE(startsWith(R.Error, "line 1, column 20: ")) << R.Error;
  EXPECT_NE(R.Error.find("unexpected character '$'"), std::string::npos);
}

TEST(LexerTest, MalformedExponentIsError) {
  // An exponent marker with no digits is not a number.
  for (const char *Literal : {"1e", "1e+", "2.5E-", "1e)"}) {
    auto R = importQasm(std::string("qreg q[1];\nrx(") + Literal + " q[0];");
    ASSERT_FALSE(R.succeeded()) << Literal;
    EXPECT_TRUE(startsWith(R.Error, "line 2, column 4: ")) << R.Error;
    EXPECT_NE(R.Error.find("exponent"), std::string::npos) << R.Error;
  }
}

TEST(LexerTest, WellFormedExponentsStillLex) {
  for (const char *Literal :
       {"1e5", "1e+5", "2.5E-3", "0.5e0", ".5", "2.", "007"}) {
    auto R = importQasm(std::string("qreg q[1]; rx(") + Literal + ") q[0];");
    ASSERT_TRUE(R.succeeded()) << Literal << ": " << R.Error;
    EXPECT_EQ(R.Circ->gate(0).Params[0], std::strtod(Literal, nullptr))
        << Literal;
  }
}

TEST(LexerTest, UnterminatedStringIsError) {
  auto R = importQasm("include \"qelib1.inc;\nqreg q[1];\n");
  ASSERT_FALSE(R.succeeded());
  EXPECT_TRUE(startsWith(R.Error, "line 1, column 9: ")) << R.Error;
  EXPECT_NE(R.Error.find("unterminated"), std::string::npos);
}

TEST(ParserTest, MalformedExponentSurfacesAsParseError) {
  auto R = importQasm("OPENQASM 2.0;\nqreg q[1];\nrx(1e) q[0];\n");
  EXPECT_FALSE(R.succeeded());
  EXPECT_NE(R.Error.find("exponent"), std::string::npos) << R.Error;
}

//===----------------------------------------------------------------------===//
// Statements and expressions
//===----------------------------------------------------------------------===//

TEST(ParserTest, HeaderAndRegisters) {
  auto R = importQasm("OPENQASM 2.0;\ninclude \"qelib1.inc\";\nqreg q[5];\n"
                      "creg c[5];\n");
  ASSERT_TRUE(R.succeeded()) << R.Error;
  EXPECT_EQ(R.Circ->numQubits(), 5u);
  EXPECT_EQ(R.Circ->size(), 0u);
}

TEST(ParserTest, GateCallWithParams) {
  auto R = importQasm("qreg q[2]; rz(pi/4) q[1];");
  ASSERT_TRUE(R.succeeded()) << R.Error;
  ASSERT_EQ(R.Circ->size(), 1u);
  EXPECT_EQ(R.Circ->gate(0).Kind, GateKind::RZ);
  EXPECT_EQ(R.Circ->gate(0).Qubits[0], 1);
  EXPECT_NEAR(R.Circ->gate(0).Params[0], M_PI / 4, 1e-12);
}

TEST(ParserTest, ExpressionPrecedence) {
  auto R = importQasm("qreg q[1]; rz(1+2*3) q[0];");
  ASSERT_TRUE(R.succeeded()) << R.Error;
  EXPECT_DOUBLE_EQ(R.Circ->gate(0).Params[0], 7.0);
}

TEST(ParserTest, UnaryMinusAndPower) {
  auto R = importQasm("qreg q[1]; rz(-2^2) q[0];");
  ASSERT_TRUE(R.succeeded()) << R.Error;
  EXPECT_DOUBLE_EQ(R.Circ->gate(0).Params[0], -4.0);
}

TEST(ParserTest, GateDefinition) {
  auto R = importQasm("gate majority a,b,c { cx c,b; cx c,a; ccx a,b,c; }\n"
                      "qreg q[3]; majority q[0],q[1],q[2];");
  ASSERT_TRUE(R.succeeded()) << R.Error;
  ASSERT_EQ(R.Circ->size(), 3u);
  EXPECT_EQ(R.Circ->gate(0).Qubits[0], 2);
  EXPECT_EQ(R.Circ->gate(0).Qubits[1], 1);
  EXPECT_EQ(R.Circ->gate(1).Qubits[1], 0);
  EXPECT_EQ(R.Circ->gate(2).Kind, GateKind::CCX);
}

TEST(ParserTest, MeasureAndBarrier) {
  auto R = importQasm("qreg q[2]; creg c[2]; measure q[0] -> c[0]; "
                      "barrier q;");
  ASSERT_TRUE(R.succeeded()) << R.Error;
  ASSERT_EQ(R.Circ->size(), 3u);
  EXPECT_EQ(R.Circ->gate(0).Kind, GateKind::Measure);
  EXPECT_EQ(R.Circ->gate(1).Kind, GateKind::Barrier);
  EXPECT_EQ(R.Circ->gate(2).Qubits[0], 1);
}

TEST(ParserTest, ErrorsCarryPosition) {
  auto R = importQasm("qreg q[2];\ncx q[0] q[1];"); // Missing comma.
  ASSERT_FALSE(R.succeeded());
  EXPECT_NE(R.Error.find("line 2"), std::string::npos);
}

TEST(ParserTest, RejectsClassicalControl) {
  auto R = importQasm("qreg q[1]; creg c[1]; if (c==1) x q[0];");
  ASSERT_FALSE(R.succeeded());
  EXPECT_NE(R.Error.find("'if'"), std::string::npos) << R.Error;
}

// Parentheses, unary minus and '^' recurse, and operator chains count
// one level per operator; hostile nesting must end in a positioned error,
// not a stack overflow.
TEST(ParserTest, DeepNestingFailsCleanly) {
  auto chain = [](const char *Link, int Count) {
    std::string Text = "2";
    for (int I = 0; I < Count; ++I)
      Text += Link;
    return Text;
  };
  const std::string Deep[] = {
      std::string(20000, '(') + "1" + std::string(20000, ')'),
      std::string(200000, '-') + "1",
      chain("^2", 20000),
      chain("+2", 200000),
      chain("*2", 200000),
  };
  for (const std::string &Expr : Deep) {
    auto R = importQasm("OPENQASM 2.0;\nqreg q[1];\nrz(" + Expr + ") q[0];\n");
    ASSERT_FALSE(R.succeeded()) << Expr.substr(0, 16);
    EXPECT_EQ(R.Error.rfind("line 3, column ", 0), 0u) << R.Error;
    EXPECT_NE(R.Error.find("nested too deeply"), std::string::npos)
        << R.Error;
    // The bound holds inside gate bodies too.
    auto Body = importQasm("qreg q[1];\ngate g(t) a { rz(" + Expr +
                           ") a; }\ng(1) q[0];\n");
    ASSERT_FALSE(Body.succeeded());
    EXPECT_EQ(Body.Error.rfind("line 2, column ", 0), 0u) << Body.Error;
  }
}

TEST(ParserTest, ModerateNestingStillParses) {
  auto R = importQasm("qreg q[1]; rz(" + std::string(100, '(') + "-pi/2" +
                      std::string(100, ')') + "^--2) q[0];");
  ASSERT_TRUE(R.succeeded()) << R.Error;
  EXPECT_DOUBLE_EQ(R.Circ->gate(0).Params[0], M_PI * M_PI / 4);
}

//===----------------------------------------------------------------------===//
// Importer
//===----------------------------------------------------------------------===//

TEST(ImporterTest, SimpleProgram) {
  auto R = importQasm("OPENQASM 2.0; qreg q[3]; h q[0]; cx q[0],q[1]; "
                      "cx q[1],q[2];");
  ASSERT_TRUE(R.succeeded()) << R.Error;
  EXPECT_EQ(R.Circ->numQubits(), 3u);
  EXPECT_EQ(R.Circ->size(), 3u);
  EXPECT_EQ(R.Circ->gate(1).Kind, GateKind::CX);
}

TEST(ImporterTest, MultipleQregsFlatten) {
  auto R = importQasm("qreg a[2]; qreg b[3]; cx a[1],b[0];");
  ASSERT_TRUE(R.succeeded()) << R.Error;
  EXPECT_EQ(R.Circ->numQubits(), 5u);
  EXPECT_EQ(R.Circ->gate(0).Qubits[0], 1);
  EXPECT_EQ(R.Circ->gate(0).Qubits[1], 2); // b[0] is flat index 2.
}

TEST(ImporterTest, BroadcastSingleQubitGate) {
  auto R = importQasm("qreg q[4]; h q;");
  ASSERT_TRUE(R.succeeded()) << R.Error;
  EXPECT_EQ(R.Circ->size(), 4u);
}

TEST(ImporterTest, BroadcastTwoQubitGate) {
  auto R = importQasm("qreg a[3]; qreg b[3]; cx a,b;");
  ASSERT_TRUE(R.succeeded()) << R.Error;
  EXPECT_EQ(R.Circ->size(), 3u);
  EXPECT_EQ(R.Circ->gate(2).Qubits[0], 2);
  EXPECT_EQ(R.Circ->gate(2).Qubits[1], 5);
}

TEST(ImporterTest, UserGateInlining) {
  auto R = importQasm("gate entangle(t) a,b { h a; cx a,b; rz(t) b; }\n"
                      "qreg q[2]; entangle(0.5) q[0],q[1];");
  ASSERT_TRUE(R.succeeded()) << R.Error;
  ASSERT_EQ(R.Circ->size(), 3u);
  EXPECT_EQ(R.Circ->gate(0).Kind, GateKind::H);
  EXPECT_EQ(R.Circ->gate(2).Kind, GateKind::RZ);
  EXPECT_DOUBLE_EQ(R.Circ->gate(2).Params[0], 0.5);
}

TEST(ImporterTest, NestedUserGates) {
  auto R = importQasm(
      "gate inner a,b { cx a,b; }\n"
      "gate outer a,b,c { inner a,b; inner b,c; }\n"
      "qreg q[3]; outer q[0],q[1],q[2];");
  ASSERT_TRUE(R.succeeded()) << R.Error;
  EXPECT_EQ(R.Circ->size(), 2u);
}

TEST(ImporterTest, MeasureLowered) {
  auto R = importQasm("qreg q[2]; creg c[2]; measure q -> c;");
  ASSERT_TRUE(R.succeeded()) << R.Error;
  EXPECT_EQ(R.Circ->size(), 2u);
  EXPECT_EQ(R.Circ->gate(0).Kind, GateKind::Measure);
}

TEST(ImporterTest, ErrorsOnUnknownGate) {
  auto R = importQasm("qreg q[1]; frobnicate q[0];");
  ASSERT_FALSE(R.succeeded());
  EXPECT_NE(R.Error.find("frobnicate"), std::string::npos);
}

TEST(ImporterTest, ErrorsOnRepeatedOperand) {
  auto R = importQasm("qreg q[2]; cx q[1],q[1];");
  ASSERT_FALSE(R.succeeded());
}

TEST(ImporterTest, ErrorsOnIndexOutOfRange) {
  auto R = importQasm("qreg q[2]; h q[5];");
  ASSERT_FALSE(R.succeeded());
}

TEST(ImporterTest, ErrorsOnArityMismatch) {
  auto R = importQasm("qreg q[3]; cx q[0];");
  ASSERT_FALSE(R.succeeded());
}

// OpenQASM 2.0 declares before use; the importer reads in one pass, so a
// register or gate used before its declaration is unknown at that point.
TEST(ImporterTest, DeclarationPrecedesUse) {
  auto LateReg = importQasm("h q[0];\nqreg q[1];\n");
  ASSERT_FALSE(LateReg.succeeded());
  EXPECT_TRUE(startsWith(LateReg.Error, "line 1, column 3: ")) << LateReg.Error;
  EXPECT_NE(LateReg.Error.find("unknown quantum register 'q'"),
            std::string::npos);

  auto LateGate = importQasm("qreg q[1];\ng q[0];\ngate g a { h a; }\n");
  ASSERT_FALSE(LateGate.succeeded());
  EXPECT_TRUE(startsWith(LateGate.Error, "line 2, column 1: "))
      << LateGate.Error;
  EXPECT_NE(LateGate.Error.find("unknown gate 'g'"), std::string::npos);

  // A body may only call gates defined before it, so no definition can
  // call itself.
  auto Recursive = importQasm("qreg q[1];\ngate g a { g a; }\ng q[0];\n");
  ASSERT_FALSE(Recursive.succeeded());
  EXPECT_NE(Recursive.Error.find("unknown gate 'g'"), std::string::npos);
  auto Forward = importQasm("qreg q[1];\ngate f a { g a; }\n"
                            "gate g a { h a; }\nf q[0];\n");
  ASSERT_FALSE(Forward.succeeded());

  auto InOrder = importQasm("qreg q[1];\ngate g a { h a; }\n"
                            "gate f a { g a; }\nf q[0];\n");
  ASSERT_TRUE(InOrder.succeeded()) << InOrder.Error;
  EXPECT_EQ(InOrder.Circ->size(), 1u);
}

TEST(ImporterTest, NestingPastTheLimitIsRejected) {
  std::string Chain = "qreg q[1];\ngate g0 a { h a; }\n";
  for (int I = 1; I <= 70; ++I)
    Chain += formatString("gate g%d a { g%d a; }\n", I, I - 1);
  auto Deep = importQasm(Chain + "g70 q[0];\n");
  ASSERT_FALSE(Deep.succeeded());
  EXPECT_FALSE(Deep.OverBudget);
  EXPECT_NE(Deep.Error.find("too deep"), std::string::npos) << Deep.Error;
  // Defining the chain is fine; a call at depth 63 still expands.
  auto Shallow = importQasm(Chain + "g63 q[0];\n");
  ASSERT_TRUE(Shallow.succeeded()) << Shallow.Error;
  EXPECT_EQ(Shallow.Circ->size(), 1u);
}

namespace {

/// \p Levels nested gate definitions, each calling the previous twice,
/// then one call of the last: 2^Levels gates from O(Levels) bytes.
std::string doublingGates(unsigned Levels) {
  std::string Text = "qreg q[1];\ngate g0 a { h a; }\n";
  for (unsigned I = 1; I <= Levels; ++I)
    Text += "gate g" + std::to_string(I) + " a { g" + std::to_string(I - 1) +
            " a; g" + std::to_string(I - 1) + " a; }\n";
  return Text + "g" + std::to_string(Levels) + " q[0];\n";
}

} // namespace

TEST(ImporterTest, HugeRegisterIsOverBudget) {
  auto R = importQasm("OPENQASM 2.0;\nqreg q[2000000000];\nh q;\n");
  ASSERT_FALSE(R.succeeded());
  EXPECT_TRUE(R.OverBudget);
  EXPECT_NE(R.Error.find("qubits"), std::string::npos) << R.Error;
  // Registers that only add up past the budget fail the same way.
  auto Sum = importQasm("qreg a[40000]; qreg b[40000]; h a[0];");
  ASSERT_FALSE(Sum.succeeded());
  EXPECT_TRUE(Sum.OverBudget);
  // Malformed input is not over budget.
  EXPECT_FALSE(importQasm("qreg q[1]; frobnicate q[0];").OverBudget);
}

TEST(ImporterTest, ExponentialGateExpansionIsOverBudget) {
  const auto Start = std::chrono::steady_clock::now();
  auto R = importQasm(doublingGates(40));
  const double Seconds = std::chrono::duration<double>(
                             std::chrono::steady_clock::now() - Start)
                             .count();
  ASSERT_FALSE(R.succeeded());
  EXPECT_TRUE(R.OverBudget);
  EXPECT_NE(R.Error.find("gates"), std::string::npos) << R.Error;
  // Rejected before any expansion, not after emitting the budget.
  EXPECT_LT(Seconds, 1.0);

  auto Small = importQasm(doublingGates(10));
  ASSERT_TRUE(Small.succeeded()) << Small.Error;
  EXPECT_EQ(Small.Circ->size(), 1024u);
}

TEST(ImporterTest, BroadcastGatesCountAgainstTheBudget) {
  // 64 broadcasts over the largest register emit exactly the gate budget
  // (2^22); one more gate is over it.
  std::string Text = "qreg q[65536];\n";
  for (int I = 0; I < 64; ++I)
    Text += "h q;\n";
  Text += "h q[0];\n";
  auto R = importQasm(Text);
  ASSERT_FALSE(R.succeeded());
  EXPECT_TRUE(R.OverBudget) << R.Error;
}

TEST(ImporterTest, OversizedBroadcastIsRejectedBeforeEmitting) {
  // A 128-gate user gate broadcast over the largest register expands to
  // 2^23 gates, twice the budget. The statement is rejected whole, before
  // its first gate: emitting the 2^22 that fit first would take ~160 MB
  // of gate IR and raise this process's peak RSS by at least that much.
  std::string Text = "gate g a {";
  for (int I = 0; I < 128; ++I)
    Text += " h a;";
  Text += " }\nqreg q[65536];\ng q;\n";
  rusage Before{};
  ASSERT_EQ(getrusage(RUSAGE_SELF, &Before), 0);
  const auto Start = std::chrono::steady_clock::now();
  auto R = importQasm(Text);
  const double Seconds = std::chrono::duration<double>(
                             std::chrono::steady_clock::now() - Start)
                             .count();
  rusage After{};
  ASSERT_EQ(getrusage(RUSAGE_SELF, &After), 0);
  ASSERT_FALSE(R.succeeded());
  EXPECT_TRUE(R.OverBudget) << R.Error;
  EXPECT_LT(Seconds, 1.0);
  EXPECT_LT(After.ru_maxrss - Before.ru_maxrss, 32 * 1024) // KiB.
      << "the importer emitted gates before rejecting the statement";

  // The same gate broadcast over a 1024-qubit register fits and imports.
  Text.replace(Text.find("65536"), 5, "1024");
  auto Fits = importQasm(Text);
  ASSERT_TRUE(Fits.succeeded()) << Fits.Error;
  EXPECT_EQ(Fits.Circ->size(), size_t(128) * 1024);
}

//===----------------------------------------------------------------------===//
// Printer round trip
//===----------------------------------------------------------------------===//

TEST(PrinterTest, RoundTripPreservesGates) {
  Circuit C(3, "rt");
  C.add1Q(GateKind::H, 0);
  C.add1Q(GateKind::RZ, 1, 0.25);
  C.addCx(0, 2);
  C.addSwap(1, 2);
  std::string Text = printQasm(C);
  auto R = importQasm(Text);
  ASSERT_TRUE(R.succeeded()) << R.Error;
  ASSERT_EQ(R.Circ->size(), C.size());
  for (size_t I = 0; I < C.size(); ++I) {
    EXPECT_EQ(R.Circ->gate(I).Kind, C.gate(I).Kind);
    EXPECT_EQ(R.Circ->gate(I).Qubits, C.gate(I).Qubits);
    EXPECT_NEAR(R.Circ->gate(I).Params[0], C.gate(I).Params[0], 1e-15);
  }
}

TEST(PrinterTest, EmitsMeasureWithCreg) {
  Circuit C(2);
  C.addGate(Gate(GateKind::Measure, 1));
  std::string Text = printQasm(C);
  EXPECT_NE(Text.find("creg c[2];"), std::string::npos);
  EXPECT_NE(Text.find("measure q[1] -> c[1];"), std::string::npos);
}

// printQasm writes angles with std::to_chars; they must be the bytes
// printf's "%.17g" writes, special values included.
TEST(PrinterTest, AnglesPrintAsPrintfG17) {
  const double Inf = std::numeric_limits<double>::infinity();
  const double NaN = std::numeric_limits<double>::quiet_NaN();
  std::vector<double> Values = {0.0,    -0.0,   Inf,     -Inf,   NaN,
                                -NaN,   M_PI,   -M_PI_2, 0.1,    1e-300,
                                1e300,  5e-324, -5e-324, 2.2250738585072009e-308,
                                1e16,   1e17,   123456789012345678.0};
  uint64_t State = 0x9E3779B97F4A7C15ULL;
  for (int I = 0; I < 20000; ++I) {
    State = State * 6364136223846793005ULL + 1442695040888963407ULL;
    double V;
    std::memcpy(&V, &State, sizeof(V));
    Values.push_back(V);
  }
  Circuit C(1);
  std::string Want = "OPENQASM 2.0;\ninclude \"qelib1.inc\";\nqreg q[1];\n";
  for (double V : Values) {
    C.add1Q(GateKind::RZ, 0, V);
    Want += formatString("rz(%.17g) q[0];\n", V);
  }
  EXPECT_EQ(printQasm(C), Want);
}
