//===- tests/QasmTest.cpp - OpenQASM frontend tests -------------------------------===//
//
// Part of the Qlosure project. Distributed under the MIT license.
//
//===----------------------------------------------------------------------===//

#include "qasm/Importer.h"
#include "qasm/Lexer.h"
#include "qasm/Parser.h"
#include "qasm/Printer.h"

#include <gtest/gtest.h>

#include <chrono>
#include <cmath>
#include <string>

using namespace qlosure;
using namespace qlosure::qasm;

//===----------------------------------------------------------------------===//
// Lexer
//===----------------------------------------------------------------------===//

TEST(LexerTest, BasicTokens) {
  auto Tokens = tokenize("cx q[0],q[1];");
  ASSERT_GE(Tokens.size(), 9u);
  EXPECT_EQ(Tokens[0].Kind, TokenKind::Identifier);
  EXPECT_EQ(Tokens[0].Text, "cx");
  EXPECT_EQ(Tokens[2].Kind, TokenKind::LBracket);
  EXPECT_EQ(Tokens[3].Kind, TokenKind::Integer);
  EXPECT_EQ(Tokens.back().Kind, TokenKind::EndOfFile);
}

TEST(LexerTest, CommentsSkipped) {
  auto Tokens = tokenize("// line\nh /* block */ q;");
  EXPECT_EQ(Tokens[0].Text, "h");
  EXPECT_EQ(Tokens[1].Text, "q");
}

TEST(LexerTest, NumbersAndArrow) {
  auto Tokens = tokenize("3.25e-2 -> 7");
  EXPECT_EQ(Tokens[0].Kind, TokenKind::Real);
  EXPECT_EQ(Tokens[1].Kind, TokenKind::Arrow);
  EXPECT_EQ(Tokens[2].Kind, TokenKind::Integer);
}

TEST(LexerTest, PositionsTracked) {
  auto Tokens = tokenize("h q;\ncx a,b;");
  EXPECT_EQ(Tokens[0].Line, 1u);
  EXPECT_EQ(Tokens[3].Line, 2u); // "cx".
  EXPECT_EQ(Tokens[3].Column, 1u);
}

TEST(LexerTest, ErrorToken) {
  auto Tokens = tokenize("h q; $");
  EXPECT_EQ(Tokens.back().Kind, TokenKind::Error);
}

TEST(LexerTest, MalformedExponentIsError) {
  // An exponent marker with no digits must not lex as Real ("1e" used to
  // reach std::stod downstream and throw).
  for (const char *Source : {"1e", "1e+", "2.5E-", "rx(1e) q[0];"}) {
    auto Tokens = tokenize(Source);
    EXPECT_EQ(Tokens.back().Kind, TokenKind::Error) << Source;
    EXPECT_NE(Tokens.back().Text.find("exponent"), std::string::npos)
        << Source;
  }
}

TEST(LexerTest, WellFormedExponentsStillLex) {
  for (const char *Source : {"1e5", "1e+5", "2.5E-3", "0.5e0"}) {
    auto Tokens = tokenize(Source);
    ASSERT_EQ(Tokens.size(), 2u) << Source; // Real + EndOfFile.
    EXPECT_EQ(Tokens[0].Kind, TokenKind::Real) << Source;
    EXPECT_EQ(Tokens[0].Text, Source);
  }
}

TEST(LexerTest, UnterminatedStringIsError) {
  auto Tokens = tokenize("include \"qelib1.inc;\n");
  EXPECT_EQ(Tokens.back().Kind, TokenKind::Error);
  EXPECT_NE(Tokens.back().Text.find("unterminated"), std::string::npos);
}

TEST(ParserTest, MalformedExponentSurfacesAsParseError) {
  auto R = parseQasm("OPENQASM 2.0;\nqreg q[1];\nrx(1e) q[0];\n");
  EXPECT_FALSE(R.succeeded());
  EXPECT_NE(R.Error.find("exponent"), std::string::npos) << R.Error;
}

//===----------------------------------------------------------------------===//
// Parser
//===----------------------------------------------------------------------===//

TEST(ParserTest, HeaderAndRegisters) {
  auto R = parseQasm("OPENQASM 2.0;\ninclude \"qelib1.inc\";\nqreg q[5];\n"
                     "creg c[5];\n");
  ASSERT_TRUE(R.succeeded()) << R.Error;
  EXPECT_EQ(R.Prog->Version, "2.0");
  ASSERT_EQ(R.Prog->Includes.size(), 1u);
  EXPECT_EQ(R.Prog->Statements.size(), 2u);
  EXPECT_TRUE(R.Prog->Statements[0].Reg.IsQuantum);
  EXPECT_EQ(R.Prog->Statements[0].Reg.Size, 5u);
}

TEST(ParserTest, GateCallWithParams) {
  auto R = parseQasm("qreg q[2]; rz(pi/4) q[1];");
  ASSERT_TRUE(R.succeeded()) << R.Error;
  const GateCall &Call = R.Prog->Statements[1].Call;
  EXPECT_EQ(Call.Name, "rz");
  ASSERT_EQ(Call.Params.size(), 1u);
  auto V = Call.Params[0]->evaluate({});
  ASSERT_TRUE(V.has_value());
  EXPECT_NEAR(*V, M_PI / 4, 1e-12);
}

TEST(ParserTest, ExpressionPrecedence) {
  auto R = parseQasm("qreg q[1]; rz(1+2*3) q[0];");
  ASSERT_TRUE(R.succeeded()) << R.Error;
  auto V = R.Prog->Statements[1].Call.Params[0]->evaluate({});
  EXPECT_DOUBLE_EQ(*V, 7.0);
}

TEST(ParserTest, UnaryMinusAndPower) {
  auto R = parseQasm("qreg q[1]; rz(-2^2) q[0];");
  ASSERT_TRUE(R.succeeded()) << R.Error;
  auto V = R.Prog->Statements[1].Call.Params[0]->evaluate({});
  EXPECT_DOUBLE_EQ(*V, -4.0);
}

TEST(ParserTest, GateDefinition) {
  auto R = parseQasm("gate majority a,b,c { cx c,b; cx c,a; ccx a,b,c; }\n"
                     "qreg q[3]; majority q[0],q[1],q[2];");
  ASSERT_TRUE(R.succeeded()) << R.Error;
  const GateDef &Def = R.Prog->Statements[0].Gate;
  EXPECT_EQ(Def.Name, "majority");
  EXPECT_EQ(Def.QubitNames.size(), 3u);
  EXPECT_EQ(Def.Body.size(), 3u);
}

TEST(ParserTest, MeasureAndBarrier) {
  auto R = parseQasm("qreg q[2]; creg c[2]; measure q[0] -> c[0]; "
                     "barrier q;");
  ASSERT_TRUE(R.succeeded()) << R.Error;
  EXPECT_EQ(R.Prog->Statements[2].StmtKind, Statement::Kind::Measure);
  EXPECT_EQ(R.Prog->Statements[3].StmtKind, Statement::Kind::Barrier);
}

TEST(ParserTest, ErrorsCarryPosition) {
  auto R = parseQasm("qreg q[2];\ncx q[0] q[1];"); // Missing comma.
  ASSERT_FALSE(R.succeeded());
  EXPECT_NE(R.Error.find("line 2"), std::string::npos);
}

TEST(ParserTest, RejectsClassicalControl) {
  auto R = parseQasm("qreg q[1]; creg c[1]; if (c==1) x q[0];");
  EXPECT_FALSE(R.succeeded());
}

// Parentheses, unary minus and '^' recurse, and operator chains build
// equally deep trees; hostile nesting must end in a positioned parse
// error, not a stack overflow.
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
    auto R = parseQasm("OPENQASM 2.0;\nqreg q[1];\nrz(" + Expr + ") q[0];\n");
    ASSERT_FALSE(R.succeeded()) << Expr.substr(0, 16);
    EXPECT_EQ(R.Error.rfind("line 3, column ", 0), 0u) << R.Error;
    EXPECT_NE(R.Error.find("nested too deeply"), std::string::npos)
        << R.Error;
  }
}

TEST(ParserTest, ModerateNestingStillParses) {
  auto R = parseQasm("qreg q[1]; rz(" + std::string(100, '(') + "-pi/2" +
                     std::string(100, ')') + "^--2) q[0];");
  ASSERT_TRUE(R.succeeded()) << R.Error;
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
