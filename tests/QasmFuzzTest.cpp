//===- tests/QasmFuzzTest.cpp - Deterministic QASM mutation fuzzing ------------===//
//
// Part of the Qlosure project. Distributed under the MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// A fixed-seed, fixed-count mutation fuzzer over importQasm. It mutates
/// the programs of tests/QasmCorpus.h (the tests/data files, generated
/// circuits, hand-written and hostile programs) by byte flips, inserts,
/// deletes, slice copies and splices of QASM fragments and long digit
/// runs. Every input must end in a circuit or a non-empty error, never a
/// crash, and an imported circuit must be well formed and survive a
/// printQasm round trip. Run under the sanitizers it also checks memory
/// safety. Plain C++: no libFuzzer is needed.
///
//===----------------------------------------------------------------------===//

#include "QasmCorpus.h"

#include "qasm/Importer.h"
#include "support/Fingerprint.h"

#include <gtest/gtest.h>

#include <cmath>

using namespace qlosure;

namespace {

constexpr uint64_t FuzzSeed = 0x51A5C0DE2026ULL;
constexpr int FuzzIterations = 20000;
/// Seeds above this size are skipped to keep an iteration cheap.
constexpr size_t MaxSeedBytes = 4096;
/// Each of its statements fits the gate budget on its own; only their
/// sum is over it, so a one-pass importer must emit the whole budget
/// (~160 MB) before it can reject the program, and its mutants would make
/// the run minutes long. broadcast_call_over_budget, one statement over
/// the budget, is rejected before its first gate and stays in.
const char *const SlowSeed = "broadcasts_over_budget";

/// splitmix64.
struct Rng {
  uint64_t State;
  uint64_t next() {
    uint64_t Z = (State += 0x9E3779B97F4A7C15ULL);
    Z = (Z ^ (Z >> 30)) * 0xBF58476D1CE4E5B9ULL;
    Z = (Z ^ (Z >> 27)) * 0x94D049BB133111EBULL;
    return Z ^ (Z >> 31);
  }
  size_t below(size_t N) { return N ? size_t(next() % N) : 0; }
};

const char *const Fragments[] = {
    "(", ")", "gate ", "q[", "{", ";", "}", ",", "->", "^", "-", "pi",
    "qreg q[", "gate g(t) a, b { cx a, b; rz(t) b; }", "g(1) q[0], q[1];",
    "/*", "//", "\"", "\n", "measure ", "barrier ", "1e", ".5", "sin("};

std::string mutate(std::string Text, Rng &R) {
  const size_t Steps = 1 + R.below(3);
  for (size_t Step = 0; Step < Steps; ++Step) {
    const size_t Pos = R.below(Text.size() + 1);
    switch (R.below(6)) {
    case 0: // Flip one bit.
      if (Pos < Text.size())
        Text[Pos] = char(Text[Pos] ^ (1 << R.below(8)));
      break;
    case 1: // Insert one byte.
      Text.insert(Pos, 1, char(R.below(256)));
      break;
    case 2: // Delete a short range.
      Text.erase(Pos, 1 + R.below(16));
      break;
    case 3: // Splice a QASM fragment.
      Text.insert(Pos, Fragments[R.below(std::size(Fragments))]);
      break;
    case 4: // A long digit run.
      Text.insert(Pos, 1 + R.below(40), char('0' + R.below(10)));
      break;
    default: { // Copy a slice elsewhere.
      const size_t From = R.below(Text.size() + 1);
      const std::string Slice = Text.substr(From, 1 + R.below(64));
      Text.insert(R.below(Text.size() + 1), Slice);
      break;
    }
    }
  }
  return Text;
}

/// Empty when \p Circ is well formed and round-trips through printQasm.
std::string circuitProblem(const Circuit &Circ) {
  bool Finite = true;
  for (const Gate &G : Circ.gates()) {
    const unsigned N = G.numQubits();
    for (unsigned I = 0; I < N; ++I) {
      if (G.Qubits[I] < 0 || G.Qubits[I] >= int32_t(Circ.numQubits()))
        return "operand out of range";
      for (unsigned J = 0; J < I; ++J)
        if (G.Qubits[I] == G.Qubits[J])
          return "repeated operand";
    }
    for (unsigned I = 0; I < G.numParams(); ++I)
      Finite = Finite && std::isfinite(G.Params[I]);
  }
  if (!Finite) // inf and nan print as names, which do not read back.
    return "";
  qasm::ImportResult Again = qasm::importQasm(qasm::printQasm(Circ));
  if (!Again.succeeded())
    return "printed circuit does not import: " + Again.Error;
  if (fingerprint(*Again.Circ) != fingerprint(Circ) ||
      Again.Circ->numQubits() != Circ.numQubits())
    return "printed circuit imports differently";
  return "";
}

} // namespace

TEST(QasmFuzzTest, MutatedCorpusEndsInACircuitOrAnError) {
  std::vector<std::string> Seeds;
  for (const auto &Cases :
       {qasm_corpus::validCases(), qasm_corpus::hostileCases()})
    for (const qasm_corpus::Case &C : Cases)
      if (C.Source.size() <= MaxSeedBytes && C.Name != SlowSeed)
        Seeds.push_back(C.Source);
  ASSERT_GE(Seeds.size(), 30u);

  Rng R{FuzzSeed};
  size_t Imported = 0;
  for (int I = 0; I < FuzzIterations; ++I) {
    const std::string Input = mutate(Seeds[R.below(Seeds.size())], R);
    qasm::ImportResult Result = qasm::importQasm(Input);
    const std::string Problem =
        !Result.succeeded()
            ? (Result.Error.empty() || Result.Cancelled ? "failed without an "
                                                          "error"
                                                        : "")
            : circuitProblem(*Result.Circ);
    ASSERT_EQ(Problem, "") << "iteration " << I << ", input:\n" << Input;
    Imported += Result.succeeded();
  }
  // Both outcomes must be exercised for the run to mean anything.
  EXPECT_GT(Imported, size_t(FuzzIterations) / 100);
  EXPECT_LT(Imported, size_t(FuzzIterations) * 99 / 100);
}
