//===- tests/QasmGoldenTest.cpp - QASM import pinned by digests ----------------===//
//
// Part of the Qlosure project. Distributed under the MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// What importQasm makes of every program in tests/QasmCorpus.h, pinned by
/// committed digests: fingerprint(Circuit) (gate kinds, operands and
/// parameter bit patterns, in order), numQubits() and size() for the
/// programs that import, and succeeded() and OverBudget for the ones that
/// must not. Any change to how a program lowers changes a row.
///
/// On a mismatch the test prints the actual row.
///
//===----------------------------------------------------------------------===//

#include "QasmCorpus.h"

#include "qasm/Importer.h"
#include "support/Fingerprint.h"
#include "support/StringUtils.h"

#include <gtest/gtest.h>

#include <map>

using namespace qlosure;

namespace {

struct ImportRow {
  uint64_t Fingerprint;
  unsigned Qubits;
  size_t Gates;
};

// clang-format off
const std::map<std::string, ImportRow> &validRows() {
  static const std::map<std::string, ImportRow> Rows = {
      {"file_barriered_ghz", {0x9abae37d2c3777b3ULL, 4, 12}},
      {"file_queko16", {0x167199451d968db0ULL, 16, 145}},
      {"queko_aspen16_d25_s3", {0x75c6927265199183ULL, 16, 137}},
      {"queko_sycamore54_d500_s1", {0xee1c79f6ad12d17cULL, 54, 9722}},
      {"queko_kings9x9_d60_s2", {0x1ba6c1c0e88c7ec3ULL, 81, 1698}},
      {"qft16", {0x1968c1a0739be297ULL, 16, 624}},
      {"qft8_cp", {0x24cfddfdbb30cdedULL, 8, 40}},
      {"adder10", {0x0fd756cb1b9f65b6ULL, 10, 137}},
      {"user_gate_params", {0xcbd7bb16b7480c5fULL, 3, 8}},
      {"nested_user_gates", {0x8e7bcaa99775e17bULL, 4, 28}},
      {"broadcast_registers", {0x048fff87228954bbULL, 6, 18}},
      {"pi_power_unary_minus", {0x96583189402072e3ULL, 2, 9}},
      {"math_functions", {0x63aba4d868bcc7baULL, 2, 8}},
      {"comments", {0x53671474095f1fd9ULL, 2, 2}},
      {"measure_barrier_reset", {0x8df91515c4d10e9dULL, 3, 10}},
      {"several_qregs", {0xcc2d0ec81619f511ULL, 8, 4}},
      {"real_literal_forms", {0x29372204d814979aULL, 1, 10}},
      {"every_builtin", {0x670cf1586c60dc18ULL, 3, 30}},
      {"body_barrier_empty_params_shadowing", {0x0d7d65cb8cc863a4ULL, 2, 6}},
      {"qreg_between_gates", {0xd10b07c3c536eb3aULL, 4, 4}},
      {"whitespace_no_header", {0x09d9c0972abadbb8ULL, 2, 3}},
      {"user_gate_broadcast", {0xbb6eed318e6e30a9ULL, 6, 18}},
      {"doubling10", {0x710e3a8e5eaaee80ULL, 1, 1024}},
      {"chain60", {0x75b322eefe274135ULL, 1, 61}},
      {"empty_program", {0x68b6ac4831cd522dULL, 0, 0}},
  };
  return Rows;
}

/// Name -> expected OverBudget.
const std::map<std::string, bool> &hostileRows() {
  static const std::map<std::string, bool> Rows = {
      {"huge_register", true},
      {"registers_sum_over_budget", true},
      {"doubling40", true},
      {"broadcasts_over_budget", true},
      {"broadcast_call_over_budget", true},
      {"deep_parens", false},
      {"deep_unary_minus", false},
      {"long_plus_chain", false},
      {"chain70_too_deep", false},
      {"unknown_gate", false},
      {"missing_final_semicolon", false},
      {"missing_comma", false},
      {"unterminated_string", false},
      {"classical_if", false},
      {"repeated_operand", false},
      {"index_out_of_range", false},
      {"broadcast_mismatch", false},
      {"opaque_gate", false},
      {"unknown_register", false},
      {"user_gate_arity", false},
      {"builtin_param_count", false},
      {"builtin_extra_param", false},
      {"stray_character", false},
      {"malformed_exponent", false},
      {"duplicate_qreg", false},
      {"unknown_formal_qubit", false},
      {"unbound_parameter", false},
      {"unbalanced_brace", false},
  };
  return Rows;
}
// clang-format on

std::string formatRow(const std::string &Name, const ImportRow &Row) {
  return formatString("{\"%s\", {0x%016llxULL, %u, %zu}},", Name.c_str(),
                      static_cast<unsigned long long>(Row.Fingerprint),
                      Row.Qubits, Row.Gates);
}

} // namespace

TEST(QasmGoldenTest, ValidProgramsImportToPinnedCircuits) {
  std::vector<qasm_corpus::Case> Cases = qasm_corpus::validCases();
  EXPECT_EQ(Cases.size(), validRows().size());
  for (const qasm_corpus::Case &C : Cases) {
    qasm::ImportResult R = qasm::importQasm(C.Source, C.Name);
    ASSERT_TRUE(R.succeeded()) << C.Name << ": " << R.Error;
    ImportRow Got{fingerprint(*R.Circ), R.Circ->numQubits(), R.Circ->size()};
    auto It = validRows().find(C.Name);
    if (It == validRows().end()) {
      ADD_FAILURE() << "no golden row; actual row:\n" << formatRow(C.Name, Got);
      continue;
    }
    EXPECT_EQ(formatRow(C.Name, Got), formatRow(C.Name, It->second))
        << "golden row mismatch; actual row:\n"
        << formatRow(C.Name, Got);
  }
}

TEST(QasmGoldenTest, HostileProgramsFailWithPinnedClass) {
  std::vector<qasm_corpus::Case> Cases = qasm_corpus::hostileCases();
  EXPECT_EQ(Cases.size(), hostileRows().size());
  for (const qasm_corpus::Case &C : Cases) {
    qasm::ImportResult R = qasm::importQasm(C.Source, C.Name);
    EXPECT_FALSE(R.succeeded()) << C.Name;
    EXPECT_FALSE(R.Error.empty()) << C.Name;
    EXPECT_FALSE(R.Cancelled) << C.Name;
    auto It = hostileRows().find(C.Name);
    if (It == hostileRows().end()) {
      ADD_FAILURE() << "no golden row; actual row:\n{\"" << C.Name << "\", "
                    << (R.OverBudget ? "true" : "false") << "},";
      continue;
    }
    EXPECT_EQ(R.OverBudget, It->second) << C.Name << ": " << R.Error;
  }
}
