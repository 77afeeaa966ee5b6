//===- tests/KernelGoldenTest.cpp - Routing kernels pinned by digests ----------===//
//
// Part of the Qlosure project. Distributed under the MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Byte identity of the five routing kernels, pinned by committed golden
/// rows (tests/data/kernel_golden.txt). A row is keyed by mapper, backend,
/// QUEKO-54 depth and seed (instances generated on sycamore54) and records
/// the inserted swaps, the routed gate count and one 64-bit digest folding
/// fingerprint(Routed), InsertedSwapFlags and FinalMapping. Any change to a
/// single routing decision changes a digest.
///
/// The rows cover the depth-500 sweep routed on sherbrooke (seeds
/// 2026-2028) plus one depth-100 instance per mapper routed on ankaa3.
/// QMAP runs with an unlimited time budget so its output does not depend
/// on machine load.
///
/// On a mismatch the test prints the full actual row. When a change to
/// routing decisions is intended, paste the printed rows over the stale
/// ones.
///
//===----------------------------------------------------------------------===//

#include "baselines/QmapAstar.h"
#include "baselines/RouterRegistry.h"
#include "route/RoutingScratch.h"
#include "support/Fingerprint.h"
#include "support/StringUtils.h"
#include "topology/Backends.h"
#include "workloads/Queko.h"

#include <gtest/gtest.h>

#include <fstream>
#include <memory>
#include <sstream>
#include <string>
#include <vector>

using namespace qlosure;

namespace {

struct GoldenRow {
  std::string Mapper;
  std::string Backend;
  unsigned Depth = 0;
  uint64_t Seed = 0;
  size_t Swaps = 0;
  size_t RoutedGates = 0;
  uint64_t Digest = 0;
};

std::string formatRow(const GoldenRow &R) {
  return formatString("%s %s %u %llu %zu %zu %016llx", R.Mapper.c_str(),
                      R.Backend.c_str(), R.Depth,
                      static_cast<unsigned long long>(R.Seed), R.Swaps,
                      R.RoutedGates,
                      static_cast<unsigned long long>(R.Digest));
}

/// The rows of kernel_golden.txt for \p Mapper ('#' lines are comments).
std::vector<GoldenRow> loadRows(const std::string &Mapper) {
  std::ifstream In(QLOSURE_TEST_DATA_DIR "/kernel_golden.txt");
  EXPECT_TRUE(In.good()) << "cannot open kernel_golden.txt";
  std::vector<GoldenRow> Rows;
  std::string Line;
  while (std::getline(In, Line)) {
    if (Line.empty() || Line[0] == '#')
      continue;
    std::istringstream Fields(Line);
    GoldenRow R;
    Fields >> R.Mapper >> R.Backend >> R.Depth >> R.Seed >> R.Swaps >>
        R.RoutedGates >> std::hex >> R.Digest;
    EXPECT_FALSE(Fields.fail()) << "malformed golden row: " << Line;
    if (R.Mapper == Mapper)
      Rows.push_back(R);
  }
  return Rows;
}

std::unique_ptr<Router> makeMapper(const std::string &Name) {
  if (Name != "qmap")
    return makeRouterByName(Name);
  QmapOptions Qmap;
  Qmap.TimeBudgetSeconds = 1e9;
  return std::make_unique<QmapAstarRouter>(Qmap);
}

uint64_t routingDigest(const RoutingResult &R) {
  uint64_t H = fingerprint(R.Routed);
  H = hashCombine(H, hashBytes(R.InsertedSwapFlags.data(),
                               R.InsertedSwapFlags.size()));
  H = hashCombine(H, R.FinalMapping.numPhysical());
  for (unsigned L = 0; L < R.FinalMapping.numLogical(); ++L)
    H = hashCombine(H, static_cast<uint64_t>(R.FinalMapping.physOf(
                           static_cast<int32_t>(L))));
  return H;
}

/// Routes the instance \p Key names and fills in its measured columns.
GoldenRow routeRow(const GoldenRow &Key) {
  QuekoSpec Spec;
  Spec.Depth = Key.Depth;
  Spec.Seed = Key.Seed;
  QuekoInstance Inst = generateQueko(makeSycamore54(), Spec);
  CouplingGraph Backend = makeBackendByName(Key.Backend);
  RoutingContext Ctx = RoutingContext::build(Inst.Circ, Backend);
  RoutingScratch Scratch;
  RoutingResult R = makeMapper(Key.Mapper)->routeWithIdentity(Ctx, Scratch);

  GoldenRow Got = Key;
  Got.Swaps = R.NumSwaps;
  Got.RoutedGates = R.Routed.size();
  Got.Digest = routingDigest(R);
  return Got;
}

void checkMapper(const std::string &Mapper) {
  std::vector<GoldenRow> Rows = loadRows(Mapper);
  ASSERT_EQ(Rows.size(), 4u) << "expected 3 sherbrooke rows and 1 ankaa3 "
                                "row for "
                             << Mapper;
  for (const GoldenRow &Want : Rows) {
    GoldenRow Got = routeRow(Want);
    EXPECT_EQ(formatRow(Got), formatRow(Want))
        << "golden row mismatch; actual row:\n"
        << formatRow(Got);
  }
}

} // namespace

TEST(KernelGoldenTest, Qlosure) { checkMapper("qlosure"); }
TEST(KernelGoldenTest, Sabre) { checkMapper("sabre"); }
TEST(KernelGoldenTest, Qmap) { checkMapper("qmap"); }
TEST(KernelGoldenTest, Cirq) { checkMapper("cirq"); }
TEST(KernelGoldenTest, Tket) { checkMapper("tket"); }
