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
/// A suffixed Qlosure mapper name selects a non-default configuration, so
/// the rows also reach kernel paths the defaults never take: error-aware
/// tie-breaking on a synthetic calibration (seeded by the row's seed),
/// the front-only window, unit omega weights, the affine replay driver
/// (on the QFT-like kernel, where the row's depth is the repetition
/// count), and the shortest-path escape hatch (a tiny no-progress budget
/// on a line). The greedy baselines reach their escape hatch on the same
/// line with default options. A `line<N>` backend is makeLine(N).
///
/// On a mismatch the test prints the full actual row. When a change to
/// routing decisions is intended, paste the printed rows over the stale
/// ones.
///
//===----------------------------------------------------------------------===//

#include "baselines/QmapAstar.h"
#include "baselines/RouterRegistry.h"
#include "core/Qlosure.h"
#include "route/RoutingScratch.h"
#include "support/Fingerprint.h"
#include "support/StringUtils.h"
#include "topology/Backends.h"
#include "workloads/Queko.h"
#include "workloads/Structured.h"

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
  if (Name == "qmap") {
    QmapOptions Qmap;
    Qmap.TimeBudgetSeconds = 1e9;
    return std::make_unique<QmapAstarRouter>(Qmap);
  }
  if (Name.rfind("qlosure-", 0) != 0)
    return makeRouterByName(Name);
  QlosureOptions Options;
  if (Name == "qlosure-error-aware") {
    Options.ErrorAware = true;
  } else if (Name == "qlosure-no-layers") {
    Options.UseLayerStructure = false;
  } else if (Name == "qlosure-no-weights") {
    Options.UseDependencyWeights = false;
  } else if (Name == "qlosure-affine") {
    // The replay profile: omega is aperiodic, so weighted routing would
    // fall back on nearly every period.
    Options.AffineReplay = true;
    Options.UseDependencyWeights = false;
  } else if (Name == "qlosure-forced") {
    Options.MaxSwapsWithoutProgress = 2;
  } else {
    ADD_FAILURE() << "unknown golden mapper: " << Name;
  }
  return std::make_unique<QlosureRouter>(Options);
}

CouplingGraph makeRowBackend(const GoldenRow &Key) {
  CouplingGraph Backend =
      Key.Backend.rfind("line", 0) == 0
          ? makeLine(static_cast<unsigned>(std::stoul(Key.Backend.substr(4))))
          : makeBackendByName(Key.Backend);
  if (Key.Mapper == "qlosure-error-aware")
    applySyntheticErrorModel(Backend, Key.Seed);
  return Backend;
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
  CouplingGraph Backend = makeRowBackend(Key);
  Circuit Circ;
  if (Key.Mapper == "qlosure-affine") {
    Circ = qftLikeKernel(Backend.numQubits(), Key.Depth);
  } else {
    QuekoSpec Spec;
    Spec.Depth = Key.Depth;
    Spec.Seed = Key.Seed;
    Circ = generateQueko(makeSycamore54(), Spec).Circ;
  }
  RoutingContext Ctx = RoutingContext::build(Circ, Backend);
  RoutingScratch Scratch;
  RoutingResult R = makeMapper(Key.Mapper)->routeWithIdentity(Ctx, Scratch);
  if (Key.Mapper == "qlosure-affine") {
    EXPECT_GT(R.AffineReplayedPeriods, 0u) << "no period replayed";
  }

  GoldenRow Got = Key;
  Got.Swaps = R.NumSwaps;
  Got.RoutedGates = R.Routed.size();
  Got.Digest = routingDigest(R);
  return Got;
}

void checkMapper(const std::string &Mapper, size_t NumRows) {
  std::vector<GoldenRow> Rows = loadRows(Mapper);
  ASSERT_EQ(Rows.size(), NumRows) << "golden rows for " << Mapper;
  for (const GoldenRow &Want : Rows) {
    GoldenRow Got = routeRow(Want);
    EXPECT_EQ(formatRow(Got), formatRow(Want))
        << "golden row mismatch; actual row:\n"
        << formatRow(Got);
  }
}

} // namespace

TEST(KernelGoldenTest, Qlosure) { checkMapper("qlosure", 4); }
TEST(KernelGoldenTest, Sabre) { checkMapper("sabre", 5); }
TEST(KernelGoldenTest, Qmap) { checkMapper("qmap", 4); }
TEST(KernelGoldenTest, Cirq) { checkMapper("cirq", 5); }
TEST(KernelGoldenTest, Tket) { checkMapper("tket", 5); }
TEST(KernelGoldenTest, QlosureErrorAware) {
  checkMapper("qlosure-error-aware", 2);
}
TEST(KernelGoldenTest, QlosureNoLayers) {
  checkMapper("qlosure-no-layers", 1);
}
TEST(KernelGoldenTest, QlosureNoWeights) {
  checkMapper("qlosure-no-weights", 1);
}
TEST(KernelGoldenTest, QlosureAffine) { checkMapper("qlosure-affine", 1); }
TEST(KernelGoldenTest, QlosureForced) { checkMapper("qlosure-forced", 1); }
