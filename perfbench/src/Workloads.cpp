//===- perfbench/src/Workloads.cpp - Seeded request sets -------------------===//
//
// Part of the Qlosure project. Distributed under the MIT license.
//
//===----------------------------------------------------------------------===//

#include "Workloads.h"

#include "baselines/RouterRegistry.h"
#include "core/Qlosure.h"
#include "qasm/Importer.h"
#include "qasm/Printer.h"
#include "route/RoutingContext.h"
#include "route/Verify.h"
#include "support/Fingerprint.h"
#include "support/Random.h"
#include "topology/Backends.h"
#include "workloads/Queko.h"
#include "workloads/Structured.h"

#include <algorithm>
#include <atomic>
#include <thread>

using namespace qlosure;
using namespace perfbench;

namespace {

/// Half the routes go to Qlosure, the rest evenly to the three
/// deterministic baselines. With the 9-step depth cycle below, the mix
/// repeats every 18 requests.
const char *const MapperCycle[] = {"qlosure", "sabre", "qlosure",
                                   "cirq",    "qlosure", "tket"};
constexpr size_t MixPeriod = 18;

/// The Auto engine switches from exact to affine above this gate count
/// (WeightOptions::ExactGateLimit's default).
constexpr int64_t AutoGateLimit = 30000;

/// QUEKO requests of the given depths, cycling through the mapper mix.
/// The depths are fixed per position, so every seed draws the same size
/// and mapper mix and only the circuits differ.
void makeQueko(Workload &W, uint64_t Seed, const std::vector<unsigned> &Depths) {
  for (size_t I = 0; I < Depths.size(); ++I) {
    Request R;
    R.Index = I;
    R.Mapper = MapperCycle[I % 6];
    R.QuekoDepth = Depths[I];
    R.QuekoSeed = hashCombine(Seed, I) | 1;
    W.Requests.push_back(R);
  }
}

/// omega-crossover: qftLikeKernel items of every width from 80 to 120
/// qubits, alternately just under and just over the Auto limit. The widths
/// follow a fixed stride-17 permutation, rotated by the seed, so any 41
/// consecutive items cover every width once and each run sees the same
/// mix. Each (width, side) has two sizes; the seed picks which comes
/// first, the second pass takes the other, so all 164 items are distinct
/// circuits. Batches alternate the affine flag.
void makeCrossover(Workload &W, uint64_t Seed, bool Smoke) {
  const unsigned MinQubits = Smoke ? 118 : 80; // An odd width count.
  const unsigned Widths = 121 - MinQubits;
  Rng R(hashCombine(Seed, 0x6f6d656761ULL));
  const uint64_t Offset = R.nextBounded(Widths);
  const uint64_t FirstSize = R.next();
  for (size_t J = 0; J < 4 * Widths; ++J) {
    unsigned N = MinQubits + static_cast<unsigned>((Offset + J * 17) % Widths);
    int64_t Reps = AutoGateLimit / (2 * N); // 2N gates per repetition.
    bool Over = J % 2 == 1;
    bool Larger = ((FirstSize >> (N % 64)) & 1) != (J / (2 * Widths) == 1);
    Request Item;
    Item.Index = J;
    Item.Mapper = "qlosure";
    Item.Affine = (J / W.BatchSize) % 2 == 1;
    Item.QftQubits = N;
    Item.QftReps = (Over ? Reps + 1 : Reps - 1) + (Larger ? 1 : 0);
    W.Requests.push_back(Item);
  }
}

} // namespace

std::string Request::qasm() const {
  if (QftQubits)
    return qasm::printQasm(qftLikeKernel(QftQubits, QftReps));
  static const CouplingGraph GenDevice = makeSycamore54();
  QuekoSpec Spec;
  Spec.Depth = QuekoDepth;
  Spec.Seed = QuekoSeed;
  return qasm::printQasm(generateQueko(GenDevice, Spec).Circ);
}

bool perfbench::makeWorkload(const std::string &Name, uint64_t Seed,
                             double Seconds, bool Smoke, Workload &W) {
  W = Workload();
  W.Name = Name;
  if (Name == "cold-queko") {
    W.TheKind = Kind::ColdQueko;
    W.Clients = 2;
    W.QualityPrefix = Smoke ? 4 : 6 * MixPeriod;
    W.ReplayCount = Smoke ? 6 : MixPeriod;
    // A pool of distinct requests the loop does not drain at today's rate
    // (about 25/s on 2 workers); a run that does ends early. Depths
    // 300, 325, ..., 500 (6k-10k gates) in a fixed cycle.
    size_t Pool = Smoke ? 12 : std::max<size_t>(64, 40 * Seconds);
    std::vector<unsigned> Depths;
    for (size_t I = 0; I < Pool; ++I)
      Depths.push_back(Smoke ? 20 + 5 * static_cast<unsigned>(I % 3)
                             : 300 + 25 * static_cast<unsigned>(I % 9));
    makeQueko(W, Seed, Depths);
    return true;
  }
  if (Name == "warm-hits") {
    W.TheKind = Kind::WarmHits;
    W.Clients = 3;
    size_t Pairs = Smoke ? 4 : 16;
    W.QualityPrefix = Pairs;
    W.ReplayCount = Pairs;
    // Depths evenly spaced over 300..500 (20..30 in smoke mode).
    std::vector<unsigned> Depths;
    for (size_t I = 0; I < Pairs; ++I)
      Depths.push_back(Smoke ? 20 + static_cast<unsigned>(10 * I / (Pairs - 1))
                             : 300 + static_cast<unsigned>(200 * I / (Pairs - 1)));
    makeQueko(W, hashCombine(Seed, 0x7761726dULL), Depths);
    return true;
  }
  if (Name == "omega-crossover") {
    W.TheKind = Kind::OmegaCrossover;
    W.Clients = 1;
    W.BatchSize = Smoke ? 2 : 6;
    makeCrossover(W, Seed, Smoke);
    W.QualityPrefix = Smoke ? 2 : 41; // Every width once.
    W.ReplayCount = Smoke ? 2 : 2 * W.BatchSize;
    // About 80 items per 30 s run: p75 leaves 20 samples beyond it,
    // p90 would leave 8.
    W.TailQuantile = 0.75;
    return true;
  }
  return false;
}

std::unique_ptr<Router> perfbench::makeServiceRouter(const std::string &Mapper,
                                                     bool Affine) {
  if (Mapper != "qlosure")
    return makeRouterByName(Mapper);
  QlosureOptions Opts;
  Opts.AffineReplay = Affine;
  // qlosured selects the unweighted scoring profile for affine requests.
  if (Affine)
    Opts.UseDependencyWeights = false;
  return std::make_unique<QlosureRouter>(Opts);
}

bool perfbench::importLikeDaemon(const std::string &Qasm, Circuit &Out,
                                 std::string &Error) {
  qasm::ImportResult Imported = qasm::importQasm(Qasm, "request");
  if (!Imported.succeeded()) {
    Error = Imported.Error;
    return false;
  }
  Out = Imported.Circ->withoutNonUnitaries().decomposeThreeQubitGates();
  return true;
}

std::vector<Expected>
perfbench::computeExpected(const std::vector<const Request *> &Reqs,
                           const CouplingGraph &Hw, unsigned Threads) {
  std::vector<Expected> Out(Reqs.size());
  std::atomic<size_t> Next{0};
  auto Work = [&] {
    for (size_t I; (I = Next.fetch_add(1)) < Reqs.size();) {
      const Request &Req = *Reqs[I];
      Expected &E = Out[I];
      Circuit Logical;
      if (!importLikeDaemon(Req.qasm(), Logical, E.Error))
        continue;
      std::unique_ptr<Router> Mapper = makeServiceRouter(Req.Mapper,
                                                         Req.Affine);
      RoutingContext Ctx =
          RoutingContext::build(Logical, Hw, Mapper->contextOptions());
      if (!Ctx.valid()) {
        E.Error = Ctx.status().message();
        continue;
      }
      RoutingResult Result = Mapper->routeWithIdentity(Ctx);
      VerifyResult Check = verifyRouting(Logical, Hw, Result);
      if (!Check.Ok) {
        E.Error = "reference routing failed verification: " + Check.Message;
        continue;
      }
      E.Ok = true;
      E.QasmFingerprint = fingerprintString(qasm::printQasm(Result.Routed));
      E.LogicalGates = Logical.size();
      E.RoutedGates = Result.Routed.size();
      E.Swaps = Result.NumSwaps;
      E.DepthBefore = Logical.depth();
      E.DepthAfter = Result.Routed.depth();
    }
  };
  std::vector<std::thread> Pool;
  for (unsigned T = 1; T < std::max(1u, Threads); ++T)
    Pool.emplace_back(Work);
  Work();
  for (std::thread &T : Pool)
    T.join();
  return Out;
}
