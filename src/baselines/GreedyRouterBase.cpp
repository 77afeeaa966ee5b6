//===- baselines/GreedyRouterBase.cpp - Greedy routing skeleton -----------------===//
//
// Part of the Qlosure project. Distributed under the MIT license.
//
//===----------------------------------------------------------------------===//
//
// The inner loop runs entirely out of the caller's RoutingScratch: the
// ready/candidate/distance arrays are reused across steps (and across
// route() calls sharing the scratch), the look-ahead window is the
// epoch-stamped FrontLayerTracker one, and candidate physical qubits are
// deduplicated with an epoch marker — no per-step heap allocation once the
// scratch is warm. The scored gates (blocked front 2Q gates, then the
// extended window) depend only on the front, so their records are built
// on the first SWAP after the front changed; each SWAP, scored or forced,
// patches only the gates hosted on its two qubits. The decision sequence
// is pinned by the golden digests of tests/KernelGoldenTest.cpp.
//
//===----------------------------------------------------------------------===//

#include "baselines/GreedyRouterBase.h"

#include "circuit/Dag.h"
#include "route/FrontLayer.h"
#include "support/Random.h"
#include "support/Timer.h"
#include "support/Trace.h"

#include <algorithm>
#include <cassert>
#include <limits>

using namespace qlosure;

RoutingResult GreedyRouterBase::route(const RoutingContext &Ctx,
                                      const QubitMapping &Initial,
                                      RoutingScratch &S,
                                      const CancellationToken *Cancel) {
  checkPreconditions(Ctx, Initial);
  const Circuit &Logical = Ctx.circuit();
  const CouplingGraph &Hw = Ctx.hardware();
  Timer Clock;

  const CircuitDag &Dag = Ctx.dag();
  S.ensurePhys(Hw.numQubits());
  // The scored-gate records persist across route() calls; start from a
  // clean slate in case the previous user of this scratch left entries
  // behind.
  S.clearScoredGates();
  FrontLayerTracker Tracker(Dag, S);
  QubitMapping Phi = Initial;
  Rng TieBreaker(seed());
  S.Decay.assign(Logical.numQubits(), 1.0);

  RoutingResult Result;
  Result.Routed = Circuit(Hw.numQubits(), Logical.name() + ".routed");
  Result.InitialMapping = Initial;
  Result.RouterName = name();

  unsigned SwapsSinceProgress = 0;
  // True when the front changed since the scored-gate records were built.
  bool Stale = true;

  auto physOf = [&Phi](int32_t L) { return Phi.physOf(L); };

  auto isExecutable = [&](uint32_t GI) {
    const Gate &G = Logical.gate(GI);
    if (!G.isTwoQubit())
      return true;
    return Hw.areAdjacent(static_cast<unsigned>(Phi.physOf(G.Qubits[0])),
                          static_cast<unsigned>(Phi.physOf(G.Qubits[1])));
  };

  auto emitSwap = [&](unsigned P1, unsigned P2) {
    Result.Routed.addSwap(static_cast<int32_t>(P1), static_cast<int32_t>(P2));
    Result.InsertedSwapFlags.push_back(1);
    ++Result.NumSwaps;
    int32_t L1 = Phi.logOf(static_cast<int32_t>(P1));
    int32_t L2 = Phi.logOf(static_cast<int32_t>(P2));
    Phi.swapPhysical(static_cast<int32_t>(P1), static_cast<int32_t>(P2));
    if (usesDecay()) {
      if (L1 >= 0)
        S.Decay[static_cast<size_t>(L1)] += decayIncrement();
      if (L2 >= 0)
        S.Decay[static_cast<size_t>(L2)] += decayIncrement();
    }
    if (!Stale) {
      // Only the gates hosted on P1 or P2 moved.
      S.swapScoredEndpoints(P1, P2);
      for (unsigned P : {P1, P2})
        for (uint32_t I : S.TouchingGates[P])
          S.GreedyBaseDists[I] = Hw.distance(S.ScoredPA[I], S.ScoredPB[I]);
    }
  };

  // One coarse span for the whole greedy loop (never per-step); a null
  // sink — the default — costs a single pointer test.
  ScopedSpan LoopSpan(S.TraceSink, "greedy_loop");
  while (!Tracker.allExecuted()) {
    // One cancellation poll + progress report per front-layer step; a
    // null token never perturbs the decision sequence.
    if (Cancel) {
      if (Cancel->cancelled()) {
        Result.Cancelled = true;
        break;
      }
      Cancel->reportProgress(Tracker.numExecuted(), Logical.size());
    }
    // Phase 1: drain every executable gate.
    bool Progress = false;
    bool Changed = true;
    while (Changed) {
      Changed = false;
      // Snapshot: execute() mutates the front.
      S.Ready.clear();
      for (uint32_t G : Tracker.front())
        if (isExecutable(G))
          S.Ready.push_back(G);
      std::sort(S.Ready.begin(), S.Ready.end());
      for (uint32_t G : S.Ready) {
        Result.Routed.addGate(Logical.gate(G).withMappedQubits(physOf));
        Result.InsertedSwapFlags.push_back(0);
        Tracker.execute(G);
        Progress = true;
        Changed = true;
      }
    }
    if (Progress) {
      if (usesDecay())
        std::fill(S.Decay.begin(), S.Decay.end(), 1.0);
      SwapsSinceProgress = 0;
      Stale = true;
      continue;
    }
    if (Tracker.allExecuted())
      break;

    // Escape hatch: force the oldest blocked gate along a shortest path.
    if (SwapsSinceProgress >= maxSwapsWithoutProgress()) {
      uint32_t Oldest = UINT32_MAX;
      for (uint32_t G : Tracker.front())
        if (Logical.gate(G).isTwoQubit())
          Oldest = std::min(Oldest, G);
      assert(Oldest != UINT32_MAX && "stuck without a blocked 2Q gate");
      const Gate &G = Logical.gate(Oldest);
      std::vector<unsigned> Path = Hw.shortestPath(
          static_cast<unsigned>(Phi.physOf(G.Qubits[0])),
          static_cast<unsigned>(Phi.physOf(G.Qubits[1])));
      for (size_t I = 0; I + 2 < Path.size(); ++I)
        emitSwap(Path[I], Path[I + 1]);
      SwapsSinceProgress = 0;
      continue;
    }

    // Phase 2: choose one SWAP. On the first SWAP of a front, collect the
    // scored gates and record each one's physical endpoints and base
    // (no-swap) distance, plus which gates each physical qubit hosts. A
    // candidate swap (P1, P2) can only change the distance of gates
    // hosted on P1 or P2, so the per-candidate work is a handful of
    // recomputed entries instead of |front| + |extended| distance-matrix
    // lookups. Distances are small integers, so the patched sums are
    // bit-identical to full recomputation.
    if (Stale) {
      S.FrontTwoQ.clear();
      for (uint32_t G : Tracker.front())
        if (Logical.gate(G).isTwoQubit())
          S.FrontTwoQ.push_back(G);
      std::sort(S.FrontTwoQ.begin(), S.FrontTwoQ.end());

      size_t WantExtended = extendedWindowSize(S.FrontTwoQ.size());
      S.Extended.clear();
      if (WantExtended) {
        // Topological window includes the front; skip those entries.
        const std::vector<uint32_t> &Window =
            Tracker.topologicalWindow(S.FrontTwoQ.size() + 4 * WantExtended);
        for (uint32_t G : Window) {
          if (Tracker.isInFront(G) || !Logical.gate(G).isTwoQubit())
            continue;
          S.Extended.push_back(G);
          if (S.Extended.size() >= WantExtended)
            break;
        }
      }

      S.clearScoredGates();
      S.GreedyBaseDists.clear();
      for (const std::vector<uint32_t> *Gates : {&S.FrontTwoQ, &S.Extended})
        for (uint32_t GI : *Gates) {
          const Gate &G = Logical.gate(GI);
          unsigned PA = static_cast<unsigned>(Phi.physOf(G.Qubits[0]));
          unsigned PB = static_cast<unsigned>(Phi.physOf(G.Qubits[1]));
          S.addScoredGate(PA, PB);
          S.GreedyBaseDists.push_back(Hw.distance(PA, PB));
        }
      Stale = false;
    }
    const size_t NumFront = S.FrontTwoQ.size();
    const size_t NumExt = S.Extended.size();
    const size_t NumScored = NumFront + NumExt;

    // Candidate swaps on front physical qubits.
    S.PFront.clear();
    S.PhysSeen.beginEpoch();
    for (size_t I = 0; I < NumFront; ++I)
      for (unsigned P : {S.ScoredPA[I], S.ScoredPB[I]})
        if (!S.PhysSeen.fresh(P)) {
          S.PhysSeen.set(P, 1);
          S.PFront.push_back(P);
        }
    std::sort(S.PFront.begin(), S.PFront.end());
    S.Candidates.clear();
    for (unsigned P1 : S.PFront)
      for (unsigned P2 : Hw.neighbors(P1)) {
        // Visiting the smaller P_front qubit P2 already added this pair.
        if (P2 < P1 && S.PhysSeen.fresh(P2))
          continue;
        S.Candidates.push_back({std::min(P1, P2), std::max(P1, P2)});
      }
    assert(!S.Candidates.empty() && "no candidates on a connected graph");

    // Lane scoring: the base (no-swap) sums are computed once per SWAP
    // decision; each candidate contributes integer deltas for its touched
    // gates only, and the mapper's formula is then evaluated over the
    // per-candidate SoA lanes (identical to the full per-candidate
    // recomputation because distance sums of small integers are exact in
    // double).
    uint64_t BaseFrontSum = 0, BaseExtSum = 0;
    for (size_t I = 0; I < NumFront; ++I)
      BaseFrontSum += S.GreedyBaseDists[I];
    for (size_t I = NumFront; I < NumScored; ++I)
      BaseExtSum += S.GreedyBaseDists[I];
    const bool NeedMax = usesFrontMax();
    unsigned BaseFrontMax = 0;
    if (NeedMax) {
      for (size_t I = 0; I < NumFront; ++I)
        BaseFrontMax = std::max(BaseFrontMax, S.GreedyBaseDists[I]);
      S.DistHist.assign(static_cast<size_t>(BaseFrontMax) + 1, 0);
      for (size_t I = 0; I < NumFront; ++I)
        ++S.DistHist[S.GreedyBaseDists[I]];
    }

    const size_t NumCand = S.Candidates.size();
    S.LaneFrontSum.resize(NumCand);
    S.LaneExtSum.resize(NumCand);
    S.LaneDecay.resize(NumCand);
    if (NeedMax)
      S.LaneFrontMax.resize(NumCand);
    for (size_t CI = 0; CI < NumCand; ++CI) {
      auto [P1, P2] = S.Candidates[CI];
      int64_t DeltaFront = 0, DeltaExt = 0;
      unsigned MaxNew = 0;
      S.TouchedOldD.clear();
      S.TouchedNewD.clear();
      auto patchGatesOn = [&](unsigned P, unsigned Other) {
        for (uint32_t I : S.TouchingGates[P]) {
          unsigned PA = S.ScoredPA[I];
          unsigned PB = S.ScoredPB[I];
          // A gate hosted on both swapped qubits keeps its distance: skip
          // it so it is neither recomputed nor counted from both lists.
          if (PA == Other || PB == Other)
            continue;
          unsigned NewPA = PA == P1 ? P2 : (PA == P2 ? P1 : PA);
          unsigned NewPB = PB == P1 ? P2 : (PB == P2 ? P1 : PB);
          unsigned D = Hw.distance(NewPA, NewPB);
          unsigned Old = S.GreedyBaseDists[I];
          if (I < NumFront) {
            DeltaFront += static_cast<int64_t>(D) - static_cast<int64_t>(Old);
            if (NeedMax) {
              S.TouchedOldD.push_back(Old);
              S.TouchedNewD.push_back(D);
              MaxNew = std::max(MaxNew, D);
            }
          } else {
            DeltaExt += static_cast<int64_t>(D) - static_cast<int64_t>(Old);
          }
        }
      };
      patchGatesOn(P1, P2);
      patchGatesOn(P2, P1);
      S.LaneFrontSum[CI] = static_cast<double>(
          static_cast<int64_t>(BaseFrontSum) + DeltaFront);
      S.LaneExtSum[CI] =
          static_cast<double>(static_cast<int64_t>(BaseExtSum) + DeltaExt);
      if (NeedMax) {
        // Patch the histogram, scan down from the highest possible bin,
        // then revert — O(touched + scan) instead of O(front) per
        // candidate, same integer maximum.
        unsigned Hi = std::max(BaseFrontMax, MaxNew);
        if (S.DistHist.size() < static_cast<size_t>(Hi) + 1)
          S.DistHist.resize(static_cast<size_t>(Hi) + 1, 0);
        for (size_t T = 0; T < S.TouchedOldD.size(); ++T) {
          --S.DistHist[S.TouchedOldD[T]];
          ++S.DistHist[S.TouchedNewD[T]];
        }
        unsigned M = Hi;
        while (M > 0 && S.DistHist[M] == 0)
          --M;
        S.LaneFrontMax[CI] = static_cast<double>(M);
        for (size_t T = 0; T < S.TouchedOldD.size(); ++T) {
          ++S.DistHist[S.TouchedOldD[T]];
          --S.DistHist[S.TouchedNewD[T]];
        }
      }
      double MaxDecay = 1.0;
      if (usesDecay()) {
        int32_t L1 = Phi.logOf(static_cast<int32_t>(P1));
        int32_t L2 = Phi.logOf(static_cast<int32_t>(P2));
        double D1 = L1 >= 0 ? S.Decay[static_cast<size_t>(L1)] : 1.0;
        double D2 = L2 >= 0 ? S.Decay[static_cast<size_t>(L2)] : 1.0;
        MaxDecay = std::max(D1, D2);
      }
      S.LaneDecay[CI] = MaxDecay;
    }

    S.Scores.resize(NumCand);
    for (size_t CI = 0; CI < NumCand; ++CI)
      S.Scores[CI] = scoreFromSums(S.LaneFrontSum[CI], S.LaneExtSum[CI],
                                   NeedMax ? S.LaneFrontMax[CI] : 0.0,
                                   S.LaneDecay[CI], NumFront, NumExt);

    // Selection: a strictly better score clears earlier ties; later
    // within-tolerance scores join without lowering the bar.
    double BestScore = std::numeric_limits<double>::infinity();
    S.BestIdx.clear();
    for (size_t CI = 0; CI < NumCand; ++CI) {
      double Score = S.Scores[CI];
      if (Score < BestScore - 1e-12) {
        BestScore = Score;
        S.BestIdx.clear();
        S.BestIdx.push_back(CI);
      } else if (Score <= BestScore + 1e-12) {
        S.BestIdx.push_back(CI);
      }
    }
    size_t Pick = randomTieBreak()
                      ? S.BestIdx[static_cast<size_t>(
                            TieBreaker.nextBounded(S.BestIdx.size()))]
                      : S.BestIdx.front();
    emitSwap(S.Candidates[Pick].first, S.Candidates[Pick].second);
    ++SwapsSinceProgress;
  }

  Result.FinalMapping = Phi;
  Result.MappingSeconds = Clock.elapsedSeconds();
  return Result;
}
