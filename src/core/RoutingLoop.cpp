//===- core/RoutingLoop.cpp - The Qlosure routing kernel -----------------------===//
//
// Part of the Qlosure project. Distributed under the MIT license.
//
//===----------------------------------------------------------------------===//
//
// The main loop runs out of the caller's RoutingScratch. The look-ahead
// window, its dependence-distance layers, the per-layer gate counts and
// the scored-gate records (layer, omega, endpoints, base term) depend only
// on the front, so they are built on the first SWAP after the front
// changed; every gate execution marks them stale. Each SWAP, scored or
// forced, patches only the records of the gates hosted on its two qubits.
// The per-layer base sums are re-added once per SWAP decision in one flat
// ordinal-order pass, the same additions in the same order as a rebuild,
// so the scores are bit-identical to rebuilding the window every time.
// Only the gates hosted on the two swapped qubits contribute
// per-candidate term deltas; Eq. 2 is then evaluated element-wise over
// SoA candidate lanes. The decision sequence is pinned by the golden
// digests of tests/KernelGoldenTest.cpp.
//
// Replay hooks: every observable emission (program gate, SWAP, tie-break
// decision, look-ahead window) passes through the attached ReplayDriver
// when one is set. With no driver every hook is a single null check.
//
//===----------------------------------------------------------------------===//

#include "core/RoutingLoop.h"

#include "circuit/Dag.h"
#include "route/ReplayPlan.h"
#include "support/Timer.h"
#include "support/Trace.h"

#include <algorithm>
#include <cassert>
#include <cmath>
#include <limits>

using namespace qlosure;
using qlosure::detail::RoutingLoop;

RoutingLoop::RoutingLoop(const QlosureOptions &Options,
                         const RoutingContext &Ctx,
                         const QubitMapping &Initial, RoutingScratch &Scratch,
                         const CancellationToken *Cancel)
    : Options(Options), Logical(Ctx.circuit()), Hw(Ctx.hardware()),
      Dag(Ctx.dag()), S(Scratch), Tracker(Ctx.dag(), Scratch), Phi(Initial),
      TieBreaker(Options.Seed), Cancel(Cancel) {
  S.ensurePhys(Hw.numQubits());
  S.Decay.assign(Logical.numQubits(), 1.0);
  LookaheadC = Options.LookaheadConstant ? Options.LookaheadConstant
                                         : Ctx.defaultLookahead();
  BreakTiesOnError = Options.ErrorAware && Hw.hasErrorModel();
  // Memoized in the context; the first reader computes (and traces) it.
  if (Options.UseDependencyWeights)
    Weights = &Ctx.dependenceWeights(S.TraceSink);
  // The scored-gate records persist across route() calls; start from a
  // clean slate in case the previous user left entries behind.
  S.clearScoredGates();
  Result.Routed = Circuit(Hw.numQubits(), Logical.name() + ".routed");
  Result.InitialMapping = Initial;
  Result.RouterName = "Qlosure";
}

RoutingResult RoutingLoop::run() {
  Timer Clock;
  // One span around the whole front-layer loop (never per-step: tracing
  // must stay off the hot path), recorded only when the serving layer
  // installed a sink.
  ScopedSpan LoopSpan(S.TraceSink, "front_layer_loop");
  while (!Tracker.allExecuted()) {
    // One cancellation poll + progress report per front-layer step: a
    // null token costs one branch and never perturbs the decisions.
    if (Cancel) {
      if (Cancel->cancelled()) {
        Result.Cancelled = true;
        break;
      }
      Cancel->reportProgress(Tracker.numExecuted(), Logical.size());
    }
    // Period boundary: the driver replays a recorded schedule (or starts
    // recording one) and returns true when it executed gates itself.
    if (Replay && Replay->maybeHandleBoundary(*this))
      continue;
    if (executeReadyGates())
      continue;
    routeOneSwap();
  }
  if (Replay)
    Replay->finalize();
  Result.FinalMapping = Phi;
  Result.MappingSeconds = Clock.elapsedSeconds();
  return std::move(Result);
}

/// Executes every currently feasible front gate. Returns true if at
/// least one gate was executed.
bool RoutingLoop::executeReadyGates() {
  bool Progress = false;
  bool Changed = true;
  while (Changed) {
    Changed = false;
    // Snapshot: execute() mutates the front.
    S.Ready.clear();
    for (uint32_t G : Tracker.front())
      if (isExecutable(G))
        S.Ready.push_back(G);
    std::sort(S.Ready.begin(), S.Ready.end()); // Deterministic order.
    for (uint32_t G : S.Ready) {
      executeGate(G);
      Changed = true;
      Progress = true;
    }
  }
  if (Progress) {
    // Algorithm 1 line 9: executing a gate resets the decay vector.
    std::fill(S.Decay.begin(), S.Decay.end(), 1.0);
    SwapsSinceProgress = 0;
  }
  return Progress;
}

bool RoutingLoop::isExecutable(uint32_t GateId) const {
  const Gate &G = Logical.gate(GateId);
  if (!G.isTwoQubit())
    return true;
  return Hw.areAdjacent(static_cast<unsigned>(Phi.physOf(G.Qubits[0])),
                        static_cast<unsigned>(Phi.physOf(G.Qubits[1])));
}

void RoutingLoop::emitProgramGate(uint32_t GateId) {
  const Gate &G = Logical.gate(GateId);
  Result.Routed.addGate(
      G.withMappedQubits([this](int32_t Q) { return Phi.physOf(Q); }));
  Result.InsertedSwapFlags.push_back(0);
  if (Replay)
    Replay->noteGateExecuted(GateId);
}

/// Emits and executes front gate \p GateId; the front changes, so the
/// window must be rebuilt before the next scored SWAP.
void RoutingLoop::executeGate(uint32_t GateId) {
  emitProgramGate(GateId);
  Tracker.execute(GateId);
  WindowStale = true;
}

void RoutingLoop::emitSwap(unsigned P1, unsigned P2) {
  Result.Routed.addSwap(static_cast<int32_t>(P1), static_cast<int32_t>(P2));
  Result.InsertedSwapFlags.push_back(1);
  ++Result.NumSwaps;
  // Decay penalizes the *logical* qubits that moved.
  int32_t L1 = Phi.logOf(static_cast<int32_t>(P1));
  int32_t L2 = Phi.logOf(static_cast<int32_t>(P2));
  Phi.swapPhysical(static_cast<int32_t>(P1), static_cast<int32_t>(P2));
  if (L1 >= 0)
    S.Decay[static_cast<size_t>(L1)] += Options.DecayIncrement;
  if (L2 >= 0)
    S.Decay[static_cast<size_t>(L2)] += Options.DecayIncrement;
  if (!WindowStale) {
    // Only the gates hosted on P1 or P2 moved: re-seat them and refresh
    // their base terms omega * D exactly as buildWindowLayers forms them.
    S.swapScoredEndpoints(P1, P2);
    for (unsigned P : {P1, P2})
      for (uint32_t J : S.TouchingGates[P])
        S.WinBase[J] =
            S.WinOmega[J] *
            static_cast<double>(Hw.distance(S.ScoredPA[J], S.ScoredPB[J]));
  }
  if (Replay)
    Replay->noteSwapEmitted(P1, P2);
}

/// Builds the look-ahead window if the front changed since the last SWAP,
/// then applies the best-scoring candidate SWAP.
void RoutingLoop::routeOneSwap() {
  if (SwapsSinceProgress >= Options.MaxSwapsWithoutProgress) {
    forceResolveOldestGate();
    return;
  }

  if (WindowStale)
    buildWindowLayers();
  // Per-layer base sums under the current mapping: one flat pass in
  // ordinal order adds the same terms in the same order as a rebuild.
  std::fill(S.LayerBaseSum.begin(), S.LayerBaseSum.end(), 0.0);
  for (size_t J = 0; J < S.WinLevel.size(); ++J)
    S.LayerBaseSum[S.WinLevel[J]] += S.WinBase[J];
  generateCandidates();
  assert(!S.Candidates.empty() && "no candidate SWAPs on a connected graph");

  scoreCandidates();
  double BestScore = std::numeric_limits<double>::infinity();
  for (size_t CI = 0; CI < S.Candidates.size(); ++CI)
    BestScore = std::min(BestScore, S.Scores[CI]);

  // Error-aware extension: among *exact* cost ties, prefer the
  // candidate on the least noisy coupler. Refining ties cannot perturb
  // the greedy descent of Eq. 2 at all (experiments with relaxed
  // margins, and with folding errors into the distance metric, both
  // ballooned swap counts on dense circuits — cost slack compounds over
  // thousands of decisions).
  double TieMargin = 0.0;
  S.BestIdx.clear();
  for (size_t CI = 0; CI < S.Candidates.size(); ++CI)
    if (S.Scores[CI] <= BestScore + TieMargin + 1e-12)
      S.BestIdx.push_back(CI);
  if (BreakTiesOnError && S.BestIdx.size() > 1) {
    double MinError = std::numeric_limits<double>::infinity();
    for (size_t CI : S.BestIdx)
      MinError = std::min(MinError, Hw.edgeError(S.Candidates[CI].first,
                                                 S.Candidates[CI].second));
    size_t Kept = 0;
    for (size_t CI : S.BestIdx)
      if (Hw.edgeError(S.Candidates[CI].first, S.Candidates[CI].second) <=
          MinError + 1e-12)
        S.BestIdx[Kept++] = CI;
    S.BestIdx.resize(Kept);
  }
  uint64_t Draw = TieBreaker.nextBounded(S.BestIdx.size());
  if (Replay)
    Replay->noteDecision(S.BestIdx.size(), Draw);
  size_t Pick = S.BestIdx[static_cast<size_t>(Draw)];
  emitSwap(S.Candidates[Pick].first, S.Candidates[Pick].second);
  ++SwapsSinceProgress;
}

/// Termination escape hatch: walk the oldest front 2Q gate's operands
/// together along a shortest path.
void RoutingLoop::forceResolveOldestGate() {
  uint32_t Oldest = UINT32_MAX;
  for (uint32_t G : Tracker.front())
    if (Logical.gate(G).isTwoQubit())
      Oldest = std::min(Oldest, G);
  assert(Oldest != UINT32_MAX && "stuck without a blocked 2Q gate");
  const Gate &G = Logical.gate(Oldest);
  unsigned P1 = static_cast<unsigned>(Phi.physOf(G.Qubits[0]));
  unsigned P2 = static_cast<unsigned>(Phi.physOf(G.Qubits[1]));
  std::vector<unsigned> Path = Hw.shortestPath(P1, P2);
  // Move the first operand down the path until adjacent to the second.
  for (size_t I = 0; I + 2 < Path.size(); ++I)
    emitSwap(Path[I], Path[I + 1]);
  SwapsSinceProgress = 0;
}

/// Populates S.Window / S.GateLevel / the per-layer gate counts and the
/// scored-gate records for the current front and mapping.
void RoutingLoop::buildWindowLayers() {
  // n_f = distinct physical qubits hosting front-layer gate operands. A
  // SWAP permutes physical qubits, so n_f (and with it the window size)
  // is fixed for a front.
  S.PhysSeen.beginEpoch();
  unsigned NumFrontQubits = 0;
  for (uint32_t GI : Tracker.front()) {
    const Gate &G = Logical.gate(GI);
    unsigned N = G.numQubits();
    for (unsigned Q = 0; Q < N; ++Q) {
      unsigned P = static_cast<unsigned>(Phi.physOf(G.Qubits[Q]));
      if (!S.PhysSeen.fresh(P)) {
        S.PhysSeen.set(P, 1);
        ++NumFrontQubits;
      }
    }
  }

  // Dependence-distance levels within the window: level 1 for window
  // gates with no unexecuted predecessor inside the window, otherwise
  // the maximum predecessor level, incremented for two-qubit gates.
  // Single-qubit gates transmit their level without incrementing it —
  // only routable gates define dependence distance for Eq. 2. A stale
  // GateLevel entry reads 0 = "outside the window", so a rebuild costs
  // no O(numGates) refill.
  S.GateLevel.beginEpoch();
  unsigned MaxLevel = 0;
  if (!Options.UseLayerStructure) {
    // Distance-only / front-only variants: the window is just L_f.
    S.Window.assign(Tracker.front().begin(), Tracker.front().end());
    std::sort(S.Window.begin(), S.Window.end());
    for (uint32_t G : S.Window)
      S.GateLevel.set(G, 1);
    MaxLevel = 1;
  } else {
    size_t WindowSize = static_cast<size_t>(LookaheadC) * NumFrontQubits;
    // The budget counts two-qubit gates: they are the ones the cost
    // function scores, so sparse circuits with many interleaved 1Q
    // gates keep a comparable routing horizon.
    Tracker.topologicalWindow(std::max<size_t>(WindowSize, 1),
                              /*CountTwoQubitOnly=*/true); // Fills S.Window.
    for (uint32_t G : S.Window) {
      unsigned Level = 0;
      for (uint32_t Pred : Dag.predecessors(G))
        Level = std::max(Level, S.GateLevel.get(Pred)); // 0 if outside.
      bool IsTwoQubit = Logical.gate(G).isTwoQubit();
      unsigned GLevel = Level + (IsTwoQubit ? 1 : 0);
      if (!IsTwoQubit && GLevel == 0)
        GLevel = 1; // 1Q window roots sit in the front layer.
      S.GateLevel.set(G, GLevel);
      MaxLevel = std::max(MaxLevel, GLevel);
    }
  }

  // Per-layer 2Q-gate counts plus the flat per-scored-gate records
  // (layer, endpoints, omega, cached base term omega_g * D(PA, PB)) the
  // candidate delta pass reads — TouchingGates stores the scored ordinal,
  // so rescoring never goes back to the Gate objects. D stays the hop
  // metric even in error-aware mode: a weighted metric has a per-edge
  // error floor, so swaps toward true adjacency would not reduce it and
  // routing would stop converging; error-awareness instead penalizes the
  // candidate swap's own edge (see routeOneSwap).
  S.LayerGateCount.assign(MaxLevel + 1, 0);
  S.LayerBaseSum.assign(MaxLevel + 1, 0.0);
  S.WinLevel.clear();
  S.WinOmega.clear();
  S.WinBase.clear();
  S.clearScoredGates();
  for (uint32_t G : S.Window) {
    const Gate &Gate2 = Logical.gate(G);
    if (!Gate2.isTwoQubit())
      continue;
    unsigned L = S.GateLevel.get(G);
    ++S.LayerGateCount[L];
    unsigned PA = static_cast<unsigned>(Phi.physOf(Gate2.Qubits[0]));
    unsigned PB = static_cast<unsigned>(Phi.physOf(Gate2.Qubits[1]));
    double Omega = Options.UseDependencyWeights
                       ? static_cast<double>((*Weights)[G]) + 1.0
                       : 1.0;
    S.WinLevel.push_back(L);
    S.WinOmega.push_back(Omega);
    S.WinBase.push_back(Omega * static_cast<double>(Hw.distance(PA, PB)));
    S.addScoredGate(PA, PB);
  }
  WindowStale = false;

  // A recording can only start at a period boundary, which gate
  // execution reaches, so it always sees the rebuild of its first front.
  if (Replay)
    Replay->noteWindow(S.Window);
}

/// Fills S.Candidates with the swaps on P_front edges.
void RoutingLoop::generateCandidates() {
  // P_front: physical qubits of blocked front-layer 2Q gates.
  S.PhysSeen.beginEpoch();
  S.PFront.clear();
  for (uint32_t GI : Tracker.front()) {
    const Gate &G = Logical.gate(GI);
    if (!G.isTwoQubit())
      continue;
    for (unsigned Q = 0; Q < 2; ++Q) {
      unsigned P = static_cast<unsigned>(Phi.physOf(G.Qubits[Q]));
      if (!S.PhysSeen.fresh(P)) {
        S.PhysSeen.set(P, 1);
        S.PFront.push_back(P);
      }
    }
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
}

/// Evaluates Eq. 2 for every candidate SWAP at once. Per candidate, only
/// the gates hosted on the swapped qubits contribute term deltas (delta
/// rescoring against the cached per-layer base sums); the deltas land in
/// layer-major SoA lanes and the layer combine + decay multiply then run
/// element-wise across candidates (a gate on both swapped qubits has an
/// exactly zero delta, so skipping it never changes a bit).
void RoutingLoop::scoreCandidates() {
  const size_t NumCand = S.Candidates.size();
  const size_t NumLayers = S.LayerBaseSum.size();
  S.LaneAdjust.assign(NumLayers * NumCand, 0.0);
  S.LaneDecay.resize(NumCand);

  for (size_t CI = 0; CI < NumCand; ++CI) {
    auto [P1, P2] = S.Candidates[CI];
    auto adjustGatesOn = [&](unsigned P, unsigned Other) {
      for (uint32_t J : S.TouchingGates[P]) {
        unsigned PA = S.ScoredPA[J];
        unsigned PB = S.ScoredPB[J];
        if (PA == Other || PB == Other)
          continue; // Gate touches both swapped qubits: delta is zero.
        unsigned NewPA = PA == P1 ? P2 : (PA == P2 ? P1 : PA);
        unsigned NewPB = PB == P1 ? P2 : (PB == P2 ? P1 : PB);
        S.LaneAdjust[static_cast<size_t>(S.WinLevel[J]) * NumCand + CI] +=
            S.WinOmega[J] * static_cast<double>(Hw.distance(NewPA, NewPB)) -
            S.WinBase[J];
      }
    };
    adjustGatesOn(P1, P2);
    adjustGatesOn(P2, P1);

    int32_t L1 = Phi.logOf(static_cast<int32_t>(P1));
    int32_t L2 = Phi.logOf(static_cast<int32_t>(P2));
    double D1 = L1 >= 0 ? S.Decay[static_cast<size_t>(L1)] : 1.0;
    double D2 = L2 >= 0 ? S.Decay[static_cast<size_t>(L2)] : 1.0;
    S.LaneDecay[CI] = std::max(D1, D2);
  }

  // Eq. 2, layer by layer in ascending order: the 1/l dependence-distance
  // discount and the per-layer gate-count normalization.
  S.Scores.assign(NumCand, 0.0);
  for (size_t L = 1; L < NumLayers; ++L) {
    if (S.LayerGateCount[L] == 0)
      continue;
    const double *Adj = S.LaneAdjust.data() + L * NumCand;
    const double Base = S.LayerBaseSum[L];
    const double Layer = static_cast<double>(L);
    const double Count = static_cast<double>(S.LayerGateCount[L]);
    for (size_t CI = 0; CI < NumCand; ++CI)
      S.Scores[CI] += ((Base + Adj[CI]) / Layer) / Count;
  }
  for (size_t CI = 0; CI < NumCand; ++CI)
    S.Scores[CI] = S.LaneDecay[CI] * S.Scores[CI];
}

bool RoutingLoop::replayEmitGate(uint32_t GateId) {
  if (GateId >= Logical.size() || !Tracker.isInFront(GateId) ||
      !isExecutable(GateId))
    return false;
  executeGate(GateId);
  return true;
}

void RoutingLoop::replayEmitSwap(unsigned P1, unsigned P2) {
  emitSwap(P1, P2);
}

void RoutingLoop::replayResetProgress() {
  std::fill(S.Decay.begin(), S.Decay.end(), 1.0);
  SwapsSinceProgress = 0;
}
