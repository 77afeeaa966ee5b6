//===- core/RoutingLoop.h - The Qlosure routing kernel ------------*- C++ -*-===//
//
// Part of the Qlosure project. Distributed under the MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The scratch-backed main loop behind QlosureRouter::route, exposed as a
/// class so the affine replay driver (route/ReplayPlan.h) can observe its
/// emissions and drive it period-by-period. Without a driver attached the
/// loop *is* the former Qlosure.cpp-internal kernel: every hook is a null
/// check, and the decision sequence stays byte-identical to the driver-free
/// implementation (tests/KernelGoldenTest.cpp pins it).
///
/// The look-ahead window and the per-gate level map are epoch-stamped
/// (O(1) reset per step instead of O(numGates) refills), the per-qubit
/// touching-gate lists are cleared surgically via the touched-set, and
/// every candidate/score array is a reused flat buffer. Only the gates
/// hosted on the two swapped qubits contribute per-candidate term deltas;
/// the deltas land in layer-major SoA lanes and Eq. 2 is then evaluated
/// element-wise across all candidates at once.
///
//===----------------------------------------------------------------------===//

#ifndef QLOSURE_CORE_ROUTINGLOOP_H
#define QLOSURE_CORE_ROUTINGLOOP_H

#include "core/Qlosure.h"
#include "route/FrontLayer.h"
#include "support/Random.h"

namespace qlosure {

class ReplayDriver;

namespace detail {

/// Routing state shared by the helper methods of the main loop. All
/// mutable buffers live in the caller's RoutingScratch.
class RoutingLoop {
public:
  RoutingLoop(const QlosureOptions &Options, const RoutingContext &Ctx,
              const QubitMapping &Initial, RoutingScratch &Scratch,
              const CancellationToken *Cancel);

  /// Attaches the affine replay driver for this run. Null (the default)
  /// is the plain scalar kernel; the observer hooks then cost one branch
  /// each and never perturb the decisions.
  void setReplayDriver(ReplayDriver *Driver) { Replay = Driver; }

  /// Routes to completion (or cancellation) and returns the result.
  RoutingResult run();

private:
  // The replay driver is the kernel's alter ego: it replays recorded
  // emission schedules through the private emit/execute primitives and
  // re-synchronizes the decision state (decay, progress counter, RNG)
  // exactly as the scalar loop would have evolved it.
  friend class qlosure::ReplayDriver;

  bool executeReadyGates();
  bool isExecutable(uint32_t GateId) const;
  void emitProgramGate(uint32_t GateId);
  void emitSwap(unsigned P1, unsigned P2);
  void routeOneSwap();
  void forceResolveOldestGate();
  void buildWindowLayers();
  double gateTerm(uint32_t G, unsigned PA, unsigned PB) const;
  void generateCandidates();
  void scoreCandidates();

  // --- Replay primitives (driver-only) ---------------------------------

  /// Emits trace gate \p GateId through the current mapping and executes
  /// it, or returns false when it is not currently executable (not in the
  /// front layer, or two-qubit operands not adjacent) — the replay must
  /// then stop and let the scalar loop resume from this exact state.
  bool replayEmitGate(uint32_t GateId);

  /// Re-applies a recorded SWAP (P1, P2 are physical indices).
  void replayEmitSwap(unsigned P1, unsigned P2);

  /// Restores the post-progress decision state (decay vector all ones,
  /// progress counter zero) — what executeReadyGates leaves behind after
  /// any pass that executed a gate.
  void replayResetProgress();

  const QlosureOptions &Options;
  const Circuit &Logical;
  const CouplingGraph &Hw;
  const CircuitDag &Dag;
  RoutingScratch &S;
  FrontLayerTracker Tracker;
  QubitMapping Phi;
  Rng TieBreaker;
  const CancellationToken *Cancel = nullptr;
  const std::vector<uint64_t> *Weights = nullptr;
  ReplayDriver *Replay = nullptr;
  unsigned LookaheadC = 0;
  unsigned SwapsSinceProgress = 0;
  bool BreakTiesOnError = false;

  RoutingResult Result;
};

} // namespace detail
} // namespace qlosure

#endif // QLOSURE_CORE_ROUTINGLOOP_H
