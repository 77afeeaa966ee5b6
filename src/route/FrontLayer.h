//===- route/FrontLayer.h - Ready-gate tracking -------------------*- C++ -*-===//
//
// Part of the Qlosure project. Distributed under the MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Maintains the front layer L_f — the set of gates whose dependence
/// predecessors have all executed — over a CircuitDag, plus a look-ahead
/// iterator yielding the topologically earliest unexecuted gates. Shared by
/// Qlosure and all baseline routers. All mutable state lives in a
/// caller-provided RoutingScratch, so constructing a tracker for every
/// route() call reuses the previous call's buffer capacity and the
/// per-front look-ahead window allocates nothing at all.
///
//===----------------------------------------------------------------------===//

#ifndef QLOSURE_ROUTE_FRONTLAYER_H
#define QLOSURE_ROUTE_FRONTLAYER_H

#include "circuit/Dag.h"
#include "route/RoutingScratch.h"

#include <cstdint>
#include <vector>

namespace qlosure {

/// Incremental front-layer tracker. Holds references to the DAG and the
/// scratch; at most one tracker may use a given scratch at a time (a new
/// tracker on the same scratch invalidates the previous one).
class FrontLayerTracker {
public:
  FrontLayerTracker(const CircuitDag &Dag, RoutingScratch &Scratch);

  /// Gates currently ready (unordered).
  const std::vector<uint32_t> &front() const { return S.Front; }

  bool allExecuted() const { return NumExecuted == Dag.numGates(); }
  size_t numExecuted() const { return NumExecuted; }

  /// Marks \p GateId (which must be in the front) as executed, releasing
  /// its successors into the front when their last dependence clears. O(1)
  /// plus successor release: the front is position-indexed, so no scan.
  void execute(uint32_t GateId);

  /// True if \p GateId is ready but not yet executed.
  bool isInFront(uint32_t GateId) const {
    return S.FrontPos[GateId] != RoutingScratch::NotInFront;
  }

  /// Collects unexecuted gates in topological order starting from the
  /// front (the paper's look-ahead window candidates, before layer
  /// formation), until \p MaxGates gates have been gathered. When
  /// \p CountTwoQubitOnly is set, only two-qubit gates count toward the
  /// budget (single-qubit gates are still traversed and returned so layer
  /// construction sees the full dependence structure); the total is then
  /// capped at 8x MaxGates as a safety bound.
  ///
  /// The returned reference aliases scratch storage: it is valid until the
  /// next topologicalWindow call on the same scratch, and allocates
  /// nothing once the scratch is warm (epoch-stamped predecessor counts +
  /// a reused BFS ring).
  const std::vector<uint32_t> &
  topologicalWindow(size_t MaxGates, bool CountTwoQubitOnly = false) const;

private:
  const CircuitDag &Dag;
  RoutingScratch &S;
  size_t NumExecuted = 0;
};

} // namespace qlosure

#endif // QLOSURE_ROUTE_FRONTLAYER_H
