//===- topology/CouplingGraph.h - QPU coupling graphs ------------*- C++ -*-===//
//
// Part of the Qlosure project. Distributed under the MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The hardware connectivity abstraction R_hw of the paper: an undirected
/// graph over physical qubits plus the all-pairs shortest path matrix
/// D_phys used by every router's cost function, and optionally a per-edge
/// two-qubit error table. The error table is all the error-aware mode
/// reads: it breaks score ties toward the least noisy coupler, while
/// D_phys stays the hop metric.
///
//===----------------------------------------------------------------------===//

#ifndef QLOSURE_TOPOLOGY_COUPLINGGRAPH_H
#define QLOSURE_TOPOLOGY_COUPLINGGRAPH_H

#include <algorithm>
#include <cassert>
#include <cstdint>
#include <string>
#include <utility>
#include <vector>

namespace qlosure {

/// An undirected coupling graph over physical qubits 0..N-1.
class CouplingGraph {
public:
  CouplingGraph() = default;
  explicit CouplingGraph(unsigned NumQubits, std::string Name = "")
      : NumQubits(NumQubits), Adjacency(NumQubits), Name(std::move(Name)) {}

  unsigned numQubits() const { return NumQubits; }
  const std::string &name() const { return Name; }

  /// Adds the undirected edge (A, B); duplicate additions are ignored.
  void addEdge(unsigned A, unsigned B);

  // Inline: adjacency and distance queries sit on the innermost loops of
  // every mapper (A* successor generation, swap-candidate delta scoring),
  // where an out-of-line call would dominate the O(1) lookup itself.
  bool areAdjacent(unsigned A, unsigned B) const {
    assert(A < NumQubits && B < NumQubits && "qubit out of range");
    if (!Distances.empty())
      return Distances[static_cast<size_t>(A) * NumQubits + B] == 1;
    const std::vector<unsigned> &Nbrs = Adjacency[A];
    return std::find(Nbrs.begin(), Nbrs.end(), B) != Nbrs.end();
  }

  const std::vector<unsigned> &neighbors(unsigned Qubit) const {
    return Adjacency[Qubit];
  }

  /// All edges with A < B.
  std::vector<std::pair<unsigned, unsigned>> edges() const;

  size_t numEdges() const;

  /// Maximum vertex degree (the paper's look-ahead constant c must exceed
  /// this).
  unsigned maxDegree() const;

  /// True if every qubit can reach every other.
  bool isConnected() const;

  /// Computes the all-pairs shortest-path matrix via BFS from each vertex.
  /// Unreachable pairs get the sentinel UnreachableDistance. Idempotent:
  /// repeated calls on an unchanged graph return immediately (mutating the
  /// graph invalidates the cache, so the next call recomputes).
  void computeDistances();

  /// Shortest-path distance (in edges == minimum SWAP chain length + 1
  /// relative to adjacency). Requires computeDistances() first.
  unsigned distance(unsigned A, unsigned B) const {
    assert(hasDistances() && "call computeDistances() first");
    assert(A < NumQubits && B < NumQubits && "qubit out of range");
    return Distances[static_cast<size_t>(A) * NumQubits + B];
  }

  bool hasDistances() const { return !Distances.empty(); }

  /// One shortest path from A to B inclusive of both endpoints.
  std::vector<unsigned> shortestPath(unsigned A, unsigned B) const;

  //===--------------------------------------------------------------------===//
  // Error model (the paper's future-work extension: error-aware mapping)
  //===--------------------------------------------------------------------===//

  /// Records the two-qubit gate error rate of the edge (A, B) (must exist).
  void setEdgeError(unsigned A, unsigned B, double ErrorRate);

  /// Error rate of edge (A, B); 0 when no model was installed.
  double edgeError(unsigned A, unsigned B) const;

  bool hasErrorModel() const { return ErrorModelInstalled; }

  static constexpr unsigned UnreachableDistance = 0x3FFFFFFF;

private:
  size_t edgeKey(unsigned A, unsigned B) const {
    return static_cast<size_t>(std::min(A, B)) * NumQubits + std::max(A, B);
  }

  unsigned NumQubits = 0;
  std::vector<std::vector<unsigned>> Adjacency;
  std::vector<uint32_t> Distances; // Row-major N x N.
  /// Flat N x N table keyed by edgeKey (0 off-edge); sized lazily on the
  /// first setEdgeError. A flat vector keeps the error-aware hot path
  /// (one lookup per candidate SWAP per decision) free of tree walks.
  std::vector<double> EdgeErrors;
  bool ErrorModelInstalled = false;
  std::string Name;
};

/// Installs a synthetic calibration on \p Graph: edge error rates drawn
/// log-uniformly from [MinError, MaxError] with the given \p Seed. Models
/// the daily calibration data real QPU vendors publish (which this repo
/// cannot ship).
void applySyntheticErrorModel(CouplingGraph &Graph, uint64_t Seed,
                              double MinError = 0.002,
                              double MaxError = 0.03);

} // namespace qlosure

#endif // QLOSURE_TOPOLOGY_COUPLINGGRAPH_H
