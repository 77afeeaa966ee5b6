//===- perfbench/src/Workloads.h - Seeded request sets ---------------------===//
//
// Part of the Qlosure project. Distributed under the MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The three workloads of the benchmark, generated from the workload seed,
/// and the reference answer of every request computed with direct library
/// calls (import, routeWithIdentity, verifyRouting, printQasm) — the bytes
/// the daemon must return.
///
///   cold-queko       2 clients, closed loop of `route` ops; every request
///                    a distinct 54-qubit QUEKO circuit (depth 300-500) for
///                    sherbrooke; half qlosure, half sabre/cirq/tket.
///   warm-hits        3 clients, closed loop of `route` ops over 16
///                    (circuit, mapper) pairs primed during setup; every
///                    answer is a result-cache hit. (Four clients plus the
///                    daemon's four connection threads oversubscribe four
///                    cores and made the p90 unsteady.)
///   omega-crossover  1 connection, closed loop of `batch` ops of qlosure
///                    items: qftLikeKernel(80..120 qubits) sized just under
///                    and just over the 30 000-gate Auto limit of the omega
///                    engine; batches alternate affine:false/affine:true.
///
/// QMAP is in no workload: its wall-clock search budget makes its output
/// depend on load, so it cannot be checked byte for byte.
///
//===----------------------------------------------------------------------===//

#ifndef QLOSURE_PERFBENCH_WORKLOADS_H
#define QLOSURE_PERFBENCH_WORKLOADS_H

#include "circuit/Circuit.h"
#include "route/Router.h"
#include "topology/CouplingGraph.h"

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

namespace perfbench {

enum class Kind { ColdQueko, WarmHits, OmegaCrossover };

/// The backend every workload routes onto.
inline constexpr const char *BackendName = "sherbrooke";

/// One routed circuit: a `route` op, or one item of a `batch` op.
struct Request {
  size_t Index = 0;     ///< Position in the workload's sequence.
  std::string Mapper;
  bool Affine = false;
  /// What the circuit is generated from (regenerated on demand so the
  /// request set need not keep every QASM text alive).
  uint64_t QuekoSeed = 0;
  unsigned QuekoDepth = 0;
  unsigned QftQubits = 0;
  int64_t QftReps = 0;

  std::string qasm() const;
};

struct Workload {
  Kind TheKind = Kind::ColdQueko;
  std::string Name;
  unsigned Clients = 1;
  size_t BatchSize = 0;       ///< Items per batch op (omega-crossover).
  /// swaps and depth_ratio sum over requests with Index < QualityPrefix,
  /// a fixed set for a given seed, so both repeat exactly run to run
  /// (taken from the reference answers, so they do not depend on how many
  /// requests a run got through).
  size_t QualityPrefix = 0;
  /// Inputs replayed through the library in the traced run (a whole
  /// period of the request mix).
  size_t ReplayCount = 0;
  /// The latency percentile reported as latency_ms.tail: the highest that
  /// leaves at least ten samples beyond it at this workload's rate.
  double TailQuantile = 0.9;
  std::vector<Request> Requests;
};

/// Builds workload \p Name from \p Seed. \p Seconds sizes the pool of
/// distinct requests; \p Smoke shrinks everything to a few tiny inputs.
/// Returns false for an unknown name.
bool makeWorkload(const std::string &Name, uint64_t Seed, double Seconds,
                  bool Smoke, Workload &Out);

/// The daemon's router for (mapper, affine) — the same construction
/// qlosured uses, so the reference bytes match the service's.
std::unique_ptr<qlosure::Router> makeServiceRouter(const std::string &Mapper,
                                                   bool Affine);

/// What a correct daemon answers for one request.
struct Expected {
  bool Ok = false;
  std::string Error;
  uint64_t QasmFingerprint = 0;
  size_t LogicalGates = 0;
  size_t RoutedGates = 0;
  size_t Swaps = 0;
  size_t DepthBefore = 0;
  size_t DepthAfter = 0;
};

/// Imports \p Qasm exactly as the daemon does (non-unitaries stripped,
/// three-qubit gates decomposed).
bool importLikeDaemon(const std::string &Qasm, qlosure::Circuit &Out,
                      std::string &Error);

/// Reference answers for \p Reqs, computed on \p Threads threads.
std::vector<Expected> computeExpected(const std::vector<const Request *> &Reqs,
                                      const qlosure::CouplingGraph &Hw,
                                      unsigned Threads);

} // namespace perfbench

#endif // QLOSURE_PERFBENCH_WORKLOADS_H
