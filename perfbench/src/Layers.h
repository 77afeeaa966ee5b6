//===- perfbench/src/Layers.h - Per-layer replay of a workload -------------===//
//
// Part of the Qlosure project. Distributed under the MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The traced run's per-layer numbers: the workload's first inputs are
/// replayed through each module's public functions, in the order the
/// daemon calls them, and every call is timed as a span tagged with the
/// request's id. Spans stay in memory; the caller writes them out at the
/// end of the run.
///
///   service.decode   service::parseRequest
///   qasm.parse       qasm::parseQasm
///   qasm.import      qasm::importProgram (+ the daemon's unitary strip)
///   route.context    RoutingContext::build (DAG, distances; omega lazy)
///   deps.omega       RoutingContext::dependenceWeights (Auto engine),
///                    split by WeightResult::UsedEngine. QUEKO workloads,
///                    whose circuits Auto always gives the exact engine,
///                    add two probe QFT kernels just over the 30 000-gate
///                    limit for the affine figure and the replay ratio.
///   <mapper>.route   Router::route on the prebuilt, omega-warmed context,
///                    for all four deterministic mappers
///   route.verify     verifyRouting
///   qasm.print       qasm::printQasm of the routed circuit
///   service.encode   formatRouteResponse / formatBatchItemResult
///   service.store    ResultStore::put / ResultStore::get
///
//===----------------------------------------------------------------------===//

#ifndef QLOSURE_PERFBENCH_LAYERS_H
#define QLOSURE_PERFBENCH_LAYERS_H

#include "Load.h"
#include "Workloads.h"

#include "topology/CouplingGraph.h"

#include <map>
#include <string>
#include <vector>

namespace perfbench {

struct LayerSamples {
  /// Milliseconds per call, keyed by the per-layer metric name.
  std::map<std::string, std::vector<double>> Ms;
  /// Per replayed input: the summed time of the layers on the daemon's
  /// request path for this workload (scheduler queue wait excluded — the
  /// caller adds the daemon's own figure).
  std::vector<double> PathMs;
  double ParsedBytes = 0;
  double ParseSeconds = 0;
  size_t OmegaResults = 0;  ///< Auto-engine omega computations.
  size_t OmegaInexact = 0;  ///< ... of which IsExact was false.
  size_t ReplayedPeriods = 0;
  size_t FallbackPeriods = 0;
  std::vector<SpanRecord> Spans;
  std::vector<std::string> Errors;
};

/// Replays the first W.ReplayCount requests of \p W. \p StorePath names a
/// fresh file for the ResultStore timings.
LayerSamples replayLayers(const Workload &W, const qlosure::CouplingGraph &Hw,
                          const std::string &StorePath);

} // namespace perfbench

#endif // QLOSURE_PERFBENCH_LAYERS_H
