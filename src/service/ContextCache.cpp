//===- service/ContextCache.cpp - Sharded routing-state caches -----------------===//
//
// Part of the Qlosure project. Distributed under the MIT license.
//
//===----------------------------------------------------------------------===//

#include "service/ContextCache.h"

using namespace qlosure;
using namespace qlosure::service;

namespace {

/// Rough memory footprint of one cached bundle: the gate list, the
/// adjacency lists, the distance matrix, and the per-gate DAG and omega
/// arrays. omega is counted whether or not a mapper has read it yet, so
/// an entry's size never changes after insert. The graph is counted
/// although the backend pool shares it: an entry keeps it alive after the
/// pool drops it. Close enough for byte-budget eviction; exactness is not
/// the point.
size_t estimateBytes(const Circuit &Circ, const CouplingGraph &Hw) {
  size_t N = Hw.numQubits();
  size_t Bytes = sizeof(CachedContext);
  Bytes += Circ.size() * sizeof(Gate);
  Bytes += Hw.numEdges() * 2 * sizeof(unsigned) + N * 32;
  Bytes += N * N * sizeof(uint32_t); // Distances.
  // DAG: per-gate successor/predecessor edges (<= 2 each way for 2-qubit
  // gates) plus node bookkeeping.
  Bytes += Circ.size() * 48;
  Bytes += Circ.size() * sizeof(uint64_t); // omega.
  return Bytes;
}

} // namespace

std::shared_ptr<const CachedContext>
CachedContext::build(std::shared_ptr<const Circuit> Circ,
                     std::shared_ptr<const CouplingGraph> Hw,
                     const RoutingContextOptions &Options, Trace *T) {
  auto Bundle = std::shared_ptr<CachedContext>(new CachedContext());
  Bundle->Circ = std::move(Circ);
  Bundle->Hw = std::move(Hw);
  Bundle->Ctx.emplace(
      RoutingContext::build(*Bundle->Circ, *Bundle->Hw, Options, T));
  Bundle->Bytes = estimateBytes(*Bundle->Circ, *Bundle->Hw);
  return Bundle;
}
