//===- tests/RoutingContextTest.cpp - shared precomputation layer tests -----------===//
//
// Part of the Qlosure project. Distributed under the MIT license.
//
//===----------------------------------------------------------------------===//

#include "route/RoutingContext.h"

#include "baselines/RouterRegistry.h"
#include "baselines/Sabre.h"
#include "core/Qlosure.h"
#include "deps/TransitiveWeights.h"
#include "route/Verify.h"
#include "topology/Backends.h"
#include "workloads/QasmBench.h"

#include <gtest/gtest.h>

using namespace qlosure;

namespace {

/// Routed results must match gate-for-gate, not just in aggregate.
void expectSameRouting(const RoutingResult &A, const RoutingResult &B) {
  EXPECT_EQ(A.NumSwaps, B.NumSwaps);
  EXPECT_EQ(A.Routed.depth(), B.Routed.depth());
  ASSERT_EQ(A.Routed.size(), B.Routed.size());
  for (size_t I = 0; I < A.Routed.size(); ++I) {
    EXPECT_EQ(A.Routed.gate(I).Kind, B.Routed.gate(I).Kind);
    EXPECT_EQ(A.Routed.gate(I).Qubits, B.Routed.gate(I).Qubits);
  }
  EXPECT_TRUE(A.FinalMapping == B.FinalMapping);
}

} // namespace

TEST(RoutingContextTest, BuildCachesDeviceConstants) {
  Circuit C = makeQft(8);
  CouplingGraph Hw = makeAspen16();
  RoutingContext Ctx = RoutingContext::build(C, Hw);
  ASSERT_TRUE(Ctx.valid());
  EXPECT_EQ(&Ctx.circuit(), &C);
  EXPECT_EQ(Ctx.dag().numGates(), C.size());
  EXPECT_EQ(Ctx.maxDegree(), Hw.maxDegree());
  EXPECT_EQ(Ctx.defaultLookahead(), 2 * Hw.maxDegree() + 2);
  // The backend arrived with distances; the context references it.
  EXPECT_EQ(&Ctx.hardware(), &Hw);
}

TEST(RoutingContextTest, BuildDerivesMissingDistancesOnPrivateCopy) {
  Circuit C = makeGhz(5);
  CouplingGraph Hw(6, "bare-line");
  for (unsigned Q = 0; Q + 1 < 6; ++Q)
    Hw.addEdge(Q, Q + 1);
  ASSERT_FALSE(Hw.hasDistances());
  RoutingContext Ctx = RoutingContext::build(C, Hw);
  ASSERT_TRUE(Ctx.valid());
  // The caller's graph is never mutated; the context routes anyway.
  EXPECT_FALSE(Hw.hasDistances());
  EXPECT_TRUE(Ctx.hardware().hasDistances());
  QlosureRouter Router;
  RoutingResult R = Router.routeWithIdentity(Ctx);
  EXPECT_TRUE(verifyRouting(C, Ctx.hardware(), R).Ok);
}

TEST(RoutingContextTest, LazyWeightsMatchDirectComputation) {
  Circuit C = makeQft(10);
  CouplingGraph Hw = makeAspen16();
  RoutingContext Ctx = RoutingContext::build(C, Hw);
  const std::vector<uint64_t> &Cached = Ctx.dependenceWeights();
  // Second call returns the same memoized object.
  EXPECT_EQ(&Cached, &Ctx.dependenceWeights());
  EXPECT_EQ(Cached, computeDependenceWeights(C).Weights);
}

TEST(RoutingContextTest, ReuseAcrossRoutersMatchesFreshContexts) {
  Circuit C = makeQft(9);
  CouplingGraph Hw = makeAspen16();
  RoutingContext Shared = RoutingContext::build(C, Hw);

  QlosureRouter Qlosure;
  SabreRouter Sabre;
  // The shared context serves both routers, twice each, and matches both
  // a fresh context and the one-shot 3-arg adapter.
  for (Router *R : std::initializer_list<Router *>{&Qlosure, &Sabre}) {
    RoutingResult FromShared1 = R->routeWithIdentity(Shared);
    RoutingResult FromShared2 = R->routeWithIdentity(Shared);
    RoutingContext Fresh = RoutingContext::build(C, Hw, R->contextOptions());
    RoutingResult FromFresh = R->routeWithIdentity(Fresh);
    RoutingResult FromAdapter = R->routeWithIdentity(C, Hw);
    expectSameRouting(FromShared1, FromShared2);
    expectSameRouting(FromShared1, FromFresh);
    expectSameRouting(FromShared1, FromAdapter);
  }
}

TEST(RoutingContextTest, AllFiveRegistryRoutersRouteThroughContext) {
  Circuit C = makeQft(7);
  CouplingGraph Hw = makeGrid(3, 3);
  RoutingContext Ctx = RoutingContext::build(C, Hw);
  ASSERT_TRUE(Ctx.valid());
  for (const std::string &Name : paperRouterNames()) {
    std::unique_ptr<Router> R = makeRouterByName(Name);
    RoutingResult Result = R->routeWithIdentity(Ctx);
    EXPECT_TRUE(verifyRouting(C, Ctx.hardware(), Result).Ok)
        << Name << " failed verification through the context API";
    expectSameRouting(Result, R->routeWithIdentity(C, Hw));
  }
}

TEST(RoutingContextTest, RejectsOversizedCircuit) {
  Circuit C = makeGhz(10);
  CouplingGraph Hw = makeLine(4);
  RoutingContext Ctx = RoutingContext::build(C, Hw);
  EXPECT_FALSE(Ctx.valid());
  EXPECT_NE(Ctx.status().message().find("qubits"), std::string::npos);
}

TEST(RoutingContextTest, RejectsDisconnectedDevice) {
  Circuit C = makeGhz(3);
  CouplingGraph Hw(4, "two-islands");
  Hw.addEdge(0, 1);
  Hw.addEdge(2, 3);
  RoutingContext Ctx = RoutingContext::build(C, Hw);
  EXPECT_FALSE(Ctx.valid());
  EXPECT_NE(Ctx.status().message().find("disconnected"), std::string::npos);
}

TEST(RoutingContextTest, RejectsThreeQubitGatesAndBarriers) {
  CouplingGraph Hw = makeLine(4);
  Circuit WithCcx(3, "ccx");
  WithCcx.addGate(Gate(GateKind::CCX, 0, 1, 2));
  EXPECT_FALSE(RoutingContext::build(WithCcx, Hw).valid());

  Circuit WithBarrier(2, "barrier");
  WithBarrier.add1Q(GateKind::H, 0);
  WithBarrier.addGate(Gate(GateKind::Barrier, 0));
  EXPECT_FALSE(RoutingContext::build(WithBarrier, Hw).valid());
}

TEST(RoutingContextTest, ValidateRejectsMismatchedMapping) {
  Circuit C = makeGhz(3);
  CouplingGraph Hw = makeLine(5);
  RoutingContext Ctx = RoutingContext::build(C, Hw);
  ASSERT_TRUE(Ctx.valid());
  EXPECT_TRUE(Router::validate(Ctx, Ctx.identityMapping()).ok());
  // Wrong arity: a mapping sized for a different device.
  QubitMapping Wrong = QubitMapping::identity(3, 4);
  EXPECT_FALSE(Router::validate(Ctx, Wrong).ok());
}

//===----------------------------------------------------------------------===//
// CouplingGraph cache semantics backing the context layer
//===----------------------------------------------------------------------===//

TEST(CouplingGraphCacheTest, ComputeDistancesIsIdempotent) {
  CouplingGraph G = makeGrid(3, 3);
  std::vector<unsigned> Before;
  for (unsigned A = 0; A < G.numQubits(); ++A)
    for (unsigned B = 0; B < G.numQubits(); ++B)
      Before.push_back(G.distance(A, B));
  G.computeDistances(); // No-op on an unchanged graph.
  size_t I = 0;
  for (unsigned A = 0; A < G.numQubits(); ++A)
    for (unsigned B = 0; B < G.numQubits(); ++B)
      EXPECT_EQ(G.distance(A, B), Before[I++]);

  // Mutation invalidates, recomputation reflects the new edge.
  unsigned OldDist = G.distance(0, 8);
  G.addEdge(0, 8);
  EXPECT_FALSE(G.hasDistances());
  G.computeDistances();
  EXPECT_EQ(G.distance(0, 8), 1u);
  EXPECT_LT(G.distance(0, 8), OldDist);
}

TEST(CouplingGraphCacheTest, FlatEdgeErrorsRoundTrip) {
  CouplingGraph G = makeLine(4);
  EXPECT_FALSE(G.hasErrorModel());
  EXPECT_EQ(G.edgeError(0, 1), 0.0);
  G.setEdgeError(1, 2, 0.02);
  EXPECT_TRUE(G.hasErrorModel());
  EXPECT_DOUBLE_EQ(G.edgeError(1, 2), 0.02);
  EXPECT_DOUBLE_EQ(G.edgeError(2, 1), 0.02); // Symmetric lookup.
  EXPECT_EQ(G.edgeError(0, 1), 0.0);         // Uncalibrated edge.
  EXPECT_EQ(G.edgeError(0, 3), 0.0);         // Non-edge.
}
