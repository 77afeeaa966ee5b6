//===- tests/FingerprintTest.cpp - content-hash cache key tests -----------------===//
//
// Part of the Qlosure project. Distributed under the MIT license.
//
//===----------------------------------------------------------------------===//

#include "support/Fingerprint.h"

#include "baselines/RouterRegistry.h"
#include "circuit/Circuit.h"
#include "route/RoutingContext.h"
#include "route/Verify.h"
#include "service/ContextCache.h"
#include "topology/Backends.h"

#include <gtest/gtest.h>

using namespace qlosure;

namespace {

Circuit makeSample() {
  Circuit C(4, "sample");
  C.add1Q(GateKind::H, 0);
  C.addCx(0, 1);
  C.add1Q(GateKind::RZ, 2, 0.25);
  C.addCx(2, 3);
  C.addCx(1, 2);
  return C;
}

} // namespace

TEST(FingerprintTest, EqualCircuitsHashEqual) {
  Circuit A = makeSample();
  Circuit B = makeSample();
  B.setName("renamed"); // Cosmetic: must not change the key.
  EXPECT_EQ(fingerprint(A), fingerprint(B));
}

TEST(FingerprintTest, GatePerturbationsChangeTheHash) {
  Circuit Base = makeSample();
  uint64_t BaseFp = fingerprint(Base);

  Circuit KindChanged = makeSample();
  KindChanged.gatesMutable()[1].Kind = GateKind::CZ;
  EXPECT_NE(fingerprint(KindChanged), BaseFp);

  Circuit OperandChanged = makeSample();
  OperandChanged.gatesMutable()[1].Qubits[1] = 2;
  EXPECT_NE(fingerprint(OperandChanged), BaseFp);

  Circuit ParamChanged = makeSample();
  ParamChanged.gatesMutable()[2].Params[0] = 0.26;
  EXPECT_NE(fingerprint(ParamChanged), BaseFp);

  Circuit GateDropped = makeSample();
  GateDropped.gatesMutable().pop_back();
  EXPECT_NE(fingerprint(GateDropped), BaseFp);

  Circuit WiderRegister(5, "sample");
  for (const Gate &G : Base.gates())
    WiderRegister.addGate(G);
  EXPECT_NE(fingerprint(WiderRegister), BaseFp);
}

TEST(FingerprintTest, GateOrderMatters) {
  Circuit A(3);
  A.addCx(0, 1);
  A.addCx(1, 2);
  Circuit B(3);
  B.addCx(1, 2);
  B.addCx(0, 1);
  EXPECT_NE(fingerprint(A), fingerprint(B));
}

TEST(FingerprintTest, GraphHashCoversEdgesAndErrors) {
  CouplingGraph Base = makeAspen16();
  uint64_t BaseFp = fingerprint(Base);

  // Same topology built again hashes equal, whatever the derived state.
  CouplingGraph Again = makeAspen16();
  EXPECT_EQ(fingerprint(Again), BaseFp);

  // Distances are derived, not content.
  CouplingGraph WithDistances = makeAspen16();
  WithDistances.computeDistances();
  EXPECT_EQ(fingerprint(WithDistances), BaseFp);

  // An extra edge changes the hash.
  CouplingGraph ExtraEdge = makeAspen16();
  ExtraEdge.addEdge(0, 5);
  ASSERT_FALSE(Base.areAdjacent(0, 5));
  EXPECT_NE(fingerprint(ExtraEdge), BaseFp);

  // Installing a calibration changes the hash; a different calibration
  // changes it again.
  CouplingGraph Cal1 = makeAspen16();
  applySyntheticErrorModel(Cal1, 1);
  CouplingGraph Cal2 = makeAspen16();
  applySyntheticErrorModel(Cal2, 2);
  EXPECT_NE(fingerprint(Cal1), BaseFp);
  EXPECT_NE(fingerprint(Cal1), fingerprint(Cal2));

  // Perturbing one edge's error rate changes the hash.
  CouplingGraph Cal1Tweaked = makeAspen16();
  applySyntheticErrorModel(Cal1Tweaked, 1);
  auto Edge = Cal1Tweaked.edges().front();
  Cal1Tweaked.setEdgeError(Edge.first, Edge.second,
                           Cal1Tweaked.edgeError(Edge.first, Edge.second) *
                               2.0);
  EXPECT_NE(fingerprint(Cal1Tweaked), fingerprint(Cal1));
}

TEST(FingerprintTest, EdgeOrderInsensitive) {
  CouplingGraph A(3);
  A.addEdge(0, 1);
  A.addEdge(1, 2);
  CouplingGraph B(3);
  B.addEdge(1, 2);
  B.addEdge(0, 1);
  EXPECT_EQ(fingerprint(A), fingerprint(B));
}

TEST(FingerprintTest, ContextOptionsHashDistinguishesConfigs) {
  RoutingContextOptions Default;
  RoutingContextOptions ExactEngine;
  ExactEngine.Weights.Engine = WeightEngine::Exact;
  EXPECT_EQ(fingerprint(Default), fingerprint(RoutingContextOptions{}));
  EXPECT_NE(fingerprint(Default), fingerprint(ExactEngine));
}

// The satellite edge cases: the degenerate circuits a fingerprint can key
// must actually be routable (or cleanly rejected) by the mappers behind
// the cache — never a crash.
TEST(FingerprintTest, EmptyCircuitKeysAndRoutes) {
  Circuit Empty(0, "empty");
  uint64_t Fp = fingerprint(Empty);
  EXPECT_EQ(Fp, fingerprint(Circuit(0, "also-empty")));

  CouplingGraph Hw = makeAspen16();
  auto Bundle = service::CachedContext::build(
      std::make_shared<const Circuit>(Empty),
      std::make_shared<const CouplingGraph>(Hw), RoutingContextOptions{});
  ASSERT_TRUE(Bundle->context().valid());
  for (const std::string &Name : paperRouterNames()) {
    auto Mapper = makeRouterByName(Name);
    RoutingResult Result = Mapper->routeWithIdentity(Bundle->context());
    EXPECT_EQ(Result.Routed.size(), 0u) << Name;
    EXPECT_EQ(Result.NumSwaps, 0u) << Name;
  }
}

TEST(FingerprintTest, OneQubitCircuitKeysAndRoutes) {
  Circuit OneQubit(1, "one");
  OneQubit.add1Q(GateKind::H, 0);
  OneQubit.add1Q(GateKind::T, 0);
  uint64_t Fp = fingerprint(OneQubit);
  EXPECT_NE(Fp, fingerprint(Circuit(1, "empty-one")));

  CouplingGraph Hw = makeAspen16();
  auto Bundle = service::CachedContext::build(
      std::make_shared<const Circuit>(OneQubit),
      std::make_shared<const CouplingGraph>(Hw), RoutingContextOptions{});
  ASSERT_TRUE(Bundle->context().valid());
  for (const std::string &Name : paperRouterNames()) {
    auto Mapper = makeRouterByName(Name);
    RoutingResult Result = Mapper->routeWithIdentity(Bundle->context());
    EXPECT_EQ(Result.NumSwaps, 0u) << Name;
    VerifyResult Check = verifyRouting(OneQubit, Hw, Result);
    EXPECT_TRUE(Check.Ok) << Name << ": " << Check.Message;
  }
}
