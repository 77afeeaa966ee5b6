//===- tests/ShardRouterTest.cpp - Fleet router tests ---------------------------===//
//
// Part of the Qlosure project. Distributed under the MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Tests for the fleet tier: the consistent-hash ring (distribution,
/// stickiness, address stability), the request sharding key, the
/// stats-to-Prometheus walker and the fleet stats merge, and a
/// two-daemon integration suite — byte-identical routed responses
/// through the router, shard-sticky cache hits, backpressure-aware
/// queue_full retries, degraded-but-serving after a shard dies, and the
/// aggregated metrics/stats surfaces.
///
//===----------------------------------------------------------------------===//

#include "service/Client.h"
#include "service/Metrics.h"
#include "service/Protocol.h"
#include "service/Server.h"
#include "service/ShardRouter.h"
#include "service/SocketIO.h"
#include "service/Transport.h"

#include "qasm/Printer.h"
#include "support/Fingerprint.h"
#include "support/Json.h"
#include "support/StringUtils.h"
#include "topology/Backends.h"
#include "workloads/Queko.h"

#include <gtest/gtest.h>

#include <atomic>
#include <cctype>
#include <chrono>
#include <functional>
#include <map>
#include <memory>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include <unistd.h>

using namespace qlosure;
using namespace qlosure::service;

namespace {

std::string tempSocketPath() {
  static std::atomic<unsigned> Counter{0};
  return formatString("/tmp/qlr-%d-%u.sock", static_cast<int>(getpid()),
                      Counter.fetch_add(1));
}

std::string sampleQasm(unsigned Variant = 0) {
  std::string Qasm = "OPENQASM 2.0;\n"
                     "include \"qelib1.inc\";\n"
                     "qreg q[5];\n"
                     "cx q[0],q[1];\n"
                     "cx q[1],q[3];\n"
                     "cx q[0],q[2];\n"
                     "cx q[4],q[1];\n"
                     "cx q[2],q[3];\n";
  // Distinct variants shard independently: append extra gates.
  for (unsigned I = 0; I < Variant; ++I)
    Qasm += formatString("cx q[%u],q[%u];\n", I % 5, (I + 1) % 5);
  return Qasm;
}

json::Value routeRequest(const std::string &Qasm,
                         const std::string &Mapper = "qlosure",
                         const std::string &Backend = "aspen16") {
  json::Value Req = json::Value::object();
  Req.set("op", "route");
  Req.set("qasm", Qasm);
  Req.set("mapper", Mapper);
  Req.set("backend", Backend);
  return Req;
}

json::Value parseResponse(const std::string &Line) {
  json::ParseResult Parsed = json::parse(Line);
  EXPECT_TRUE(Parsed.Ok) << Parsed.Error << " in: " << Line;
  return Parsed.V;
}

bool responseOk(const json::Value &Response) {
  const json::Value *Ok = Response.get("ok");
  return Ok && Ok->asBool();
}

std::string errorCode(const json::Value &Response) {
  const json::Value *Error = Response.get("error");
  if (!Error || !Error->isObject())
    return "";
  const json::Value *Code = Error->get("code");
  return Code ? Code->asString() : "";
}

//===----------------------------------------------------------------------===//
// Hash ring
//===----------------------------------------------------------------------===//

TEST(HashRingTest, DistributesAndStaysSticky) {
  std::vector<std::string> Addresses = {"unix:/tmp/a.sock", "unix:/tmp/b.sock",
                                        "unix:/tmp/c.sock", "unix:/tmp/d.sock"};
  HashRing Ring;
  Ring.build(Addresses, 64);
  EXPECT_EQ(Ring.numShards(), 4u);

  std::vector<char> Alive(4, 1);
  std::map<int, unsigned> Load;
  for (uint64_t Key = 0; Key < 4000; ++Key) {
    uint64_t Hashed = fingerprintString(formatString("key-%llu", (unsigned long long)Key));
    int Shard = Ring.pick(Hashed, Alive);
    ASSERT_GE(Shard, 0);
    ASSERT_LT(Shard, 4);
    EXPECT_EQ(Shard, Ring.pick(Hashed, Alive)) << "pick must be stable";
    ++Load[Shard];
  }
  // Virtual nodes smooth the split: every shard carries real load (the
  // exact split depends on the hash, but no shard may starve or hog).
  for (int Shard = 0; Shard < 4; ++Shard) {
    EXPECT_GT(Load[Shard], 4000u / 16) << "shard " << Shard << " starved";
    EXPECT_LT(Load[Shard], 4000u / 2) << "shard " << Shard << " hogs";
  }
}

TEST(HashRingTest, DeadShardMovesOnlyItsOwnKeys) {
  std::vector<std::string> Addresses = {"unix:/tmp/a.sock", "unix:/tmp/b.sock",
                                        "unix:/tmp/c.sock", "unix:/tmp/d.sock"};
  HashRing Ring;
  Ring.build(Addresses, 64);

  std::vector<char> AllUp(4, 1);
  std::vector<char> TwoDown(4, 1);
  TwoDown[2] = 0;
  for (uint64_t Key = 0; Key < 2000; ++Key) {
    uint64_t Hashed = fingerprintString(formatString("key-%llu", (unsigned long long)Key));
    int Before = Ring.pick(Hashed, AllUp);
    int After = Ring.pick(Hashed, TwoDown);
    ASSERT_NE(After, 2) << "dead shard must never be picked";
    if (Before != 2) {
      EXPECT_EQ(After, Before)
          << "keys of live shards must not move when another shard dies";
    }
  }

  std::vector<char> NoneUp(4, 0);
  EXPECT_EQ(Ring.pick(123, NoneUp), -1);
}

TEST(HashRingTest, MappingSurvivesAddressListReordering) {
  // Ring points hash the shard *address*, so reordering the --shard list
  // (a restart with shuffled flags) moves no keys.
  std::vector<std::string> Order1 = {"unix:/tmp/a.sock", "unix:/tmp/b.sock",
                                     "unix:/tmp/c.sock"};
  std::vector<std::string> Order2 = {"unix:/tmp/c.sock", "unix:/tmp/a.sock",
                                     "unix:/tmp/b.sock"};
  HashRing Ring1, Ring2;
  Ring1.build(Order1, 64);
  Ring2.build(Order2, 64);
  std::vector<char> Alive(3, 1);
  for (uint64_t Key = 0; Key < 1000; ++Key) {
    uint64_t Hashed = fingerprintString(formatString("key-%llu", (unsigned long long)Key));
    int Pick1 = Ring1.pick(Hashed, Alive);
    int Pick2 = Ring2.pick(Hashed, Alive);
    ASSERT_GE(Pick1, 0);
    ASSERT_GE(Pick2, 0);
    EXPECT_EQ(Order1[static_cast<size_t>(Pick1)],
              Order2[static_cast<size_t>(Pick2)]);
  }
}

TEST(ShardRouterTest, ShardKeyTracksCircuitAndBackend) {
  Request Req;
  Req.TheOp = Op::Route;
  Req.Items.resize(1);
  Req.Items[0].Qasm = sampleQasm();
  Req.Route.Backend = "aspen16";
  uint64_t Base = shardKeyForRequest(Req);
  EXPECT_EQ(Base, shardKeyForRequest(Req)) << "key must be deterministic";

  Request OtherCircuit = Req;
  OtherCircuit.Items[0].Qasm = sampleQasm(3);
  EXPECT_NE(shardKeyForRequest(OtherCircuit), Base);

  Request OtherBackend = Req;
  OtherBackend.Route.Backend = "sherbrooke";
  EXPECT_NE(shardKeyForRequest(OtherBackend), Base);

  // The mapper is deliberately *not* part of the key: the same circuit
  // routed by two mappers shares its shard (and its context cache).
  Request OtherMapper = Req;
  OtherMapper.Route.Mapper = "sabre";
  EXPECT_EQ(shardKeyForRequest(OtherMapper), Base);

  // Batch requests fold every item's circuit into the key.
  Request Batch;
  Batch.TheOp = Op::Batch;
  Batch.Route.Backend = "aspen16";
  Batch.Items.resize(2);
  Batch.Items[0].Qasm = sampleQasm(1);
  Batch.Items[1].Qasm = sampleQasm(2);
  uint64_t BatchKey = shardKeyForRequest(Batch);
  Request Reordered = Batch;
  std::swap(Reordered.Items[0], Reordered.Items[1]);
  EXPECT_NE(shardKeyForRequest(Reordered), BatchKey)
      << "item order participates in the key (any stable rule works, "
         "but it must be deterministic)";

  // A route is a one-item batch: both land on the same shard, and the
  // route's key is the one it always had (backend, then its circuit).
  EXPECT_EQ(Base, hashCombine(fingerprintString("aspen16"),
                              fingerprintString(sampleQasm())));
  Request OneItem = Req;
  OneItem.TheOp = Op::Batch;
  EXPECT_EQ(shardKeyForRequest(OneItem), Base);
  // The parsed wire forms agree too.
  json::Value BatchObj = json::Value::object();
  BatchObj.set("op", "batch");
  BatchObj.set("id", "b");
  BatchObj.set("backend", "aspen16");
  json::Value Items = json::Value::array();
  json::Value Item = json::Value::object();
  Item.set("qasm", sampleQasm());
  Items.push(std::move(Item));
  BatchObj.set("items", std::move(Items));
  RequestParse RouteLine = parseRequest(routeRequest(sampleQasm()).dump());
  RequestParse BatchLine = parseRequest(BatchObj.dump());
  ASSERT_TRUE(RouteLine.Ok) << RouteLine.ErrorMessage;
  ASSERT_TRUE(BatchLine.Ok) << BatchLine.ErrorMessage;
  EXPECT_EQ(shardKeyForRequest(RouteLine.Req), Base);
  EXPECT_EQ(shardKeyForRequest(BatchLine.Req), Base);
}

//===----------------------------------------------------------------------===//
// Metrics walker and stats merge
//===----------------------------------------------------------------------===//

TEST(MetricsTest, WalkerEmitsEveryNumericLeaf) {
  json::Value Doc = json::Value::object();
  json::Value Inner = json::Value::object();
  Inner.set("requests", 41);
  Inner.set("verified", true);
  Inner.set("endpoint", "unix:/tmp/x.sock"); // string: skipped
  Doc.set("server", Inner);
  Doc.set("uptime_seconds", 1.5);

  std::string Text;
  appendPrometheusText(Text, Doc, "qlosure");
  EXPECT_NE(Text.find("qlosure_server_requests 41"), std::string::npos)
      << Text;
  EXPECT_NE(Text.find("qlosure_server_verified 1"), std::string::npos)
      << Text;
  EXPECT_NE(Text.find("qlosure_uptime_seconds 1.5"), std::string::npos)
      << Text;
  EXPECT_EQ(Text.find("endpoint"), std::string::npos)
      << "strings are not samples: " << Text;
  EXPECT_NE(Text.find("# TYPE qlosure_server_requests gauge"),
            std::string::npos)
      << Text;

  // Labels are emitted verbatim inside {...}.
  std::string Labeled;
  appendPrometheusText(Labeled, json::Value(true), "qlosure_shard_up",
                       "shard=\"0\",address=\"unix:/tmp/a.sock\"");
  EXPECT_NE(
      Labeled.find(
          "qlosure_shard_up{shard=\"0\",address=\"unix:/tmp/a.sock\"} 1"),
      std::string::npos)
      << Labeled;
}

TEST(MetricsTest, MergeStatsDocsSumsNumericLeaves) {
  json::Value A = json::Value::object();
  {
    json::Value Server = json::Value::object();
    Server.set("requests", 10);
    Server.set("protocol", 2);
    Server.set("endpoint", "unix:/tmp/a.sock");
    A.set("server", Server);
    A.set("only_in_a", 7);
  }
  json::Value B = json::Value::object();
  {
    json::Value Server = json::Value::object();
    Server.set("requests", 32);
    Server.set("protocol", 2);
    Server.set("endpoint", "unix:/tmp/b.sock");
    B.set("server", Server);
    B.set("only_in_b", true);
  }

  json::Value Merged = mergeStatsDocs({A, B});
  EXPECT_EQ(Merged.get("server")->get("requests")->asNumber(), 42);
  // Strings identify rather than count: first document wins.
  EXPECT_EQ(Merged.get("server")->get("endpoint")->asString(),
            "unix:/tmp/a.sock");
  // Members present in only some documents survive.
  EXPECT_EQ(Merged.get("only_in_a")->asNumber(), 7);
  EXPECT_EQ(Merged.get("only_in_b")->asNumber(), 1) << "bools sum as 0/1";
}

//===----------------------------------------------------------------------===//
// Two-daemon fleet integration
//===----------------------------------------------------------------------===//

/// Boots \p N daemons on fresh unix sockets and a RouterServer sharding
/// across them; tears everything down on scope exit.
struct FleetFixture {
  std::vector<std::unique_ptr<Server>> Shards;
  std::vector<std::thread> ShardWaiters;
  std::unique_ptr<RouterServer> Router;
  std::thread RouterWaiter;
  RouterOptions RouterOpts;

  explicit FleetFixture(size_t N, ServerOptions ShardTemplate = {},
                        RouterOptions RouterTemplate = {}) {
    for (size_t S = 0; S < N; ++S) {
      ServerOptions Opts = ShardTemplate;
      Opts.Listen = tempSocketPath();
      if (Opts.Workers == 0)
        Opts.Workers = 2;
      Opts.DefaultTimeoutSeconds = 30;
      Shards.push_back(std::make_unique<Server>(Opts));
      Status Started = Shards.back()->start();
      EXPECT_TRUE(Started.ok()) << Started.message();
      ShardWaiters.emplace_back(
          [Daemon = Shards.back().get()] { Daemon->wait(); });
      RouterTemplate.Shards.push_back(Shards.back()->boundAddress());
    }
    RouterTemplate.Listen = tempSocketPath();
    if (RouterTemplate.HealthIntervalMs == 500)
      RouterTemplate.HealthIntervalMs = 100; // Fast health for tests.
    RouterOpts = RouterTemplate;
    Router = std::make_unique<RouterServer>(RouterOpts);
    Status Started = Router->start();
    EXPECT_TRUE(Started.ok()) << Started.message();
    RouterWaiter = std::thread([this] { Router->wait(); });
  }

  ~FleetFixture() {
    Router->requestStop();
    if (RouterWaiter.joinable())
      RouterWaiter.join();
    for (size_t S = 0; S < Shards.size(); ++S) {
      Shards[S]->requestStop();
      if (ShardWaiters[S].joinable())
        ShardWaiters[S].join();
    }
  }

  Client connect() {
    Client Conn;
    Status S = Conn.connect(Router->boundAddress(), 5.0);
    EXPECT_TRUE(S.ok()) << S.message();
    return Conn;
  }

  /// The shard the router's ring assigns to \p Req (same deterministic
  /// mapping: same addresses, same virtual-node count).
  size_t owningShard(const Request &Req) const {
    HashRing Ring;
    Ring.build(RouterOpts.Shards,
               RouterOpts.VirtualNodes ? RouterOpts.VirtualNodes : 1);
    std::vector<char> Alive(RouterOpts.Shards.size(), 1);
    int Shard = Ring.pick(shardKeyForRequest(Req), Alive);
    EXPECT_GE(Shard, 0);
    return static_cast<size_t>(Shard);
  }
};

TEST(ShardRouterTest, RoutesByteIdenticallyAndSticksToOneShard) {
  FleetFixture Fleet(2);
  Client Conn = Fleet.connect();

  std::string Response;
  ASSERT_TRUE(Conn.request("{\"op\":\"ping\"}", Response).ok());
  EXPECT_TRUE(responseOk(parseResponse(Response))) << Response;

  // Route several distinct circuits through the router; each must be
  // byte-identical to what its owning shard returns directly.
  for (unsigned Variant = 0; Variant < 4; ++Variant) {
    std::string Qasm = sampleQasm(Variant);
    std::string ViaRouter;
    ASSERT_TRUE(Conn.request(routeRequest(Qasm).dump(), ViaRouter).ok());
    json::Value RouterDoc = parseResponse(ViaRouter);
    ASSERT_TRUE(responseOk(RouterDoc)) << ViaRouter;

    Request Req;
    Req.TheOp = Op::Route;
    Req.Items.resize(1);
    Req.Items[0].Qasm = Qasm;
    Req.Route.Backend = "aspen16";
    size_t Owner = Fleet.owningShard(Req);
    Client Direct;
    ASSERT_TRUE(
        Direct.connect(Fleet.Shards[Owner]->boundAddress(), 5.0).ok());
    std::string ViaShard;
    ASSERT_TRUE(Direct.request(routeRequest(Qasm).dump(), ViaShard).ok());
    json::Value ShardDoc = parseResponse(ViaShard);
    ASSERT_TRUE(responseOk(ShardDoc)) << ViaShard;

    EXPECT_EQ(RouterDoc.get("qasm")->asString(),
              ShardDoc.get("qasm")->asString())
        << "routed program must be byte-identical through the router";
    // The direct repeat hit the shard's result cache — proof the
    // router's request landed on this very shard and warmed it.
    EXPECT_TRUE(ShardDoc.get("result_cache_hit")->asBool())
        << "router must have routed variant " << Variant
        << " to its ring-assigned shard";
  }

  // Stickiness as the client sees it: repeating a circuit through the
  // router hits the owning shard's cache.
  std::string First, Second;
  ASSERT_TRUE(
      Conn.request(routeRequest(sampleQasm(9)).dump(), First).ok());
  ASSERT_TRUE(
      Conn.request(routeRequest(sampleQasm(9)).dump(), Second).ok());
  ASSERT_TRUE(responseOk(parseResponse(First))) << First;
  json::Value SecondDoc = parseResponse(Second);
  ASSERT_TRUE(responseOk(SecondDoc)) << Second;
  EXPECT_TRUE(SecondDoc.get("result_cache_hit")->asBool());
  EXPECT_EQ(parseResponse(First).get("qasm")->asString(),
            SecondDoc.get("qasm")->asString());
}

TEST(ShardRouterTest, StatsAggregateAndMetricsCoverEveryCounter) {
  FleetFixture Fleet(2);
  Client Conn = Fleet.connect();

  // Seed some traffic so counters are non-trivial, spread over shards.
  std::string Response;
  for (unsigned Variant = 0; Variant < 4; ++Variant)
    ASSERT_TRUE(
        Conn.request(routeRequest(sampleQasm(Variant)).dump(), Response)
            .ok());

  ASSERT_TRUE(Conn.request("{\"op\":\"stats\"}", Response).ok());
  json::Value Doc = parseResponse(Response);
  ASSERT_TRUE(responseOk(Doc)) << Response;

  const json::Value *RouterSec = Doc.get("router");
  ASSERT_NE(RouterSec, nullptr) << Response;
  EXPECT_EQ(RouterSec->get("shards_total")->asNumber(), 2);
  EXPECT_EQ(RouterSec->get("shards_up")->asNumber(), 2);
  EXPECT_GE(RouterSec->get("forwarded")->asNumber(), 4);

  // The aggregate sums both shards' stats documents: every route the
  // router forwarded is accounted for across the fleet.
  const json::Value *Aggregate = Doc.get("aggregate");
  ASSERT_NE(Aggregate, nullptr) << Response;
  EXPECT_EQ(Aggregate->get("server")->get("route_requests")->asNumber(), 4);

  const json::Value *PerShard = Doc.get("shards");
  ASSERT_NE(PerShard, nullptr);
  ASSERT_EQ(PerShard->items().size(), 2u);

  // /metrics (the protocol op variant) renders the same aggregate as
  // Prometheus text. Acceptance by construction: every numeric counter
  // in the aggregate stats document must appear as a metric.
  ASSERT_TRUE(Conn.request("{\"op\":\"metrics\"}", Response).ok());
  json::Value MetricsDoc = parseResponse(Response);
  ASSERT_TRUE(responseOk(MetricsDoc)) << Response;
  const json::Value *Body = MetricsDoc.get("body");
  ASSERT_NE(Body, nullptr) << Response;
  const std::string &Text = Body->asString();
  EXPECT_NE(Text.find("# TYPE"), std::string::npos);
  EXPECT_NE(Text.find("qlosure_shard_up{"), std::string::npos) << Text;
  EXPECT_NE(Text.find("qlosure_router_forwarded"), std::string::npos)
      << Text;

  std::function<void(const json::Value &, const std::string &)> CheckLeaves =
      [&](const json::Value &Node, const std::string &Path) {
        if (isHistogramJson(Node)) {
          // Histogram leaves render as one typed family, not as walked
          // members: _bucket / _sum / _count carry the data.
          std::string Name = "qlosure_aggregate_" + Path;
          EXPECT_NE(Text.find(Name + "_bucket{"), std::string::npos)
              << "histogram missing from /metrics: " << Name;
          EXPECT_NE(Text.find(Name + "_sum"), std::string::npos) << Name;
          EXPECT_NE(Text.find(Name + "_count"), std::string::npos) << Name;
          return;
        }
        if (Node.isObject()) {
          for (const auto &Member : Node.members())
            CheckLeaves(Member.second,
                        Path.empty() ? Member.first
                                     : Path + "_" + Member.first);
          return;
        }
        if (!Node.isNumber() && !Node.isBool())
          return;
        std::string Name = "qlosure_aggregate_" + Path;
        for (char &C : Name)
          if (!std::isalnum(static_cast<unsigned char>(C)) && C != '_')
            C = '_';
        EXPECT_NE(Text.find(Name), std::string::npos)
            << "aggregate counter missing from /metrics: " << Name;
      };
  CheckLeaves(*Aggregate, "");

  // The router's own forward-latency histogram is always on.
  const json::Value *Forward =
      RouterSec->get("latency") ? RouterSec->get("latency")->get("forward")
                                : nullptr;
  ASSERT_NE(Forward, nullptr) << Response;
  ASSERT_TRUE(isHistogramJson(*Forward));
}

TEST(ShardRouterTest, TracedRouteMergesRouterAndDaemonSpans) {
  FleetFixture Fleet(2);
  Client Conn = Fleet.connect();

  json::Value Req = routeRequest(sampleQasm());
  Req.set("id", "r1");
  Req.set("trace", true);
  const auto Before = std::chrono::steady_clock::now();
  std::string Response;
  ASSERT_TRUE(Conn.request(Req.dump(), Response).ok());
  const double WallUs = std::chrono::duration<double, std::micro>(
                            std::chrono::steady_clock::now() - Before)
                            .count();
  json::Value Doc = parseResponse(Response);
  ASSERT_TRUE(responseOk(Doc)) << Response;

  const json::Value *TraceObj = Doc.get("trace");
  ASSERT_NE(TraceObj, nullptr) << Response;
  // No trace_id was supplied: the router minted one and it survived the
  // round trip through the shard.
  const std::string TraceId = TraceObj->get("trace_id")->asString();
  EXPECT_EQ(TraceId.size(), 16u) << Response;

  const json::Value *Spans = TraceObj->get("spans");
  ASSERT_NE(Spans, nullptr);
  std::set<std::string> DepthZero;
  double DepthZeroSumUs = 0;
  double UpstreamStartUs = -1, UpstreamDurUs = -1;
  bool SawNestedDaemonSpan = false;
  for (const json::Value &S : Spans->items()) {
    const std::string Name = S.get("name")->asString();
    const double Depth = S.get("depth")->asNumber();
    if (Depth == 0) {
      DepthZero.insert(Name);
      DepthZeroSumUs += S.get("dur_us")->asNumber();
    }
    if (Name == "upstream_wait") {
      UpstreamStartUs = S.get("start_us")->asNumber();
      UpstreamDurUs = S.get("dur_us")->asNumber();
    }
    // The daemon's phase spans nest one level below the router's.
    if (Name == "routing_loop" || Name == "context_build") {
      EXPECT_GE(Depth, 1) << Response;
      SawNestedDaemonSpan = true;
      EXPECT_GE(S.get("start_us")->asNumber(), UpstreamStartUs) << Response;
    }
  }
  EXPECT_TRUE(DepthZero.count("ring_lookup")) << Response;
  ASSERT_TRUE(DepthZero.count("upstream_wait")) << Response;
  EXPECT_TRUE(SawNestedDaemonSpan) << Response;
  EXPECT_GT(UpstreamDurUs, 0) << Response;
  // Router depth-0 spans are sequential: they cannot exceed the
  // client-observed wall clock.
  EXPECT_LE(DepthZeroSumUs, WallUs) << Response;

  // A client-supplied trace_id passes through both tiers untouched.
  json::Value Custom = routeRequest(sampleQasm(1));
  Custom.set("id", "r2");
  Custom.set("trace", true);
  Custom.set("trace_id", "client-chose-this");
  ASSERT_TRUE(Conn.request(Custom.dump(), Response).ok());
  json::Value Doc2 = parseResponse(Response);
  ASSERT_TRUE(responseOk(Doc2)) << Response;
  EXPECT_EQ(Doc2.get("trace")->get("trace_id")->asString(),
            "client-chose-this");
}

TEST(ShardRouterTest, QueueFullRetriesBehindTheScenes) {
  // One shard, one worker, a one-slot queue: while a deep route holds
  // the worker and a second request holds the queue slot, every further
  // request is rejected `queue_full` upstream — and the router must park
  // and retry it instead of surfacing the rejection.
  ServerOptions ShardTemplate;
  ShardTemplate.Workers = 1;
  ShardTemplate.QueueCapacity = 1;
  RouterOptions RouterTemplate;
  RouterTemplate.MaxRetries = 60; // Ample backoff budget for slow CI.
  FleetFixture Fleet(1, ShardTemplate, RouterTemplate);
  Client Conn = Fleet.connect();

  // A deliberately slow route (deep QUEKO under qmap) with pipelined
  // cheap routes behind it. Every request carries an id so the retry
  // path (id-tracked parking) is exercised.
  CouplingGraph Gen = makeKings9x9();
  QuekoSpec Spec;
  Spec.Depth = 200;
  Spec.Seed = 3;
  json::Value Slow =
      routeRequest(qasm::printQasm(generateQueko(Gen, Spec).Circ), "qmap",
                   "sherbrooke2x");
  Slow.set("id", "slow");
  Slow.set("include_qasm", false);
  ASSERT_TRUE(Conn.sendLine(Slow.dump()).ok());

  const unsigned Pipelined = 4;
  for (unsigned I = 0; I < Pipelined; ++I) {
    json::Value Quick = routeRequest(sampleQasm(I));
    Quick.set("id", formatString("q%u", I));
    ASSERT_TRUE(Conn.sendLine(Quick.dump()).ok());
  }

  // Every request completes successfully despite the rejections.
  ASSERT_TRUE(Conn.setIoTimeout(120.0).ok());
  std::string Response;
  for (unsigned I = 0; I < Pipelined; ++I) {
    ASSERT_TRUE(
        Conn.recvResponseFor(formatString("q%u", I), Response).ok());
    EXPECT_TRUE(responseOk(parseResponse(Response)))
        << "q" << I << ": " << Response;
  }
  ASSERT_TRUE(Conn.recvResponseFor("slow", Response).ok());
  EXPECT_TRUE(responseOk(parseResponse(Response))) << Response;

  // The router's own counters prove the backpressure path ran.
  ASSERT_TRUE(Conn.request("{\"op\":\"stats\"}", Response).ok());
  json::Value Doc = parseResponse(Response);
  ASSERT_TRUE(responseOk(Doc)) << Response;
  EXPECT_GE(Doc.get("router")->get("retries")->asNumber(), 1)
      << "queue_full must have been retried, not surfaced: " << Response;
}

TEST(ShardRouterTest, ServesDegradedAfterShardDeath) {
  FleetFixture Fleet(2);
  Client Conn = Fleet.connect();

  // Warm both shards, then kill shard 1.
  std::string Response;
  for (unsigned Variant = 0; Variant < 4; ++Variant)
    ASSERT_TRUE(
        Conn.request(routeRequest(sampleQasm(Variant)).dump(), Response)
            .ok());
  Fleet.Shards[1]->stop();

  // The health monitor notices within a few intervals.
  for (int Spin = 0; Spin < 100; ++Spin) {
    std::vector<char> Health = Fleet.Router->shardHealth();
    if (!Health[1])
      break;
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
  }
  EXPECT_FALSE(Fleet.Router->shardHealth()[1])
      << "health monitor must mark the dead shard down";

  // Every circuit — including those owned by the dead shard — still
  // routes: dead-shard keys spill to the ring successor.
  for (unsigned Variant = 0; Variant < 4; ++Variant) {
    ASSERT_TRUE(
        Conn.request(routeRequest(sampleQasm(Variant)).dump(), Response)
            .ok());
    EXPECT_TRUE(responseOk(parseResponse(Response)))
        << "variant " << Variant << " must survive shard death: "
        << Response;
  }

  // Stats degrade gracefully: one shard up, aggregate still served.
  ASSERT_TRUE(Conn.request("{\"op\":\"stats\"}", Response).ok());
  json::Value Doc = parseResponse(Response);
  ASSERT_TRUE(responseOk(Doc)) << Response;
  EXPECT_EQ(Doc.get("router")->get("shards_up")->asNumber(), 1);
  ASSERT_EQ(Doc.get("shards")->items().size(), 2u);
  EXPECT_FALSE(Doc.get("shards")->items()[1].get("up")->asBool());

  // With *no* shard left, requests answer `unavailable` instead of
  // hanging.
  Fleet.Shards[0]->stop();
  for (int Spin = 0; Spin < 100 && Fleet.Router->shardHealth()[0]; ++Spin)
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
  ASSERT_TRUE(
      Conn.request(routeRequest(sampleQasm(50)).dump(), Response).ok());
  json::Value Fail = parseResponse(Response);
  EXPECT_FALSE(responseOk(Fail));
  EXPECT_EQ(errorCode(Fail), errc::Unavailable) << Response;
}

/// A stand-in shard that answers health pings but drops its connection
/// the moment a route line arrives, as a daemon crashing on a poison
/// request would. Serves one connection at a time; counts route lines.
struct CrashingShard {
  Listener Sock;
  std::atomic<unsigned> RouteLines{0};
  std::thread Acceptor;

  CrashingShard() {
    Endpoint Ep;
    EXPECT_TRUE(parseEndpoint(tempSocketPath(), Ep).ok());
    EXPECT_TRUE(Sock.listen(Ep).ok());
    Acceptor = std::thread([this] {
      for (int Fd; (Fd = Sock.acceptConnection()) >= 0; ::close(Fd))
        serve(Fd);
    });
  }

  ~CrashingShard() {
    Sock.wake();
    Acceptor.join();
    Sock.close();
  }

  void serve(int Fd) {
    std::string Pending, Line;
    char Buf[4096];
    for (ssize_t N; (N = recvSome(Fd, Buf, sizeof(Buf))) > 0;) {
      Pending.append(Buf, static_cast<size_t>(N));
      while (popLine(Pending, Line)) {
        json::ParseResult Req = json::parse(Line);
        if (Req.Ok && Req.V.get("op")->asString() == "route") {
          ++RouteLines;
          return; // The caller closes the connection.
        }
        sendAll(Fd, formatPingResponse("") + "\n");
      }
    }
  }
};

TEST(ShardRouterTest, OrphanIsRedispatchedOnceThenAnswersUnavailable) {
  std::vector<std::unique_ptr<CrashingShard>> Shards;
  RouterOptions Opts;
  for (int S = 0; S < 3; ++S) {
    Shards.push_back(std::make_unique<CrashingShard>());
    Opts.Shards.push_back(Shards.back()->Sock.endpoint().str());
  }
  Opts.Listen = tempSocketPath();
  Opts.HealthIntervalMs = 100;
  RouterServer Router(Opts);
  ASSERT_TRUE(Router.start().ok());
  std::thread Waiter([&] { Router.wait(); });

  // In a lambda so a failed ASSERT still reaches the join below.
  [&] {
    Client Conn;
    ASSERT_TRUE(Conn.connect(Router.boundAddress(), 5.0).ok());
    ASSERT_TRUE(Conn.setIoTimeout(30.0).ok());
    json::Value Poison = routeRequest(sampleQasm());
    Poison.set("id", "poison");
    std::string Response;
    ASSERT_TRUE(Conn.request(Poison.dump(), Response).ok());
    json::Value Doc = parseResponse(Response);
    EXPECT_FALSE(responseOk(Doc)) << Response;
    EXPECT_EQ(errorCode(Doc), errc::Unavailable) << Response;
    EXPECT_EQ(Doc.get("id")->asString(), "poison");

    // The first shard and the one re-dispatch each saw the request; the
    // third shard never does.
    std::this_thread::sleep_for(std::chrono::milliseconds(300));
    unsigned Sent = 0;
    for (const auto &Shard : Shards)
      Sent += Shard->RouteLines.load();
    EXPECT_EQ(Sent, 2u);
  }();
  Router.requestStop();
  Waiter.join();
}

TEST(ShardRouterTest, CancelOfUnknownIdAcksLocally) {
  FleetFixture Fleet(1);
  Client Conn = Fleet.connect();

  std::string Response;
  ASSERT_TRUE(
      Conn.request("{\"op\":\"cancel\",\"id\":\"ghost\"}", Response).ok());
  json::Value Doc = parseResponse(Response);
  ASSERT_TRUE(responseOk(Doc)) << Response;
  EXPECT_FALSE(Doc.get("cancelled")->asBool()) << Response;
  EXPECT_EQ(Doc.get("id")->asString(), "ghost");
}

} // namespace
