//===- bench/bench_service_throughput.cpp - qlosured loadgen -------------------===//
//
// Part of the Qlosure project. Distributed under the MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Load generator and correctness harness for the qlosured service (PR 4):
/// boots an in-process Server on a temp Unix socket, precomputes the
/// expected routed program of every (circuit, mapper) pair with direct
/// library calls, then drives N concurrent client connections through two
/// passes over the QUEKO request mix —
///
///   cold: caches empty, every request pays context build + routing;
///   warm: the identical requests again, served from the service caches.
///
/// Every response (cold and warm) must carry routed QASM byte-identical
/// to the direct library call, every warm response must report a cache
/// hit, and warm throughput must be >= 2x cold (the PR 4 acceptance bar).
/// QMAP is excluded from the mix: its wall-clock search budget makes its
/// results load-dependent, which would turn byte-identity into a coin
/// flip (see BatchRunner.h); the four deterministic mappers cover the
/// protocol and cache paths identically.
///
/// Results are written to BENCH_service.json. Schema (one object):
///   {
///     "bench": "service_throughput",
///     "workload": "queko-54qbt",        // generation set
///     "backend": "sherbrooke",
///     "clients": <int>,                  // concurrent connections
///     "requests_per_pass": <int>,
///     "all_identical": <bool>,           // responses == direct calls
///     "all_warm_hits": <bool>,           // warm pass all cache_hit
///     "cold": { "seconds": <float>, "requests_per_sec": <float>,
///               "p50_ms": <float>, "p95_ms": <float> },
///     "warm": { ... same fields ... },
///     "warm_over_cold": <float>,         // rps ratio, must be >= 2
///     "tracing": {                       // per-request tracing cost
///       "reps": <int>,                   // best-of-N warm passes per side
///       "mix_repeats": <int>,            // mix copies per pass (>= 50 ms)
///       "untraced_rps": <float>,
///       "traced_rps": <float>,
///       "overhead_pct": <float>,         // (untraced-traced)/untraced
///       "asserted_bound_pct": 10.0,      // noise guard; design target <1%
///       "all_identical": <bool>,         // traced bytes == direct calls
///       "trace_section_ok": <bool>       // trace present iff requested
///     },
///     "dedupe": {                        // in-flight coalescing
///       "clients": <int>,                // concurrent identical requests
///       "submitted": <int>,              // scheduler jobs — must be 1
///       "coalesced": <int>,              // followers attached in flight
///       "all_identical": <bool>,         // every payload byte-identical
///       "seconds": <float>
///     },
///     "batch": {                         // one batch op vs N route ops
///       "items": <int>,                  // circuits per side (disjoint,
///                                        //   equal-composition sets)
///       "mapper": <string>,
///       "individual_seconds": <float>,   // N sequential route requests
///       "individual_p50_ms": <float>,
///       "batch_seconds": <float>,        // send -> summary wall clock
///       "batch_per_item_ms": <float>,    // batch_seconds / items
///       "batch_over_individual": <float> // individual / batch wall ratio
///     }
///   }
///
/// The batch section compares one `batch` session against the same
/// number of sequential `route` requests on a fresh connection, using
/// two disjoint circuit sets of identical composition (so neither side
/// is served from the result cache the other warmed). The batch side
/// saves N-1 request round trips and enqueues its items contiguously;
/// its per-item cost must not exceed the individual p50.
///
//===----------------------------------------------------------------------===//

#include "bench/BenchCommon.h"
#include "baselines/RouterRegistry.h"
#include "core/Qlosure.h"
#include "qasm/Printer.h"
#include "route/Verify.h"
#include "service/Client.h"
#include "service/Server.h"
#include "service/ShardRouter.h"
#include "support/Json.h"
#include "support/StringUtils.h"
#include "support/Timer.h"
#include "topology/Backends.h"
#include "workloads/Queko.h"

#include <algorithm>
#include <atomic>
#include <cstdio>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <unistd.h>
#include <vector>

using namespace qlosure;
using namespace qlosure::bench;
using namespace qlosure::service;

namespace {

struct RequestSpec {
  std::string Line;     ///< The protocol request.
  std::string Expected; ///< Routed QASM from the direct library call.
  std::string Name;     ///< circuit/mapper label for diagnostics.
};

struct PassResult {
  double Seconds = 0;
  std::vector<double> LatenciesMs;
  bool AllIdentical = true;
  bool AllCacheHits = true;
  uint64_t Errors = 0;

  double p(double Quantile) const {
    if (LatenciesMs.empty())
      return 0;
    std::vector<double> Sorted = LatenciesMs;
    std::sort(Sorted.begin(), Sorted.end());
    size_t Index = std::min(Sorted.size() - 1,
                            static_cast<size_t>(Quantile * Sorted.size()));
    return Sorted[Index];
  }
};

/// Drives all requests through \p NumClients concurrent connections (one
/// persistent connection per client, work-stealing over the request list).
PassResult runPass(const std::string &Address,
                   const std::vector<RequestSpec> &Requests,
                   unsigned NumClients, bool ExpectCacheHits) {
  PassResult Result;
  Result.LatenciesMs.resize(Requests.size(), 0);
  std::atomic<size_t> Next{0};
  std::atomic<uint64_t> Errors{0};
  std::mutex FlagMu;

  Timer Wall;
  auto ClientLoop = [&] {
    Client Conn;
    if (!Conn.connect(Address).ok()) {
      ++Errors;
      return;
    }
    for (size_t I = Next.fetch_add(1); I < Requests.size();
         I = Next.fetch_add(1)) {
      Timer Latency;
      std::string ResponseLine;
      if (!Conn.request(Requests[I].Line, ResponseLine).ok()) {
        ++Errors;
        return;
      }
      Result.LatenciesMs[I] = Latency.elapsedMilliseconds();

      json::ParseResult Parsed = json::parse(ResponseLine);
      const json::Value *Ok =
          Parsed.Ok ? Parsed.V.get("ok") : nullptr;
      if (!Ok || !Ok->asBool()) {
        ++Errors;
        continue;
      }
      const json::Value *Qasm = Parsed.V.get("qasm");
      if (!Qasm || !Qasm->isString() ||
          Qasm->asString() != Requests[I].Expected) {
        std::lock_guard<std::mutex> Lock(FlagMu);
        Result.AllIdentical = false;
        std::fprintf(stderr,
                     "error: %s: service response differs from the direct "
                     "library call\n",
                     Requests[I].Name.c_str());
      }
      const json::Value *Hit = Parsed.V.get("cache_hit");
      if (ExpectCacheHits && (!Hit || !Hit->asBool())) {
        std::lock_guard<std::mutex> Lock(FlagMu);
        Result.AllCacheHits = false;
        std::fprintf(stderr, "error: %s: warm request missed the cache\n",
                     Requests[I].Name.c_str());
      }
    }
  };

  std::vector<std::thread> Clients;
  for (unsigned C = 0; C < NumClients; ++C)
    Clients.emplace_back(ClientLoop);
  for (std::thread &T : Clients)
    T.join();
  Result.Seconds = Wall.elapsedSeconds();
  Result.Errors = Errors.load();
  return Result;
}

json::Value passJson(const PassResult &Pass, size_t Requests) {
  json::Value Obj = json::Value::object();
  Obj.set("seconds", Pass.Seconds);
  Obj.set("requests_per_sec",
          Pass.Seconds > 0 ? Requests / Pass.Seconds : 0.0);
  Obj.set("p50_ms", Pass.p(0.50));
  Obj.set("p95_ms", Pass.p(0.95));
  return Obj;
}

} // namespace

int main(int Argc, char **Argv) {
  BenchConfig Config = parseArgs(Argc, Argv);
  printBanner("Service throughput (qlosured cold vs warm cache)", Config);

  const unsigned NumInstances = Config.Full ? 8 : 4;
  const std::vector<unsigned> Depths =
      Config.Full ? std::vector<unsigned>{50, 100, 150}
                  : std::vector<unsigned>{40, 80};
  const char *BackendName = "sherbrooke";
  // QMAP excluded: wall-clock budget => load-dependent results (see
  // the file header).
  const std::vector<std::string> Mappers = {"qlosure", "sabre", "cirq",
                                            "tket"};

  CouplingGraph Gen = makeSycamore54();
  CouplingGraph Backend = makeBackendByName(BackendName);

  // Generate the circuit mix and precompute the expected routed bytes
  // with direct library calls (identity placement, default options —
  // exactly what the service runs).
  std::vector<RequestSpec> Requests;
  unsigned InstanceIndex = 0;
  for (unsigned Depth : Depths) {
    for (unsigned I = 0; I < NumInstances / Depths.size() + 1; ++I) {
      if (InstanceIndex >= NumInstances)
        break;
      QuekoSpec Spec;
      Spec.Depth = Depth;
      Spec.Seed = Config.Seed + InstanceIndex;
      QuekoInstance Inst = generateQueko(Gen, Spec);
      Inst.Circ.setName(
          formatString("queko-54qbt-d%u-i%u", Depth, InstanceIndex));
      ++InstanceIndex;

      std::string Qasm = qasm::printQasm(Inst.Circ);
      RoutingContext Ctx = RoutingContext::build(Inst.Circ, Backend);
      for (const std::string &MapperName : Mappers) {
        std::unique_ptr<Router> Mapper = makeRouterByName(MapperName);
        RoutingResult Direct = Mapper->routeWithIdentity(Ctx);
        if (Config.Verify) {
          VerifyResult Check = verifyRouting(Inst.Circ, Backend, Direct);
          if (!Check.Ok) {
            std::fprintf(stderr, "error: direct %s routing invalid: %s\n",
                         MapperName.c_str(), Check.Message.c_str());
            return 1;
          }
        }
        json::Value Req = json::Value::object();
        Req.set("op", "route");
        Req.set("qasm", Qasm);
        Req.set("mapper", MapperName);
        Req.set("backend", BackendName);
        RequestSpec SpecOut;
        SpecOut.Line = Req.dump();
        SpecOut.Expected = qasm::printQasm(Direct.Routed);
        SpecOut.Name = Inst.Circ.name() + "/" + MapperName;
        Requests.push_back(std::move(SpecOut));
      }
    }
  }

  ServerOptions Opts;
  Opts.Listen =
      formatString("/tmp/qlosured-bench-%d.sock", static_cast<int>(getpid()));
  Opts.Workers = Config.Threads;
  Server Daemon(Opts);
  if (Status S = Daemon.start(); !S.ok()) {
    std::fprintf(stderr, "error: cannot start server: %s\n",
                 S.message().c_str());
    return 1;
  }

  const unsigned NumClients = std::min<unsigned>(
      4, std::max(1u, std::thread::hardware_concurrency()));
  std::printf("%zu requests per pass, %u concurrent clients\n\n",
              Requests.size(), NumClients);

  PassResult Cold =
      runPass(Daemon.boundAddress(), Requests, NumClients, false);
  PassResult Warm = runPass(Daemon.boundAddress(), Requests, NumClients, true);

  // Tracing overhead: the identical warm mix with per-request tracing
  // on vs off, back to back, best-of-N each so a scheduler hiccup in a
  // single rep does not decide the result. The design claim is that the
  // disabled-tracing path costs well under 1% (every instrumentation
  // site is a single null-pointer test), and enabling it stays in the
  // low single digits; the asserted bound is 10% because on a shared CI
  // host run-to-run noise alone is several percent, and a flaky bench
  // is worse than a loose one. The measured figure lands in
  // BENCH_service.json ("tracing" section) for trend tracking. A warm
  // hit costs well under a millisecond, so one pass of the mix lasts a
  // few milliseconds, too short to resolve a few percent: each timed
  // pass repeats the mix, doubling the copies until an untraced pass
  // lasts at least 50 ms. The two sides alternate rep by rep so drift on
  // a shared host hits both alike.
  std::vector<RequestSpec> UntracedRequests, TracedRequests;
  unsigned MixRepeats = 0;
  auto repeatMix = [&](unsigned Copies) {
    for (; MixRepeats < Copies; ++MixRepeats)
      for (const RequestSpec &Spec : Requests) {
        UntracedRequests.push_back(Spec);
        json::ParseResult Parsed = json::parse(Spec.Line);
        Parsed.V.set("trace", true);
        TracedRequests.push_back(Spec);
        TracedRequests.back().Line = Parsed.V.dump();
      }
  };
  repeatMix(1);
  while (MixRepeats < 1024 &&
         runPass(Daemon.boundAddress(), UntracedRequests, NumClients, true)
                 .Seconds < 0.05)
    repeatMix(2 * MixRepeats);
  bool TraceIdentical = true;
  auto warmRps = [&](const std::vector<RequestSpec> &Mix) {
    PassResult P = runPass(Daemon.boundAddress(), Mix, NumClients, true);
    TraceIdentical = TraceIdentical && P.AllIdentical && P.Errors == 0;
    return P.Seconds > 0 ? Mix.size() / P.Seconds : 0;
  };
  const unsigned TraceReps = Config.Full ? 10 : 5;
  double UntracedRps = 0, TracedRps = 0;
  for (unsigned R = 0; R < TraceReps; ++R) {
    UntracedRps = std::max(UntracedRps, warmRps(UntracedRequests));
    TracedRps = std::max(TracedRps, warmRps(TracedRequests));
  }
  double TracingOverheadPct =
      UntracedRps > 0 ? (UntracedRps - TracedRps) / UntracedRps * 100.0 : 0;

  // The trace section must appear exactly when asked for: a traced
  // request carries attributed spans, an untraced one carries no trace
  // member at all (the off path leaves the response byte-identical,
  // which the pass comparisons above already pin for the payload).
  bool TraceSectionOk = true;
  {
    Client Conn;
    if (!Conn.connect(Daemon.boundAddress()).ok()) {
      TraceSectionOk = false;
    } else {
      std::string Resp;
      if (!Conn.request(TracedRequests[0].Line, Resp).ok()) {
        TraceSectionOk = false;
      } else {
        json::ParseResult Parsed = json::parse(Resp);
        const json::Value *TraceObj =
            Parsed.Ok ? Parsed.V.get("trace") : nullptr;
        const json::Value *Spans =
            TraceObj ? TraceObj->get("spans") : nullptr;
        if (!Spans || !Spans->isArray() || Spans->items().empty())
          TraceSectionOk = false;
      }
      if (Conn.request(Requests[0].Line, Resp).ok()) {
        json::ParseResult Parsed = json::parse(Resp);
        if (Parsed.Ok && Parsed.V.get("trace"))
          TraceSectionOk = false;
      } else {
        TraceSectionOk = false;
      }
    }
  }

  // One `batch` op vs the same number of sequential `route` ops, on two
  // disjoint circuit sets of identical composition (fresh seeds — the
  // result cache the passes above warmed serves neither side).
  const unsigned NumBatchItems = Config.Full ? 16 : 8;
  const char *BatchMapper = "qlosure";
  auto makeFreshSet = [&](uint64_t SeedOffset) {
    std::vector<std::pair<std::string, std::string>> Set;
    for (unsigned I = 0; I < NumBatchItems; ++I) {
      QuekoSpec Spec;
      Spec.Depth = Depths[I % Depths.size()];
      Spec.Seed = Config.Seed + SeedOffset + I;
      QuekoInstance Inst = generateQueko(Gen, Spec);
      Inst.Circ.setName(formatString("queko-batch-s%llu-i%u",
                                     static_cast<unsigned long long>(SeedOffset),
                                     I));
      Set.emplace_back(Inst.Circ.name(), qasm::printQasm(Inst.Circ));
    }
    return Set;
  };
  auto IndividualSet = makeFreshSet(1000);
  auto BatchSet = makeFreshSet(2000);

  bool BatchOk = true;
  double IndividualSeconds = 0;
  std::vector<double> IndividualLatenciesMs;
  {
    Client Conn;
    if (!Conn.connect(Daemon.boundAddress()).ok()) {
      BatchOk = false;
    } else {
      Timer Wall;
      for (const auto &[Name, Qasm] : IndividualSet) {
        json::Value Req = json::Value::object();
        Req.set("op", "route");
        Req.set("qasm", Qasm);
        Req.set("mapper", BatchMapper);
        Req.set("backend", BackendName);
        Req.set("include_qasm", false);
        Timer Latency;
        std::string Resp;
        if (!Conn.request(Req.dump(), Resp).ok()) {
          BatchOk = false;
          break;
        }
        IndividualLatenciesMs.push_back(Latency.elapsedMilliseconds());
        json::ParseResult Parsed = json::parse(Resp);
        const json::Value *Ok = Parsed.Ok ? Parsed.V.get("ok") : nullptr;
        if (!Ok || !Ok->asBool()) {
          BatchOk = false;
          std::fprintf(stderr, "error: individual route %s failed\n",
                       Name.c_str());
        }
      }
      IndividualSeconds = Wall.elapsedSeconds();
    }
  }

  double BatchSeconds = 0;
  size_t BatchItemFrames = 0;
  {
    Client Conn;
    if (!Conn.connect(Daemon.boundAddress()).ok()) {
      BatchOk = false;
    } else {
      json::Value Req = json::Value::object();
      Req.set("op", "batch");
      Req.set("id", "bench-batch");
      Req.set("mapper", BatchMapper);
      Req.set("backend", BackendName);
      Req.set("include_qasm", false);
      json::Value Items = json::Value::array();
      for (const auto &[Name, Qasm] : BatchSet) {
        json::Value Item = json::Value::object();
        Item.set("name", Name);
        Item.set("qasm", Qasm);
        Items.push(std::move(Item));
      }
      Req.set("items", std::move(Items));

      Timer Wall;
      std::string Summary;
      if (!Conn.sendLine(Req.dump()).ok() ||
          !Conn.recvResponseFor(
                   "bench-batch", Summary,
                   [&](const std::string &) { ++BatchItemFrames; })
               .ok()) {
        BatchOk = false;
      } else {
        BatchSeconds = Wall.elapsedSeconds();
        json::ParseResult Parsed = json::parse(Summary);
        const json::Value *Ok = Parsed.Ok ? Parsed.V.get("ok") : nullptr;
        const json::Value *Succeeded =
            Parsed.Ok ? Parsed.V.get("succeeded") : nullptr;
        if (!Ok || !Ok->asBool() || !Succeeded ||
            static_cast<size_t>(Succeeded->asNumber()) != BatchSet.size() ||
            BatchItemFrames != BatchSet.size()) {
          BatchOk = false;
          std::fprintf(stderr,
                       "error: batch session failed (%zu item frames, "
                       "summary: %s)\n",
                       BatchItemFrames, Summary.c_str());
        }
      }
    }
  }

  auto p50 = [](std::vector<double> V) {
    if (V.empty())
      return 0.0;
    std::sort(V.begin(), V.end());
    return V[V.size() / 2];
  };
  double IndividualP50 = p50(IndividualLatenciesMs);
  double BatchPerItemMs =
      NumBatchItems > 0 ? BatchSeconds * 1000.0 / NumBatchItems : 0;
  double BatchRatio = BatchSeconds > 0 ? IndividualSeconds / BatchSeconds : 0;

  // --fleet N: the same request mix through a consistent-hash shard
  // router fronting N fresh daemons, against the single warm daemon at
  // equal client concurrency. Routed bytes must stay identical through
  // the router; the >= 1.7x aggregate-throughput bar only applies where
  // the host has cores for the daemons to actually run in parallel.
  bool FleetRan = false, FleetOk = true, FleetAsserted = false;
  bool FleetIdentical = true, FleetWarmHits = true;
  unsigned FleetN = 0, FleetClients = 0;
  double SingleRps = 0, FleetRps = 0, FleetSpeedup = 0;
  if (Config.Fleet >= 2) {
    FleetRan = true;
    FleetN = std::min(Config.Fleet, 4u);
    std::vector<std::unique_ptr<Server>> ShardDaemons;
    RouterOptions RouterOpts;
    RouterOpts.Listen = formatString("/tmp/qlosure-router-bench-%d.sock",
                                     static_cast<int>(getpid()));
    for (unsigned S = 0; S < FleetN; ++S) {
      ServerOptions ShardOpts;
      ShardOpts.Listen = formatString("/tmp/qlosured-bench-%d-s%u.sock",
                                      static_cast<int>(getpid()), S);
      ShardOpts.Workers = Config.Threads;
      auto Shard = std::make_unique<Server>(ShardOpts);
      if (Status St = Shard->start(); !St.ok()) {
        std::fprintf(stderr, "error: cannot start fleet shard %u: %s\n", S,
                     St.message().c_str());
        FleetOk = false;
        break;
      }
      RouterOpts.Shards.push_back(Shard->boundAddress());
      ShardDaemons.push_back(std::move(Shard));
    }
    RouterServer Router(RouterOpts);
    if (FleetOk) {
      if (Status St = Router.start(); !St.ok()) {
        std::fprintf(stderr, "error: cannot start fleet router: %s\n",
                     St.message().c_str());
        FleetOk = false;
      }
    }
    if (FleetOk) {
      FleetClients = std::max(NumClients, FleetN * 2);
      // The single-daemon reference at the same concurrency; its caches
      // are warm from the passes above.
      PassResult Single =
          runPass(Daemon.boundAddress(), Requests, FleetClients, true);
      // Warm each shard's caches through the router (stickiness means
      // one pass suffices), then measure the aggregate warm pass.
      PassResult Warmup =
          runPass(Router.boundAddress(), Requests, FleetClients, false);
      PassResult FleetWarm =
          runPass(Router.boundAddress(), Requests, FleetClients, true);

      FleetIdentical = Warmup.AllIdentical && FleetWarm.AllIdentical &&
                       Warmup.Errors == 0 && FleetWarm.Errors == 0;
      FleetWarmHits = FleetWarm.AllCacheHits;
      SingleRps =
          Single.Seconds > 0 ? Requests.size() / Single.Seconds : 0;
      FleetRps =
          FleetWarm.Seconds > 0 ? Requests.size() / FleetWarm.Seconds : 0;
      FleetSpeedup = SingleRps > 0 ? FleetRps / SingleRps : 0;
      FleetOk = FleetIdentical && FleetWarmHits;

      FleetAsserted =
          std::thread::hardware_concurrency() >= FleetN + 2;
      std::printf("\nfleet: %u daemons behind the router, %u clients\n",
                  FleetN, FleetClients);
      std::printf("  single warm: %8.1f req/s\n", SingleRps);
      std::printf("  fleet  warm: %8.1f req/s  (%.2fx aggregate)\n",
                  FleetRps, FleetSpeedup);
      std::printf("  routed bytes identical through the router: %s\n",
                  FleetIdentical ? "yes" : "NO (BUG)");
      std::printf("  fleet warm pass all cache hits: %s\n",
                  FleetWarmHits ? "yes" : "NO (BUG)");
      if (FleetAsserted) {
        if (FleetSpeedup < 1.7) {
          std::fprintf(stderr,
                       "error: fleet speedup %.2fx below the 1.7x "
                       "acceptance bar\n",
                       FleetSpeedup);
          FleetOk = false;
        }
      } else {
        std::printf("  (speedup bar not asserted: %u hardware threads < "
                    "%u needed for %u daemons + router)\n",
                    std::thread::hardware_concurrency(), FleetN + 2,
                    FleetN);
      }
      Router.stop();
    }
    for (auto &Shard : ShardDaemons)
      Shard->stop();
  }

  // Dedupe: K concurrent identical requests for one uncached deep
  // circuit against a fresh daemon. Single-flight coalescing must
  // collapse them onto one scheduler job (submitted == 1 — latecomers
  // that miss the flight hit the result cache instead, which is the
  // same dedupe guarantee), and every response must carry the same
  // routed bytes and stats.
  const unsigned DedupeClients = Config.Full ? 8 : 6;
  bool DedupeOk = true, DedupeIdentical = true;
  uint64_t DedupeSubmitted = 0, DedupeCoalesced = 0;
  double DedupeSeconds = 0;
  {
    ServerOptions DedupeOpts;
    DedupeOpts.Listen = formatString("/tmp/qlosured-bench-%d-dedupe.sock",
                                     static_cast<int>(getpid()));
    DedupeOpts.Workers = Config.Threads;
    Server DedupeDaemon(DedupeOpts);
    if (Status S = DedupeDaemon.start(); !S.ok()) {
      std::fprintf(stderr, "error: cannot start dedupe daemon: %s\n",
                   S.message().c_str());
      DedupeOk = false;
    } else {
      QuekoSpec Spec;
      Spec.Depth = Config.Full ? 300 : 200;
      Spec.Seed = Config.Seed + 3000;
      QuekoInstance Inst = generateQueko(Gen, Spec);
      json::Value Req = json::Value::object();
      Req.set("op", "route");
      Req.set("qasm", qasm::printQasm(Inst.Circ));
      Req.set("mapper", "qlosure");
      Req.set("backend", BackendName);
      const std::string ReqLine = Req.dump();

      std::vector<std::string> Payloads(DedupeClients);
      std::atomic<uint64_t> DedupeErrors{0};
      Timer Wall;
      std::vector<std::thread> Racers;
      for (unsigned C = 0; C < DedupeClients; ++C) {
        Racers.emplace_back([&, C] {
          Client Conn;
          json::ParseResult Mine = json::parse(ReqLine);
          Mine.V.set("id", formatString("dedupe-%u", C));
          std::string Resp;
          if (!Conn.connect(DedupeDaemon.boundAddress()).ok() ||
              !Conn.request(Mine.V.dump(), Resp).ok()) {
            ++DedupeErrors;
            return;
          }
          json::ParseResult Parsed = json::parse(Resp);
          const json::Value *Ok = Parsed.Ok ? Parsed.V.get("ok") : nullptr;
          const json::Value *Qasm = Parsed.Ok ? Parsed.V.get("qasm") : nullptr;
          const json::Value *St = Parsed.Ok ? Parsed.V.get("stats") : nullptr;
          if (!Ok || !Ok->asBool() || !Qasm || !St) {
            ++DedupeErrors;
            return;
          }
          Payloads[C] = St->dump() + "\n" + Qasm->asString();
        });
      }
      for (std::thread &T : Racers)
        T.join();
      DedupeSeconds = Wall.elapsedSeconds();
      for (unsigned C = 1; C < DedupeClients; ++C)
        DedupeIdentical = DedupeIdentical && Payloads[C] == Payloads[0];

      Client StatsConn;
      std::string StatsResp;
      if (StatsConn.connect(DedupeDaemon.boundAddress()).ok() &&
          StatsConn.request("{\"op\":\"stats\"}", StatsResp).ok()) {
        json::ParseResult Parsed = json::parse(StatsResp);
        const json::Value *Sched =
            Parsed.Ok ? Parsed.V.get("scheduler") : nullptr;
        const json::Value *Sub = Sched ? Sched->get("submitted") : nullptr;
        const json::Value *Srv = Parsed.Ok ? Parsed.V.get("server") : nullptr;
        const json::Value *Coal = Srv ? Srv->get("coalesced") : nullptr;
        DedupeSubmitted =
            Sub ? static_cast<uint64_t>(Sub->asNumber()) : ~0ull;
        DedupeCoalesced = Coal ? static_cast<uint64_t>(Coal->asNumber()) : 0;
      } else {
        ++DedupeErrors;
      }
      DedupeDaemon.stop();
      DedupeOk = DedupeErrors.load() == 0 && DedupeIdentical &&
                 DedupeSubmitted == 1;
      if (!DedupeOk)
        std::fprintf(stderr,
                     "error: dedupe acceptance FAILED (errors=%llu, "
                     "identical=%d, submitted=%llu, coalesced=%llu)\n",
                     static_cast<unsigned long long>(DedupeErrors.load()),
                     DedupeIdentical,
                     static_cast<unsigned long long>(DedupeSubmitted),
                     static_cast<unsigned long long>(DedupeCoalesced));
    }
  }

  CacheStats CtxStats = Daemon.contextCacheStats();
  CacheStats ResStats = Daemon.resultCacheStats();
  Daemon.stop();

  bool AllIdentical = Cold.AllIdentical && Warm.AllIdentical &&
                      Cold.Errors == 0 && Warm.Errors == 0;
  double ColdRps = Cold.Seconds > 0 ? Requests.size() / Cold.Seconds : 0;
  double WarmRps = Warm.Seconds > 0 ? Requests.size() / Warm.Seconds : 0;
  double Ratio = ColdRps > 0 ? WarmRps / ColdRps : 0;

  std::printf("pass   seconds     req/s    p50 ms    p95 ms\n");
  std::printf("cold  %8.3f  %8.1f  %8.2f  %8.2f\n", Cold.Seconds, ColdRps,
              Cold.p(0.50), Cold.p(0.95));
  std::printf("warm  %8.3f  %8.1f  %8.2f  %8.2f\n", Warm.Seconds, WarmRps,
              Warm.p(0.50), Warm.p(0.95));
  std::printf("\nwarm/cold throughput: %.2fx (acceptance bar: >= 2x)\n",
              Ratio);
  std::printf("\nbatch session: %u items in %.3fs (%.2f ms/item) vs %u "
              "individual routes in %.3fs (p50 %.2f ms) -> %.2fx; "
              "session ok: %s\n",
              NumBatchItems, BatchSeconds, BatchPerItemMs, NumBatchItems,
              IndividualSeconds, IndividualP50, BatchRatio,
              BatchOk ? "yes" : "NO (BUG)");
  std::printf("\ndedupe: %u concurrent identical cold requests -> %llu "
              "scheduler job(s), %llu coalesced, identical payloads: %s "
              "(%.3fs)\n",
              DedupeClients,
              static_cast<unsigned long long>(DedupeSubmitted),
              static_cast<unsigned long long>(DedupeCoalesced),
              DedupeIdentical ? "yes" : "NO (BUG)", DedupeSeconds);
  std::printf("\ntracing overhead (warm, best of %u, mix x%u per pass): "
              "untraced %8.1f req/s, traced %8.1f req/s -> %+.2f%% (bound: "
              "<= 10%%, design target < 1%%)\n",
              TraceReps, MixRepeats, UntracedRps, TracedRps,
              TracingOverheadPct);
  std::printf("trace section present iff requested: %s\n",
              TraceSectionOk ? "yes" : "NO (BUG)");
  std::printf("byte-identical to direct calls: %s\n",
              AllIdentical ? "yes" : "NO (BUG)");
  std::printf("warm pass all cache hits: %s\n",
              Warm.AllCacheHits ? "yes" : "NO (BUG)");
  std::printf("context cache: %llu hits / %llu misses; result cache: "
              "%llu hits / %llu misses\n",
              static_cast<unsigned long long>(CtxStats.Hits),
              static_cast<unsigned long long>(CtxStats.Misses),
              static_cast<unsigned long long>(ResStats.Hits),
              static_cast<unsigned long long>(ResStats.Misses));

  // See the file header for the JSON schema.
  {
    json::Value Doc = json::Value::object();
    Doc.set("bench", "service_throughput");
    Doc.set("workload", "queko-54qbt");
    Doc.set("backend", BackendName);
    Doc.set("clients", NumClients);
    Doc.set("requests_per_pass", Requests.size());
    Doc.set("all_identical", AllIdentical);
    Doc.set("all_warm_hits", Warm.AllCacheHits);
    Doc.set("cold", passJson(Cold, Requests.size()));
    Doc.set("warm", passJson(Warm, Requests.size()));
    Doc.set("warm_over_cold", Ratio);
    json::Value TracingObj = json::Value::object();
    TracingObj.set("reps", TraceReps);
    TracingObj.set("mix_repeats", MixRepeats);
    TracingObj.set("untraced_rps", UntracedRps);
    TracingObj.set("traced_rps", TracedRps);
    TracingObj.set("overhead_pct", TracingOverheadPct);
    TracingObj.set("asserted_bound_pct", 10.0);
    TracingObj.set("all_identical", TraceIdentical);
    TracingObj.set("trace_section_ok", TraceSectionOk);
    Doc.set("tracing", std::move(TracingObj));
    json::Value BatchObj = json::Value::object();
    BatchObj.set("items", NumBatchItems);
    BatchObj.set("mapper", BatchMapper);
    BatchObj.set("individual_seconds", IndividualSeconds);
    BatchObj.set("individual_p50_ms", IndividualP50);
    BatchObj.set("batch_seconds", BatchSeconds);
    BatchObj.set("batch_per_item_ms", BatchPerItemMs);
    BatchObj.set("batch_over_individual", BatchRatio);
    Doc.set("batch", std::move(BatchObj));
    json::Value DedupeObj = json::Value::object();
    DedupeObj.set("clients", DedupeClients);
    DedupeObj.set("submitted", DedupeSubmitted);
    DedupeObj.set("coalesced", DedupeCoalesced);
    DedupeObj.set("all_identical", DedupeIdentical);
    DedupeObj.set("seconds", DedupeSeconds);
    Doc.set("dedupe", std::move(DedupeObj));
    if (FleetRan) {
      json::Value FleetObj = json::Value::object();
      FleetObj.set("daemons", FleetN);
      FleetObj.set("clients", FleetClients);
      FleetObj.set("single_warm_rps", SingleRps);
      FleetObj.set("fleet_warm_rps", FleetRps);
      FleetObj.set("speedup", FleetSpeedup);
      FleetObj.set("all_identical", FleetIdentical);
      FleetObj.set("all_warm_hits", FleetWarmHits);
      FleetObj.set("speedup_asserted", FleetAsserted);
      Doc.set("fleet", std::move(FleetObj));
    }
    FILE *F = std::fopen("BENCH_service.json", "w");
    if (!F) {
      std::fprintf(stderr, "error: cannot write BENCH_service.json\n");
      return 1;
    }
    std::fprintf(F, "%s\n", Doc.dump().c_str());
    std::fclose(F);
    std::printf("wrote BENCH_service.json\n");
  }

  bool TracingOk =
      TraceIdentical && TraceSectionOk && TracingOverheadPct <= 10.0;
  if (!TracingOk)
    std::fprintf(stderr,
                 "error: tracing acceptance FAILED (identical=%d, "
                 "section=%d, overhead %.2f%% vs 10%% bound)\n",
                 TraceIdentical, TraceSectionOk, TracingOverheadPct);
  bool Pass = AllIdentical && Warm.AllCacheHits && Ratio >= 2.0 && BatchOk &&
              TracingOk && DedupeOk && (!FleetRan || FleetOk);
  if (!Pass)
    std::fprintf(stderr, "error: service throughput acceptance FAILED\n");
  return Pass ? 0 : 1;
}
