//===- perfbench/src/Layers.cpp - Per-layer replay of a workload -----------===//
//
// Part of the Qlosure project. Distributed under the MIT license.
//
//===----------------------------------------------------------------------===//

#include "Layers.h"

#include "Common.h"

#include "deps/TransitiveWeights.h"
#include "qasm/Importer.h"
#include "qasm/Parser.h"
#include "qasm/Printer.h"
#include "route/RoutingContext.h"
#include "route/Verify.h"
#include "service/Protocol.h"
#include "service/ResultStore.h"
#include "support/Fingerprint.h"

#include <optional>
#include <utility>

using namespace qlosure;
using namespace perfbench;

namespace {

const std::pair<const char *, const char *> RouteMetrics[] = {
    {"qlosure", "core.qlosure_route_ms"},
    {"sabre", "baselines.sabre_route_ms"},
    {"cirq", "baselines.cirq_route_ms"},
    {"tket", "baselines.tket_route_ms"}};

/// Times calls into the library and records each as a span of one
/// request.
class Recorder {
public:
  explicit Recorder(LayerSamples &Out) : Out(Out), Epoch(Clock::now()) {}

  /// Runs \p F, records its duration under \p Metric for request \p Req,
  /// and returns F's result. lastMs() is the duration.
  template <typename Fn>
  auto time(const std::string &Req, const char *Metric, Fn &&F) {
    const auto Start = Clock::now();
    auto Result = F();
    record(Req, Metric, Start, Clock::now());
    return Result;
  }

  /// Records a call timed by the caller (for when the metric's name
  /// depends on what the call did).
  void record(const std::string &Req, const char *Metric,
              Clock::time_point Start, Clock::time_point End) {
    LastMs = msBetween(Start, End);
    Out.Ms[Metric].push_back(LastMs);
    Out.Spans.push_back({Req, Metric, "replay",
                         msBetween(Epoch, Start) * 1000.0, LastMs * 1000.0,
                         0});
  }

  double lastMs() const { return LastMs; }

private:
  LayerSamples &Out;
  Clock::time_point Epoch;
  double LastMs = 0;
};

std::string requestId(const Workload &W, const Request &R) {
  switch (W.TheKind) {
  case Kind::ColdQueko:
    return "r" + std::to_string(R.Index);
  case Kind::WarmHits:
    return "p" + std::to_string(R.Index);
  case Kind::OmegaCrossover:
    return "b" + std::to_string(R.Index / W.BatchSize) + "-" +
           std::to_string(R.Index % W.BatchSize);
  }
  return "";
}

} // namespace

LayerSamples perfbench::replayLayers(const Workload &W, const CouplingGraph &Hw,
                                     const std::string &StorePath) {
  LayerSamples Out;
  Recorder Rec(Out);
  const bool Batched = W.TheKind == Kind::OmegaCrossover;
  const bool HitPath = W.TheKind == Kind::WarmHits;
  size_t Count = std::min(W.ReplayCount, W.Requests.size());
  std::vector<std::pair<service::CacheKey, service::CachedResult>> Results;
  std::vector<std::string> Ids;
  double BatchDecodeMs = 0;

  for (size_t I = 0; I < Count; ++I) {
    const Request &R = W.Requests[I];
    std::string Id = requestId(W, R);
    std::string Qasm = R.qasm();
    double Path = 0;

    // A batch line is decoded once for all its items; each item is
    // charged its share.
    if (!Batched) {
      std::string Line = routeLine(R, Id, false);
      Rec.time(Id, "service.decode_ms",
               [&] { return service::parseRequest(Line).Ok; });
      Path += Rec.lastMs();
    } else {
      if (I % W.BatchSize == 0) {
        std::string Line = batchLine(&R, W.BatchSize, Id, false);
        Rec.time(Id, "service.decode_batch_ms",
                 [&] { return service::parseRequest(Line).Ok; });
        BatchDecodeMs = Rec.lastMs() / static_cast<double>(W.BatchSize);
      }
      Out.Ms["service.decode_ms"].push_back(BatchDecodeMs);
      Path += BatchDecodeMs;
    }

    qasm::ParseResult Parsed =
        Rec.time(Id, "qasm.parse_ms", [&] { return qasm::parseQasm(Qasm); });
    Path += Rec.lastMs();
    Out.ParsedBytes += static_cast<double>(Qasm.size());
    Out.ParseSeconds += Rec.lastMs() / 1000.0;
    if (!Parsed.succeeded()) {
      Out.Errors.push_back(Id + ": parse failed: " + Parsed.Error);
      continue;
    }
    std::optional<Circuit> Logical = Rec.time(Id, "qasm.import_ms", [&] {
      qasm::ImportResult Imported = qasm::importProgram(*Parsed.Prog,
                                                        "request");
      return Imported.Circ ? std::optional<Circuit>(
                                 Imported.Circ->withoutNonUnitaries()
                                     .decomposeThreeQubitGates())
                           : std::nullopt;
    });
    Path += Rec.lastMs();
    if (!Logical) {
      Out.Errors.push_back(Id + ": import failed");
      continue;
    }

    std::unique_ptr<Router> Own = makeServiceRouter(R.Mapper, R.Affine);
    RoutingContext Ctx = Rec.time(Id, "route.context_ms", [&] {
      return RoutingContext::build(*Logical, Hw, Own->contextOptions());
    });
    double ContextMs = Rec.lastMs();
    if (!Ctx.valid()) {
      Out.Errors.push_back(Id + ": " + Ctx.status().message());
      continue;
    }
    const auto OmegaStart = Clock::now();
    Ctx.dependenceWeights();
    const auto OmegaEnd = Clock::now();
    const WeightResult &Omega = Ctx.dependenceWeightResult();
    Rec.record(Id,
               Omega.UsedEngine == WeightEngine::Affine
                   ? "deps.omega_affine_ms"
                   : "deps.omega_exact_ms",
               OmegaStart, OmegaEnd);
    double OmegaMs = Rec.lastMs();
    Out.OmegaResults += 1;
    Out.OmegaInexact += Omega.IsExact ? 0 : 1;

    std::optional<RoutingResult> OwnResult;
    double OwnRouteMs = 0;
    for (const auto &[Mapper, Metric] : RouteMetrics) {
      bool Affine = R.Affine && std::string(Mapper) == "qlosure";
      std::unique_ptr<Router> Rt = makeServiceRouter(Mapper, Affine);
      RoutingResult Result = Rec.time(Id, Metric, [&] {
        return Rt->route(Ctx, Ctx.identityMapping());
      });
      if (Affine) {
        Out.ReplayedPeriods += Result.AffineReplayedPeriods;
        Out.FallbackPeriods += Result.AffineFallbackPeriods;
      }
      if (R.Mapper == Mapper) {
        OwnRouteMs = Rec.lastMs();
        OwnResult = std::move(Result);
      }
    }
    bool Verified = Rec.time(Id, "route.verify_ms", [&] {
      return verifyRouting(*Logical, Hw, *OwnResult).Ok;
    });
    double VerifyMs = Rec.lastMs();
    if (!Verified)
      Out.Errors.push_back(Id + ": replayed route failed verification");
    std::string Routed = Rec.time(
        Id, "qasm.print_ms", [&] { return qasm::printQasm(OwnResult->Routed); });
    double PrintMs = Rec.lastMs();

    service::RouteStats Stats;
    Stats.LogicalGates = Logical->size();
    Stats.RoutedGates = OwnResult->Routed.size();
    Stats.Swaps = OwnResult->NumSwaps;
    Stats.DepthBefore = Logical->depth();
    Stats.DepthAfter = OwnResult->Routed.depth();
    Stats.MappingSeconds = OwnResult->MappingSeconds;
    Stats.Verified = Verified;
    Rec.time(Id, "service.encode_ms", [&] {
      return Batched ? service::formatBatchItemResult(
                           Id, I % W.BatchSize, "i" + std::to_string(R.Index),
                           R.Mapper, BackendName, Stats, false, false, Routed,
                           true)
                     : service::formatRouteResponse(Id, R.Mapper, BackendName,
                                                    Stats, false, false,
                                                    Routed, true);
    });
    Path += Rec.lastMs();
    // A result-cache hit skips everything between import and encode.
    if (!HitPath)
      Path += ContextMs + OmegaMs + OwnRouteMs + VerifyMs + PrintMs;
    Out.PathMs.push_back(Path);

    service::CachedResult Cached;
    Cached.RoutedQasm = std::move(Routed);
    Cached.LogicalGates = Stats.LogicalGates;
    Cached.RoutedGates = Stats.RoutedGates;
    Cached.Swaps = Stats.Swaps;
    Cached.DepthBefore = Stats.DepthBefore;
    Cached.DepthAfter = Stats.DepthAfter;
    Cached.MappingSeconds = Stats.MappingSeconds;
    Cached.Verified = Verified;
    service::CacheKey Key{fingerprint(*Logical), fingerprint(Hw),
                          fingerprintString(R.Mapper) + (R.Affine ? 4 : 0)};
    Results.emplace_back(Key, std::move(Cached));
    Ids.push_back(Id);
  }

  // QUEKO inputs sit far below the Auto limit and have no loop structure,
  // so the affine engine and affine replay are timed on probe circuits:
  // QFT kernels just over the 30 000-gate limit, routed affine:true.
  if (W.TheKind != Kind::OmegaCrossover) {
    for (unsigned Qubits : {96u, 112u}) {
      Request Probe;
      Probe.Mapper = "qlosure";
      Probe.Affine = true;
      Probe.QftQubits = Qubits;
      Probe.QftReps = 30000 / (2 * Qubits) + 1;
      std::string Id = "probe-" + std::to_string(Qubits);
      Circuit Logical;
      std::string Error;
      if (!importLikeDaemon(Probe.qasm(), Logical, Error)) {
        Out.Errors.push_back(Id + ": " + Error);
        continue;
      }
      std::unique_ptr<Router> Rt = makeServiceRouter("qlosure", true);
      RoutingContext Ctx =
          RoutingContext::build(Logical, Hw, Rt->contextOptions());
      const auto Start = Clock::now();
      Ctx.dependenceWeights();
      const WeightResult &Omega = Ctx.dependenceWeightResult();
      Rec.record(Id,
                 Omega.UsedEngine == WeightEngine::Affine
                     ? "deps.omega_affine_ms"
                     : "deps.omega_exact_ms",
                 Start, Clock::now());
      Out.OmegaResults += 1;
      Out.OmegaInexact += Omega.IsExact ? 0 : 1;
      RoutingResult Result = Rt->route(Ctx, Ctx.identityMapping());
      Out.ReplayedPeriods += Result.AffineReplayedPeriods;
      Out.FallbackPeriods += Result.AffineFallbackPeriods;
    }
  }

  // The durable store, on the replayed results: every routed result is
  // appended (cold path), then read back.
  Status Err;
  service::ResultStoreOptions StoreOpts;
  StoreOpts.Path = StorePath;
  std::unique_ptr<service::ResultStore> Store =
      service::ResultStore::open(StoreOpts, Err);
  if (!Store) {
    Out.Errors.push_back("store: " + Err.message());
    return Out;
  }
  for (size_t I = 0; I < Results.size(); ++I) {
    bool Stored = Rec.time(Ids[I], "service.store_append_ms", [&] {
      return Store->put(Results[I].first, Results[I].second);
    });
    if (!Stored)
      Out.Errors.push_back(Ids[I] + ": store append failed");
    if (!HitPath)
      Out.PathMs[I] += Rec.lastMs();
  }
  for (size_t I = 0; I < Results.size(); ++I) {
    bool Found = Rec.time(Ids[I], "service.store_lookup_ms", [&] {
      return Store->get(Results[I].first) != nullptr;
    });
    if (!Found)
      Out.Errors.push_back(Ids[I] + ": stored result not found");
  }
  return Out;
}
