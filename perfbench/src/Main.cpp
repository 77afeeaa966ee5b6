//===- perfbench/src/Main.cpp - One benchmark run against qlosured ---------===//
//
// Part of the Qlosure project. Distributed under the MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// qlbench runs one workload once against a real qlosured process and
/// prints one JSON document on stdout (perfbench/run.py wraps it):
///
///   qlbench --workload NAME --seed N --seconds S --trace 0|1
///           --daemon PATH/TO/qlosured --workdir DIR [--spans FILE] [--smoke]
///
/// Setup: the daemon is launched several times (fresh store each time) and
/// setup_s is the median launch-to-first-ping time, plus the priming pass
/// on warm-hits. The last daemon serves the timed phase. Afterwards every
/// response is checked against the direct library call.
///
/// --trace 0 reports the end-to-end metrics. --trace 1 sends half the
/// requests with "trace":true (the difference is the tracing overhead),
/// then replays the workload's first inputs through the library's public
/// functions (Layers.h) and reports the per-layer metrics; all spans are
/// written to --spans as JSON lines.
///
//===----------------------------------------------------------------------===//

#include "Common.h"
#include "Daemon.h"
#include "Layers.h"
#include "Load.h"
#include "Workloads.h"

#include "topology/Backends.h"

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <thread>
#include <unistd.h>

using namespace qlosure;
using namespace perfbench;

namespace {

struct Args {
  std::string Workload;
  uint64_t Seed = 1;
  double Seconds = 10;
  bool Trace = false;
  bool Smoke = false;
  std::string DaemonExe;
  std::string WorkDir;
  std::string SpansPath;
};

bool parseArgs(int Argc, char **Argv, Args &A) {
  for (int I = 1; I < Argc; ++I) {
    std::string Flag = Argv[I];
    if (Flag == "--smoke") {
      A.Smoke = true;
      continue;
    }
    if (I + 1 >= Argc)
      return false;
    std::string Value = Argv[++I];
    if (Flag == "--workload")
      A.Workload = Value;
    else if (Flag == "--seed")
      A.Seed = std::strtoull(Value.c_str(), nullptr, 10);
    else if (Flag == "--seconds")
      A.Seconds = std::strtod(Value.c_str(), nullptr);
    else if (Flag == "--trace")
      A.Trace = Value == "1";
    else if (Flag == "--daemon")
      A.DaemonExe = Value;
    else if (Flag == "--workdir")
      A.WorkDir = Value;
    else if (Flag == "--spans")
      A.SpansPath = Value;
    else
      return false;
  }
  return !A.Workload.empty() && !A.DaemonExe.empty() && !A.WorkDir.empty() &&
         A.Seconds > 0;
}

/// Collects failures against the number of operations attempted.
struct Tally {
  size_t Attempted = 0;
  size_t Failed = 0;
  std::vector<std::string> Errors;

  void fail(const std::string &Why) {
    ++Failed;
    if (Errors.size() < 16)
      Errors.push_back(Why);
  }
  void note(const std::string &Why) {
    if (Errors.size() < 16)
      Errors.push_back(Why);
  }
  void absorb(const LoadResult &L) {
    Attempted += L.Attempted;
    Failed += L.Failed;
    for (const std::string &E : L.Errors)
      note(E);
  }
};

const json::Value *path(const json::Value &Doc,
                        std::initializer_list<const char *> Keys) {
  const json::Value *V = &Doc;
  for (const char *K : Keys)
    if (!V || !(V = V->get(K)))
      return nullptr;
  return V;
}

double number(const json::Value &Doc, std::initializer_list<const char *> Keys) {
  const json::Value *V = path(Doc, Keys);
  return V ? V->asNumber() : 0;
}

/// Mean of one of the daemon's always-on latency histograms, in ms.
double histogramMeanMs(const json::Value &Stats, const char *Name) {
  double Count = number(Stats, {"latency", Name, "count"});
  double Sum = number(Stats, {"latency", Name, "sum_seconds"});
  return Count > 0 ? Sum / Count * 1000.0 : 0;
}

/// Hit share of a cache between two stats snapshots.
double hitRatio(const json::Value &Before, const json::Value &After,
                const char *Cache) {
  double Hits = number(After, {Cache, "hits"}) - number(Before, {Cache, "hits"});
  double Misses =
      number(After, {Cache, "misses"}) - number(Before, {Cache, "misses"});
  return Hits + Misses > 0 ? Hits / (Hits + Misses) : 0;
}

std::vector<double> latencies(const LoadResult &L, int Traced) {
  std::vector<double> Out;
  for (const Sample &S : L.Samples)
    if (Traced < 0 || S.Traced == (Traced == 1))
      Out.push_back(S.LatencyMs);
  return Out;
}

/// Completions per one-second window of the timed phase (full windows).
std::vector<double> windowRates(const LoadResult &L) {
  size_t Windows = static_cast<size_t>(L.ElapsedS);
  std::vector<double> Rates(Windows, 0.0);
  for (const Sample &S : L.Samples) {
    size_t W = static_cast<size_t>(S.SentS + S.LatencyMs / 1000.0);
    if (W < Windows)
      Rates[W] += 1;
  }
  return Rates;
}

void writeSpans(const std::string &Path, const std::vector<SpanRecord> &A,
                const std::vector<SpanRecord> &B) {
  std::ofstream Out(Path, std::ios::trunc);
  for (const auto *List : {&A, &B}) {
    for (const SpanRecord &S : *List) {
      json::Value Obj = json::Value::object();
      Obj.set("request", S.RequestId);
      Obj.set("name", S.Name);
      Obj.set("source", S.Source);
      Obj.set("start_us", S.StartUs);
      Obj.set("dur_us", S.DurUs);
      Obj.set("depth", S.Depth);
      Out << Obj.dump() << '\n';
    }
  }
}

int run(const Args &A) {
  Workload W;
  if (!makeWorkload(A.Workload, A.Seed, A.Seconds, A.Smoke, W)) {
    std::fprintf(stderr, "qlbench: unknown workload '%s'\n",
                 A.Workload.c_str());
    return 2;
  }
  const CouplingGraph Hw = makeBackendByName(BackendName);
  const unsigned Threads =
      std::max(1u, std::min(4u, std::thread::hardware_concurrency()));
  Tally T;
  json::Value Notes = json::Value::object();

  // warm-hits checks its priming answers, so their references come first.
  std::vector<Expected> Primed;
  if (W.TheKind == Kind::WarmHits) {
    std::vector<const Request *> Pairs;
    for (const Request &R : W.Requests)
      Pairs.push_back(&R);
    Primed = computeExpected(Pairs, Hw, Threads);
  }

  // Setup, several times: launch to first ping (+ priming on warm-hits).
  const unsigned Launches = A.Smoke ? 2 : (W.TheKind == Kind::WarmHits ? 3 : 15);
  std::vector<double> SetupS;
  std::unique_ptr<Daemon> D;
  LoadResult Priming;
  for (unsigned L = 0; L < Launches; ++L) {
    if (D && !D->stop())
      T.fail("a setup daemon did not exit cleanly");
    Status Err;
    D = Daemon::launch(A.DaemonExe, "d" + std::to_string(L), 2, Err);
    if (!D) {
      std::fprintf(stderr, "qlbench: %s\n", Err.message().c_str());
      return 1;
    }
    double Setup = D->setupSeconds();
    if (W.TheKind == Kind::WarmHits) {
      LoadOptions Opts;
      Opts.Address = D->address();
      Opts.TraceMode = A.Trace;
      Priming = primePairs(W, Opts);
      Setup += Priming.ElapsedS;
      T.absorb(Priming);
      for (const Request &R : W.Requests) {
        std::string Why;
        if (!matches(Priming.Outcomes[R.Index], Primed[R.Index],
                     /*WantCacheHit=*/false, Why))
          T.fail("priming p" + std::to_string(R.Index) + ": " + Why);
      }
    }
    SetupS.push_back(Setup);
  }

  json::Value Before = D->stats();
  LoadOptions Opts;
  Opts.Address = D->address();
  Opts.Seconds = A.Seconds;
  Opts.TraceMode = A.Trace;
  Opts.Seed = A.Seed;
  LoadResult Load = runTimedPhase(W, Opts, Primed);
  json::Value After = D->stats();
  double PeakRss = D->peakRssMb();
  if (!D->stop())
    T.fail("qlosured did not exit cleanly after the run");
  T.absorb(Load);
  if (After.isNull())
    T.fail("stats request failed");

  // The output check of cold-queko and omega-crossover: every request
  // sent, against the direct library call. (warm-hits checked inline.)
  // The references also cover the quality set, sent or not.
  std::vector<Outcome> &Got = Load.Outcomes;
  std::vector<Expected> Reference = std::move(Primed);
  if (W.TheKind != Kind::WarmHits) {
    std::vector<const Request *> Checked;
    for (const Request &R : W.Requests)
      if (Got[R.Index].Received || R.Index < W.QualityPrefix)
        Checked.push_back(&R);
    std::vector<Expected> Want = computeExpected(Checked, Hw, Threads);
    Reference.assign(W.Requests.size(), Expected());
    for (size_t I = 0; I < Checked.size(); ++I) {
      size_t Index = Checked[I]->Index;
      Reference[Index] = Want[I];
      std::string Why;
      if (Got[Index].Received &&
          !matches(Got[Index], Want[I], /*WantCacheHit=*/false, Why))
        T.fail("request " + std::to_string(Index) + ": " + Why);
    }
  }

  // Quality guard over a fixed request set per seed, from the reference
  // answers (equal to the daemon's wherever it answered, checked above),
  // so both repeat exactly.
  double Swaps = 0, LogDepth = 0;
  size_t QualityN = 0;
  for (size_t I = 0; I < W.QualityPrefix && I < Reference.size(); ++I) {
    const Expected &E = Reference[I];
    if (!E.Ok || E.DepthBefore == 0) {
      T.fail("no reference answer for quality request " + std::to_string(I));
      continue;
    }
    Swaps += static_cast<double>(E.Swaps);
    LogDepth += std::log(static_cast<double>(E.DepthAfter) /
                         static_cast<double>(E.DepthBefore));
    ++QualityN;
  }
  if (Load.PoolExhausted)
    T.note("the request pool ran out before the time did");

  json::Value Metrics = json::Value::object();
  std::vector<double> Untraced = latencies(Load, 0);
  if (!A.Trace) {
    std::vector<double> All = latencies(Load, -1);
    std::vector<double> Rates = windowRates(Load);
    Spread RateSpread = spreadOf(Rates);
    Spread Lat = spreadOf(All);
    double Tail = quantile(All, W.TailQuantile);
    Metrics.set("routes_per_s",
                metricRecord(Load.ElapsedS > 0
                                 ? static_cast<double>(All.size()) /
                                       Load.ElapsedS
                                 : 0,
                             "1/s", &RateSpread));
    Metrics.set("latency_ms.p50", metricRecord(Lat.Median, "ms", &Lat));
    json::Value TailRec = metricRecord(Tail, "ms", &Lat);
    TailRec.set("percentile", W.TailQuantile * 100);
    TailRec.set("samples_beyond",
                static_cast<uint64_t>(std::floor(
                    static_cast<double>(All.size()) * (1 - W.TailQuantile))));
    Metrics.set("latency_ms.tail", std::move(TailRec));
    Metrics.set("swaps", metricRecord(Swaps, "count"));
    Metrics.set("depth_ratio",
                metricRecord(QualityN ? std::exp(LogDepth / QualityN) : 0,
                             "ratio"));
    Metrics.set("peak_rss_mb", metricRecord(PeakRss, "MiB"));
    Spread SetupSpread = spreadOf(SetupS);
    Metrics.set("setup_s", metricRecord(SetupSpread.Median, "s", &SetupSpread));
    Notes.set("quality_requests", static_cast<uint64_t>(QualityN));
  } else {
    LayerSamples Layers = replayLayers(W, Hw, "replay.store");
    for (const std::string &E : Layers.Errors)
      T.fail("replay " + E);
    auto Layer = [&](const char *Name) {
      auto It = Layers.Ms.find(Name);
      std::vector<double> Values =
          It == Layers.Ms.end() ? std::vector<double>() : It->second;
      Spread S = spreadOf(Values);
      Metrics.set(Name, metricRecord(S.Median, "ms", &S));
    };
    for (const char *Name :
         {"qasm.parse_ms", "qasm.import_ms", "qasm.print_ms",
          "route.context_ms", "deps.omega_exact_ms", "deps.omega_affine_ms",
          "core.qlosure_route_ms", "baselines.sabre_route_ms",
          "baselines.cirq_route_ms", "baselines.tket_route_ms",
          "route.verify_ms", "service.decode_ms", "service.encode_ms",
          "service.store_append_ms", "service.store_lookup_ms"})
      Layer(Name);
    Metrics.set("qasm.parse_mb_per_s",
                metricRecord(Layers.ParseSeconds > 0
                                 ? Layers.ParsedBytes / 1e6 /
                                       Layers.ParseSeconds
                                 : 0,
                             "MB/s"));
    Metrics.set("deps.omega_inexact",
                metricRecord(static_cast<double>(Layers.OmegaInexact),
                             "count"));
    Notes.set("omega_results", static_cast<uint64_t>(Layers.OmegaResults));

    // Omega computations the daemon ran (ctx_weights spans of traced
    // responses) against those whose mapper reads omega.
    size_t Computed = 0, Used = 0;
    auto CountOmega = [&](const std::vector<Outcome> &List) {
      for (const Request &R : W.Requests) {
        if (R.Index >= List.size() || !List[R.Index].ComputedOmega)
          continue;
        ++Computed;
        Used += R.Mapper == "qlosure" && !R.Affine;
      }
    };
    CountOmega(W.TheKind == Kind::WarmHits ? Priming.Outcomes : Got);
    Metrics.set("deps.omega_used_ratio",
                metricRecord(Computed ? double(Used) / double(Computed) : 0,
                             "ratio"));
    Notes.set("omega_computed", static_cast<uint64_t>(Computed));

    size_t Periods = Layers.ReplayedPeriods + Layers.FallbackPeriods;
    Metrics.set("route.replay_ratio",
                metricRecord(Periods ? double(Layers.ReplayedPeriods) /
                                           double(Periods)
                                     : 0,
                             "ratio"));
    Notes.set("replay_periods", static_cast<uint64_t>(Periods));

    double QueueWaitMs = histogramMeanMs(After, "queue_wait");
    Metrics.set("service.queue_wait_ms", metricRecord(QueueWaitMs, "ms"));
    Metrics.set("service.context_build_ms",
                metricRecord(histogramMeanMs(After, "context_build"), "ms"));
    Metrics.set("service.routing_loop_ms",
                metricRecord(histogramMeanMs(After, "routing_loop"), "ms"));
    Metrics.set("service.result_cache_hit_ratio",
                metricRecord(hitRatio(Before, After, "result_cache"),
                             "ratio"));
    Metrics.set("service.context_cache_hit_ratio",
                metricRecord(hitRatio(Before, After, "context_cache"),
                             "ratio"));

    // Coverage: the layers on this workload's request path (replay means,
    // plus the daemon's own queue wait on routed paths) as a share of the
    // mean client latency of the untraced requests.
    double PathMs = meanOf(Layers.PathMs) +
                    (W.TheKind == Kind::WarmHits ? 0 : QueueWaitMs);
    double ClientMs = meanOf(Untraced);
    Metrics.set("service.unattributed_ms",
                metricRecord(ClientMs - PathMs, "ms"));
    Metrics.set("service.coverage",
                metricRecord(ClientMs > 0 ? PathMs / ClientMs : 0, "ratio"));
    char Line[160];
    std::snprintf(Line, sizeof(Line),
                  "%s: layers cover %.1f%% of %.3f ms mean client latency "
                  "(%.3f ms unattributed)",
                  W.Name.c_str(), ClientMs > 0 ? 100 * PathMs / ClientMs : 0,
                  ClientMs, ClientMs - PathMs);
    Notes.set("coverage_line", Line);

    std::vector<double> TracedLat = latencies(Load, 1);
    double Plain = quantile(Untraced, 0.5);
    double Traced = quantile(TracedLat, 0.5);
    if (TracedLat.empty() || Untraced.empty())
      T.note("no traced/untraced pair of samples; tracing overhead is 0");
    Metrics.set("trace.overhead_pct",
                metricRecord(Plain > 0 && Traced > 0
                                 ? (Traced / Plain - 1) * 100
                                 : 0,
                             "%"));
    Notes.set("traced_samples", static_cast<uint64_t>(TracedLat.size()));
    Notes.set("untraced_samples", static_cast<uint64_t>(Untraced.size()));
    if (!A.SpansPath.empty())
      writeSpans(A.SpansPath, Load.DaemonSpans, Layers.Spans);
  }

  Notes.set("elapsed_s", Load.ElapsedS);
  Notes.set("samples", static_cast<uint64_t>(Load.Samples.size()));
  Notes.set("setup_launches", static_cast<uint64_t>(SetupS.size()));
  json::Value Errors = json::Value::array();
  for (const std::string &E : T.Errors)
    Errors.push(E);

  json::Value Doc = json::Value::object();
  Doc.set("workload", W.Name);
  Doc.set("seed", A.Seed);
  Doc.set("seconds", A.Seconds);
  Doc.set("trace", A.Trace);
  Doc.set("smoke", A.Smoke);
  Doc.set("correct", T.Failed == 0);
  Doc.set("attempted", static_cast<uint64_t>(std::max<size_t>(1, T.Attempted)));
  Doc.set("failed", static_cast<uint64_t>(T.Failed));
  Doc.set("metrics", std::move(Metrics));
  Doc.set("notes", std::move(Notes));
  Doc.set("errors", std::move(Errors));
  std::printf("%s\n", Doc.dump().c_str());
  return 0;
}

} // namespace

int main(int Argc, char **Argv) {
  Args A;
  if (!parseArgs(Argc, Argv, A)) {
    std::fprintf(stderr,
                 "usage: qlbench --workload NAME --seed N --seconds S "
                 "--trace 0|1 --daemon PATH --workdir DIR [--spans FILE] "
                 "[--smoke]\n");
    return 2;
  }
  if (::chdir(A.WorkDir.c_str()) != 0) {
    std::fprintf(stderr, "qlbench: cannot enter %s: %s\n", A.WorkDir.c_str(),
                 std::strerror(errno));
    return 2;
  }
  return run(A);
}
