//===- bench/bench_kernel_throughput.cpp - Routing kernel throughput ------------===//
//
// Part of the Qlosure project. Distributed under the MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Throughput of the five routing kernels: every QUEKO 54-qbt depth-500
/// instance (generated on sycamore54, routed on sherbrooke) is routed once
/// per mapper and repetition through one reused RoutingScratch, and the
/// bench reports swaps/sec and gates/sec per mapper. --reps N repeats the
/// whole sweep N times, interleaving the mappers within each repetition,
/// and reports the median and IQR of each mapper's per-sweep kernel time
/// plus the host it ran on. Every routed circuit is checked with
/// verifyRouting unless --no-verify is given. Byte identity of the
/// kernels is not checked here: tests/KernelGoldenTest.cpp pins every
/// mapper's output on this sweep with committed golden digests.
///
/// With --affine the bench additionally routes a structured loop workload
/// (QFT-like kernel) twice through the qlosure mapper — scalar unweighted
/// profile vs. the affine replay fast path over a warmed plan cache — and
/// appends an "affine_replay" section (speedup ratio, identity flag,
/// replay coverage) to the JSON document. The default run is unchanged.
///
/// Results are also written to BENCH_kernel.json in the working directory.
/// JSON schema (one object):
///   {
///     "bench": "kernel_throughput",
///     "workload": "queko-54qbt-d500",   // generation set + pinned depth
///     "gen_device": "sycamore54",
///     "backend": "sherbrooke",
///     "instances": <int>,               // circuits routed per sweep
///     "reps": <int>,                    // timed sweeps per mapper
///     "host": { "cpu": <string>, "nproc": <int>, "build_type": <string> },
///     "verify": <string>,               // "passed" | "failed" | "skipped"
///     "mappers": [
///       { "name": <string>,            // mapper display name
///         "swaps": <int>,               // inserted swaps per sweep
///         "routed_gates": <int>,        // routed gates incl. swaps, per sweep
///         "kernel_seconds": <float>,    // median routing wall clock per sweep
///         "kernel_seconds_q1": <float>, // quartiles over the reps (the
///         "kernel_seconds_q3": <float>, //   method perfbench uses)
///         "kernel_seconds_iqr": <float>,
///         "kernel_swaps_per_sec": <float>,  // from the median
///         "kernel_gates_per_sec": <float> }, ... ],
///     "affine_replay": {                  // only with --affine
///       "workload": <string>,
///       "backend": <string>,
///       "all_identical": <bool>,          // replay == scalar, gate for gate
///       "scalar_seconds": <float>,
///       "affine_seconds": <float>,        // warm plan cache
///       "speedup": <float>,               // scalar_seconds / affine_seconds
///       "replayed_periods": <int>,
///       "fallback_periods": <int> }
///   }
///
/// --threads is accepted for flag uniformity but ignored: the bench times
/// the single-thread kernel that each BatchRunner worker runs. Routing
/// many circuits in parallel is bench_batch_throughput's job.
///
//===----------------------------------------------------------------------===//

#include "bench/BenchCommon.h"
#include "baselines/CirqGreedy.h"
#include "baselines/QmapAstar.h"
#include "baselines/Sabre.h"
#include "baselines/TketBounded.h"
#include "core/Qlosure.h"
#include "route/Verify.h"
#include "support/StringUtils.h"
#include "support/Table.h"
#include "support/Timer.h"
#include "topology/Backends.h"
#include "workloads/Queko.h"
#include "workloads/Structured.h"

#include <sched.h>

#include <algorithm>
#include <array>
#include <cstdio>
#include <fstream>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#ifndef QLOSURE_BUILD_TYPE
#define QLOSURE_BUILD_TYPE ""
#endif

using namespace qlosure;
using namespace qlosure::bench;

namespace {

/// Gate-for-gate equality of two routing results.
bool resultsIdentical(const RoutingResult &A, const RoutingResult &B,
                      std::string &Why) {
  if (A.NumSwaps != B.NumSwaps) {
    Why = formatString("swap counts differ (%zu vs %zu)", A.NumSwaps,
                       B.NumSwaps);
    return false;
  }
  if (A.Routed.size() != B.Routed.size()) {
    Why = formatString("routed sizes differ (%zu vs %zu)", A.Routed.size(),
                       B.Routed.size());
    return false;
  }
  for (size_t I = 0; I < A.Routed.size(); ++I) {
    const Gate &GA = A.Routed.gate(I);
    const Gate &GB = B.Routed.gate(I);
    if (GA.Kind != GB.Kind || GA.Qubits != GB.Qubits ||
        GA.Params != GB.Params) {
      Why = formatString("gate %zu differs (%s vs %s)", I,
                         GA.toString().c_str(), GB.toString().c_str());
      return false;
    }
  }
  if (A.InsertedSwapFlags != B.InsertedSwapFlags) {
    Why = "inserted-swap flags differ";
    return false;
  }
  if (!(A.FinalMapping == B.FinalMapping)) {
    Why = "final mappings differ";
    return false;
  }
  return true;
}

struct MapperRow {
  std::string Name;
  size_t Swaps = 0;       ///< Per sweep (routing is deterministic).
  size_t RoutedGates = 0; ///< Per sweep.
  std::vector<double> SweepSeconds; ///< One entry per repetition.
};

/// {q1, median, q3} of \p V, computed like Python's
/// statistics.quantiles(V, n=4) (the "exclusive" method perfbench uses).
std::array<double, 3> quartiles(std::vector<double> V) {
  std::sort(V.begin(), V.end());
  const long N = static_cast<long>(V.size());
  if (N < 2)
    return {V[0], V[0], V[0]};
  std::array<double, 3> Q{};
  for (long I = 1; I <= 3; ++I) {
    const long J = std::clamp(I * (N + 1) / 4, 1L, N - 1);
    const long Delta = I * (N + 1) - J * 4;
    Q[static_cast<size_t>(I - 1)] =
        (V[static_cast<size_t>(J - 1)] * static_cast<double>(4 - Delta) +
         V[static_cast<size_t>(J)] * static_cast<double>(Delta)) /
        4.0;
  }
  return Q;
}

/// CPU model (from /proc/cpuinfo) and usable cores; the build type is
/// QLOSURE_BUILD_TYPE, which CMake defines for this bench.
struct HostInfo {
  std::string Cpu;
  unsigned NumProcs = 0;
};

HostInfo hostInfo() {
  HostInfo Host;
  std::ifstream CpuInfo("/proc/cpuinfo");
  for (std::string Line; std::getline(CpuInfo, Line);)
    if (Line.rfind("model name", 0) == 0) {
      size_t Colon = Line.find(':');
      Host.Cpu = trimString(Line.substr(Colon == std::string::npos ? 0 : Colon + 1));
      break;
    }
  cpu_set_t Set;
  Host.NumProcs = sched_getaffinity(0, sizeof(Set), &Set) == 0
                      ? static_cast<unsigned>(CPU_COUNT(&Set))
                      : std::thread::hardware_concurrency();
  return Host;
}

/// The five kernel mappers with default options, except that QMAP's
/// wall-clock budget is effectively unlimited so its decisions do not
/// depend on machine load.
std::vector<std::unique_ptr<Router>> makeKernelMappers() {
  std::vector<std::unique_ptr<Router>> Mappers;
  Mappers.push_back(std::make_unique<QlosureRouter>());
  Mappers.push_back(std::make_unique<SabreRouter>());
  QmapOptions Qmap;
  Qmap.TimeBudgetSeconds = 1e9;
  Mappers.push_back(std::make_unique<QmapAstarRouter>(Qmap));
  Mappers.push_back(std::make_unique<CirqGreedyRouter>());
  Mappers.push_back(std::make_unique<TketBoundedRouter>());
  return Mappers;
}

} // namespace

int main(int Argc, char **Argv) {
  BenchConfig Config = parseArgs(Argc, Argv);
  printBanner("Kernel throughput (RoutingScratch)", Config);

  const unsigned Depth = 500;
  const unsigned NumInstances = Config.Full ? 3 : 1;

  CouplingGraph Gen = makeSycamore54();
  CouplingGraph Backend = makeBackendByName("sherbrooke");

  std::vector<QuekoInstance> Instances;
  for (unsigned I = 0; I < NumInstances; ++I) {
    QuekoSpec Spec;
    Spec.Depth = Depth;
    Spec.Seed = Config.Seed + I;
    QuekoInstance Inst = generateQueko(Gen, Spec);
    Inst.Circ.setName(formatString("queko-54qbt-d%u-i%u", Depth, I));
    Instances.push_back(std::move(Inst));
  }

  std::vector<RoutingContext> Contexts;
  Contexts.reserve(Instances.size());
  for (const QuekoInstance &Inst : Instances)
    Contexts.push_back(RoutingContext::build(Inst.Circ, Backend));
  // Warm the lazily memoized omega weights so the timed runs measure
  // routing, not first-touch context effects.
  for (const RoutingContext &Ctx : Contexts)
    Ctx.dependenceWeights();

  bool AllValid = true;

  // One scratch reused across every run of every mapper — the deployment
  // shape (BatchRunner gives each worker thread exactly one).
  RoutingScratch Scratch;

  // Repetition-major: every repetition times each mapper once, so host
  // drift during the run lands on all mappers alike.
  std::vector<std::unique_ptr<Router>> Kernels = makeKernelMappers();
  std::vector<MapperRow> Rows(Kernels.size());
  for (unsigned Rep = 0; Rep < Config.Reps; ++Rep)
    for (size_t M = 0; M < Kernels.size(); ++M) {
      MapperRow &Row = Rows[M];
      Row.Name = Kernels[M]->name();
      Row.Swaps = Row.RoutedGates = 0;
      double Seconds = 0;
      for (size_t I = 0; I < Instances.size(); ++I) {
        const RoutingContext &Ctx = Contexts[I];
        Timer KernelClock;
        RoutingResult Result = Kernels[M]->routeWithIdentity(Ctx, Scratch);
        Seconds += KernelClock.elapsedSeconds();
        if (Config.Verify) {
          VerifyResult V =
              verifyRouting(Ctx.circuit(), Ctx.hardware(), Result);
          if (!V.Ok) {
            AllValid = false;
            std::fprintf(stderr, "error: %s routing of %s invalid: %s\n",
                         Row.Name.c_str(), Instances[I].Circ.name().c_str(),
                         V.Message.c_str());
          }
        }
        Row.Swaps += Result.NumSwaps;
        Row.RoutedGates += Result.Routed.size();
      }
      Row.SweepSeconds.push_back(Seconds);
    }

  const HostInfo Host = hostInfo();
  std::printf("host: %s, nproc=%u, build=%s, reps=%u\n", Host.Cpu.c_str(),
              Host.NumProcs, QLOSURE_BUILD_TYPE, Config.Reps);
  Table T({"Mapper", "Swaps", "Median s", "IQR s", "Swaps/s", "Gates/s"});
  for (const MapperRow &Row : Rows) {
    auto [Q1, Median, Q3] = quartiles(Row.SweepSeconds);
    T.addRow({Row.Name, formatString("%zu", Row.Swaps),
              formatString("%.4f", Median), formatString("%.4f", Q3 - Q1),
              formatString("%.0f", static_cast<double>(Row.Swaps) / Median),
              formatString("%.0f",
                           static_cast<double>(Row.RoutedGates) / Median)});
  }
  std::fputs(T.render().c_str(), stdout);
  const char *VerifyStatus =
      !Config.Verify ? "skipped" : (AllValid ? "passed" : "failed");
  std::printf("verify: %s\n", VerifyStatus);

  // --affine: scalar vs. replay on a structured loop workload, same
  // context, same scratch, warm plan cache. Byte-identity is the bar.
  bool AffineIdentical = true;
  double AffineScalarSeconds = 0;
  double AffineFastSeconds = 0;
  size_t AffineReplayed = 0;
  size_t AffineFallbacks = 0;
  Circuit AffineLoop = qftLikeKernel(16, Config.Full ? 200 : 60);
  CouplingGraph AffineBackend = makeBackendByName("aspen16");
  if (Config.Affine) {
    RoutingContext Ctx = RoutingContext::build(AffineLoop, AffineBackend);
    QlosureOptions ScalarOpts;
    ScalarOpts.UseDependencyWeights = false;
    ScalarOpts.Seed = Config.Seed;
    QlosureOptions FastOpts = ScalarOpts;
    FastOpts.AffineReplay = true;
    QlosureRouter ScalarRouter(ScalarOpts);
    QlosureRouter FastRouter(FastOpts);

    // Warm-up pass records the period's swap schedule into the context's
    // plan cache; the timed pass below replays it.
    FastRouter.routeWithIdentity(Ctx, Scratch);

    const unsigned Reps = 3;
    RoutingResult ScalarResult, FastResult;
    for (unsigned R = 0; R < Reps; ++R) {
      Timer ScalarClock;
      ScalarResult = ScalarRouter.routeWithIdentity(Ctx, Scratch);
      AffineScalarSeconds += ScalarClock.elapsedSeconds();
      Timer FastClock;
      FastResult = FastRouter.routeWithIdentity(Ctx, Scratch);
      AffineFastSeconds += FastClock.elapsedSeconds();
      AffineReplayed += FastResult.AffineReplayedPeriods;
      AffineFallbacks += FastResult.AffineFallbackPeriods;
      std::string Why;
      if (!resultsIdentical(ScalarResult, FastResult, Why)) {
        AffineIdentical = false;
        std::fprintf(stderr, "error: affine replay diverges on %s: %s\n",
                     AffineLoop.name().c_str(), Why.c_str());
      }
    }
    double AffineSpeedup = AffineFastSeconds > 0
                               ? AffineScalarSeconds / AffineFastSeconds
                               : 0;
    std::printf("\nAffine replay (%s on aspen16): identical=%s "
                "scalar=%.3fs affine=%.3fs speedup=%.2fx "
                "replayed=%zu fallbacks=%zu\n",
                AffineLoop.name().c_str(), AffineIdentical ? "yes" : "NO",
                AffineScalarSeconds, AffineFastSeconds, AffineSpeedup,
                AffineReplayed, AffineFallbacks);
  }

  // See the file header for the JSON schema.
  {
    FILE *F = std::fopen("BENCH_kernel.json", "w");
    if (!F) {
      std::fprintf(stderr, "error: cannot write BENCH_kernel.json\n");
      return 1;
    }
    std::fprintf(F,
                 "{\n"
                 "  \"bench\": \"kernel_throughput\",\n"
                 "  \"workload\": \"queko-54qbt-d%u\",\n"
                 "  \"gen_device\": \"sycamore54\",\n"
                 "  \"backend\": \"sherbrooke\",\n"
                 "  \"instances\": %u,\n"
                 "  \"reps\": %u,\n"
                 "  \"host\": { \"cpu\": \"%s\", \"nproc\": %u, "
                 "\"build_type\": \"%s\" },\n"
                 "  \"verify\": \"%s\",\n"
                 "  \"mappers\": [\n",
                 Depth, NumInstances, Config.Reps, Host.Cpu.c_str(),
                 Host.NumProcs, QLOSURE_BUILD_TYPE, VerifyStatus);
    for (size_t I = 0; I < Rows.size(); ++I) {
      const MapperRow &Row = Rows[I];
      auto [Q1, Median, Q3] = quartiles(Row.SweepSeconds);
      std::fprintf(
          F,
          "    { \"name\": \"%s\", \"swaps\": %zu, \"routed_gates\": %zu,\n"
          "      \"kernel_seconds\": %.6f,\n"
          "      \"kernel_seconds_q1\": %.6f,\n"
          "      \"kernel_seconds_q3\": %.6f,\n"
          "      \"kernel_seconds_iqr\": %.6f,\n"
          "      \"kernel_swaps_per_sec\": %.1f,\n"
          "      \"kernel_gates_per_sec\": %.1f }%s\n",
          Row.Name.c_str(), Row.Swaps, Row.RoutedGates, Median, Q1, Q3,
          Q3 - Q1, static_cast<double>(Row.Swaps) / Median,
          static_cast<double>(Row.RoutedGates) / Median,
          I + 1 < Rows.size() ? "," : "");
    }
    std::fprintf(F, "  ]%s\n", Config.Affine ? "," : "");
    if (Config.Affine) {
      std::fprintf(
          F,
          "  \"affine_replay\": {\n"
          "    \"workload\": \"%s\",\n"
          "    \"backend\": \"aspen16\",\n"
          "    \"all_identical\": %s,\n"
          "    \"scalar_seconds\": %.6f,\n"
          "    \"affine_seconds\": %.6f,\n"
          "    \"speedup\": %.3f,\n"
          "    \"replayed_periods\": %zu,\n"
          "    \"fallback_periods\": %zu }\n"
          "}\n",
          AffineLoop.name().c_str(), AffineIdentical ? "true" : "false",
          AffineScalarSeconds, AffineFastSeconds,
          AffineFastSeconds > 0 ? AffineScalarSeconds / AffineFastSeconds
                                : 0,
          AffineReplayed, AffineFallbacks);
    } else {
      std::fprintf(F, "}\n");
    }
    std::fclose(F);
    std::printf("wrote BENCH_kernel.json\n");
  }

  return AllValid && AffineIdentical ? 0 : 1;
}
