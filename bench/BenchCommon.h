//===- bench/BenchCommon.h - Shared benchmark plumbing ------------*- C++ -*-===//
//
// Part of the Qlosure project. Distributed under the MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Helpers shared by the table/figure reproduction binaries: command-line
/// scaling flags, the five-mapper lineup, and rendering of medium/large
/// summary tables with the paper's reference values alongside.
///
//===----------------------------------------------------------------------===//

#ifndef QLOSURE_BENCH_BENCHCOMMON_H
#define QLOSURE_BENCH_BENCHCOMMON_H

#include "eval/Harness.h"
#include "route/Router.h"

#include <map>
#include <memory>
#include <string>
#include <vector>

namespace qlosure {
namespace bench {

/// Scaling knobs common to all reproduction binaries.
struct BenchConfig {
  /// --full: paper-scale sweeps (slower); default is a scaled-down grid
  /// that preserves every axis of the experiment.
  bool Full = false;
  /// --seed N: base RNG seed for workload generation.
  uint64_t Seed = 2026;
  /// --no-verify: skip routing verification (it is cheap; on by default).
  bool Verify = true;
  /// --affine: exercise the affine replay fast path where the binary
  /// supports it (bench_kernel_throughput appends a replay-vs-scalar
  /// section; binaries without an affine mode accept and ignore it).
  bool Affine = false;
  /// --fleet N: boot N daemons behind a consistent-hash shard router and
  /// append a fleet-throughput section (bench_service_throughput; other
  /// binaries accept and ignore the flag). 0 disables the fleet tier.
  unsigned Fleet = 0;
  /// --reps N: timed repetitions (bench_kernel_throughput reports the
  /// median and IQR over them; other binaries accept and ignore it).
  unsigned Reps = 1;
  /// --threads N: BatchRunner workers (0 = hardware concurrency).
  /// Results are identical for every thread count, except where QMAP's
  /// wall-clock budget trips under load (see BatchRunner.h). Benches
  /// whose inner loop is inherently serial (the ablation and error-aware
  /// studies) accept but ignore the flag.
  unsigned Threads = 0;
};

/// Parses argv (exits with a usage message on unknown flags).
BenchConfig parseArgs(int Argc, char **Argv);

/// The paper's five mappers in table order (SABRE, QMAP, Cirq, Pytket,
/// Qlosure). \p QmapBudgetSeconds bounds the QMAP A* wall clock so that
/// oversized inputs record a timeout, as in the paper.
std::vector<std::unique_ptr<Router>>
makePaperMappers(double QmapBudgetSeconds);

/// QUEKO depth grids: medium (< 550) and large (>= 550) per the paper's
/// grouping. Scaled-down by default; --full widens toward paper scale.
std::vector<unsigned> quekoDepths(const BenchConfig &Config);

/// Renders one medium/large summary table. \p Reference optionally maps
/// mapper name -> (medium, large) paper values printed alongside; pass an
/// empty map to omit. \p Fmt controls numeric formatting (e.g. "%.2f").
void printMediumLargeTable(
    const std::string &Title,
    const std::map<std::string, MediumLargeSummary> &Summary,
    const std::map<std::string, std::pair<double, double>> &Reference,
    const char *Fmt = "%.2f");

/// Prints a one-line banner with the binary name and configuration.
void printBanner(const std::string &Name, const BenchConfig &Config);

/// One backend column of the paper's QUEKO tables: QUEKO sets generated on
/// \p GenNames are routed onto \p BackendName by all five mappers.
struct QuekoGridSpec {
  std::string BackendName;
  std::vector<std::string> GenNames;
  std::vector<unsigned> Depths;
  unsigned CircuitsPerDepth = 1;
  double QmapBudgetSeconds = 60.0;
};

/// Runs one grid and returns all records.
std::vector<RunRecord> runQuekoGrid(const QuekoGridSpec &Spec,
                                    const BenchConfig &Config);

/// The paper's three backend columns (Sherbrooke / Ankaa-3 / Sherbrooke-2X
/// with their respective generation devices), sized per \p Config.
std::vector<QuekoGridSpec> paperQuekoGrids(const BenchConfig &Config);

} // namespace bench
} // namespace qlosure

#endif // QLOSURE_BENCH_BENCHCOMMON_H
