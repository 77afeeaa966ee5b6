//===- bench/BenchCommon.cpp - Shared benchmark plumbing --------------------------===//
//
// Part of the Qlosure project. Distributed under the MIT license.
//
//===----------------------------------------------------------------------===//

#include "bench/BenchCommon.h"

#include "baselines/CirqGreedy.h"
#include "baselines/QmapAstar.h"
#include "baselines/Sabre.h"
#include "baselines/TketBounded.h"
#include "core/Qlosure.h"
#include "support/StringUtils.h"
#include "topology/Backends.h"
#include "support/Table.h"

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <cstring>

using namespace qlosure;
using namespace qlosure::bench;

BenchConfig qlosure::bench::parseArgs(int Argc, char **Argv) {
  BenchConfig Config;
  for (int I = 1; I < Argc; ++I) {
    if (std::strcmp(Argv[I], "--full") == 0) {
      Config.Full = true;
    } else if (std::strcmp(Argv[I], "--no-verify") == 0) {
      Config.Verify = false;
    } else if (std::strcmp(Argv[I], "--affine") == 0) {
      Config.Affine = true;
    } else if (std::strcmp(Argv[I], "--seed") == 0 && I + 1 < Argc) {
      Config.Seed = std::strtoull(Argv[++I], nullptr, 10);
    } else if (std::strcmp(Argv[I], "--threads") == 0 && I + 1 < Argc) {
      Config.Threads =
          static_cast<unsigned>(std::strtoul(Argv[++I], nullptr, 10));
    } else if (std::strcmp(Argv[I], "--reps") == 0 && I + 1 < Argc) {
      Config.Reps = std::max(
          1u, static_cast<unsigned>(std::strtoul(Argv[++I], nullptr, 10)));
    } else if (std::strcmp(Argv[I], "--fleet") == 0 && I + 1 < Argc) {
      Config.Fleet =
          static_cast<unsigned>(std::strtoul(Argv[++I], nullptr, 10));
    } else if (std::strncmp(Argv[I], "--benchmark", 11) == 0) {
      // Tolerate google-benchmark style flags so "for b in bench/*" loops
      // can pass uniform arguments.
    } else {
      std::fprintf(stderr,
                   "usage: %s [--full] [--seed N] [--no-verify] "
                   "[--affine] [--reps N] [--threads N] [--fleet N]\n",
                   Argv[0]);
      std::exit(2);
    }
  }
  return Config;
}

std::vector<std::unique_ptr<Router>>
qlosure::bench::makePaperMappers(double QmapBudgetSeconds) {
  std::vector<std::unique_ptr<Router>> Mappers;
  Mappers.push_back(std::make_unique<SabreRouter>());
  QmapOptions Qmap;
  Qmap.TimeBudgetSeconds = QmapBudgetSeconds;
  Mappers.push_back(std::make_unique<QmapAstarRouter>(Qmap));
  Mappers.push_back(std::make_unique<CirqGreedyRouter>());
  Mappers.push_back(std::make_unique<TketBoundedRouter>());
  Mappers.push_back(std::make_unique<QlosureRouter>());
  return Mappers;
}

std::vector<unsigned>
qlosure::bench::quekoDepths(const BenchConfig &Config) {
  if (Config.Full)
    return {100, 200, 300, 400, 500, 600, 700, 800, 900};
  return {100, 200, 600};
}

void qlosure::bench::printMediumLargeTable(
    const std::string &Title,
    const std::map<std::string, MediumLargeSummary> &Summary,
    const std::map<std::string, std::pair<double, double>> &Reference,
    const char *Fmt) {
  std::printf("\n%s\n", Title.c_str());
  std::vector<std::string> Header{"Mapper", "Medium", "Large"};
  if (!Reference.empty()) {
    Header.push_back("Paper Medium");
    Header.push_back("Paper Large");
  }
  Table T(Header);
  // Paper row order.
  const char *Order[] = {"SABRE", "QMAP", "Cirq", "Pytket", "Qlosure"};
  auto cell = [Fmt](double V, bool TimedOut) {
    if (TimedOut && V == 0)
      return std::string("timeout");
    std::string Out = formatString(Fmt, V);
    if (TimedOut)
      Out += "*";
    return Out;
  };
  for (const char *Mapper : Order) {
    auto It = Summary.find(Mapper);
    if (It == Summary.end())
      continue;
    std::vector<std::string> Row{
        Mapper, cell(It->second.Medium, It->second.MediumTimedOut),
        cell(It->second.Large, It->second.LargeTimedOut)};
    if (!Reference.empty()) {
      auto RefIt = Reference.find(Mapper);
      if (RefIt != Reference.end()) {
        Row.push_back(formatString(Fmt, RefIt->second.first));
        Row.push_back(formatString(Fmt, RefIt->second.second));
      } else {
        Row.push_back("-");
        Row.push_back("-");
      }
    }
    T.addRow(std::move(Row));
  }
  std::fputs(T.render().c_str(), stdout);
  if (!Reference.empty())
    std::printf("(* = some instances hit the mapper's time budget and were "
                "excluded from the average)\n");
}

std::vector<RunRecord>
qlosure::bench::runQuekoGrid(const QuekoGridSpec &Spec,
                             const BenchConfig &Config) {
  CouplingGraph Backend = makeBackendByName(Spec.BackendName);
  auto Mappers = makePaperMappers(Spec.QmapBudgetSeconds);
  std::vector<Router *> MapperPtrs;
  for (auto &M : Mappers)
    MapperPtrs.push_back(M.get());

  std::vector<RunRecord> Records;
  for (const std::string &GenName : Spec.GenNames) {
    CouplingGraph Gen = makeBackendByName(GenName);
    QuekoSweepConfig Sweep;
    Sweep.Depths = Spec.Depths;
    Sweep.CircuitsPerDepth = Spec.CircuitsPerDepth;
    Sweep.SeedBase = Config.Seed;
    Sweep.Eval.Verify = Config.Verify;
    Sweep.Threads = Config.Threads;
    auto Batch = runQuekoSweep(Gen, Backend, MapperPtrs, Sweep);
    Records.insert(Records.end(), Batch.begin(), Batch.end());
  }
  return Records;
}

std::vector<QuekoGridSpec>
qlosure::bench::paperQuekoGrids(const BenchConfig &Config) {
  std::vector<unsigned> Depths = quekoDepths(Config);
  std::vector<QuekoGridSpec> Grids;
  Grids.push_back({"sherbrooke",
                   {"aspen16", "sycamore54", "kings9x9"},
                   Depths,
                   Config.Full ? 2u : 1u,
                   60.0});
  Grids.push_back({"ankaa3",
                   {"aspen16", "sycamore54", "kings9x9"},
                   Depths,
                   Config.Full ? 2u : 1u,
                   60.0});
  // Sherbrooke-2X receives the 16x16 king's-graph circuits; QMAP's budget
  // is deliberately modest so the oversized device records the paper's
  // timeout behaviour.
  Grids.push_back({"sherbrooke2x",
                   {"kings16x16"},
                   Config.Full ? Depths : std::vector<unsigned>{100, 600},
                   1u,
                   20.0});
  return Grids;
}

void qlosure::bench::printBanner(const std::string &Name,
                                 const BenchConfig &Config) {
  std::printf("==================================================\n");
  std::printf("%s  [%s sweep, seed=%llu, verify=%s]\n", Name.c_str(),
              Config.Full ? "full" : "scaled-down",
              static_cast<unsigned long long>(Config.Seed),
              Config.Verify ? "on" : "off");
  std::printf("==================================================\n");
}
