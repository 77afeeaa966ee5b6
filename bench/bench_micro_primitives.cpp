//===- bench/bench_micro_primitives.cpp - google-benchmark microbenches -----------===//
//
// Part of the Qlosure project. Distributed under the MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// google-benchmark microbenchmarks for the library's primitives: APSP,
/// DAG construction, the two omega engines, affine lifting, the symbolic
/// transitive closure, end-to-end routing of a mid-size circuit, and the
/// OpenQASM front end (import and print of a 122 KB QUEKO text, and a
/// small program whose nested gate definitions expand to 2^20 gates). These
/// back the performance claims in EXPERIMENTS.md with reproducible
/// numbers (run with --benchmark_filter=... as usual).
///
//===----------------------------------------------------------------------===//

#include "affine/Lifter.h"
#include "circuit/Dag.h"
#include "core/Qlosure.h"
#include "deps/TransitiveWeights.h"
#include "presburger/TransitiveClosure.h"
#include "qasm/Importer.h"
#include "qasm/Printer.h"
#include "topology/Backends.h"
#include "workloads/QasmBench.h"
#include "workloads/Queko.h"

#include <benchmark/benchmark.h>

using namespace qlosure;
using namespace qlosure::presburger;

static Circuit mediumQueko() {
  QuekoSpec Spec;
  Spec.Depth = 100;
  Spec.Seed = 7;
  return generateQueko(makeSycamore54(), Spec).Circ;
}

static void BM_ApspSherbrooke(benchmark::State &State) {
  for (auto _ : State) {
    CouplingGraph G = makeSherbrooke();
    benchmark::DoNotOptimize(G.distance(0, 126));
  }
}
BENCHMARK(BM_ApspSherbrooke);

static void BM_DagBuild(benchmark::State &State) {
  Circuit C = mediumQueko();
  for (auto _ : State) {
    CircuitDag Dag(C);
    benchmark::DoNotOptimize(Dag.numGates());
  }
  State.SetItemsProcessed(State.iterations() *
                          static_cast<int64_t>(C.size()));
}
BENCHMARK(BM_DagBuild);

static void BM_OmegaExact(benchmark::State &State) {
  Circuit C = mediumQueko();
  WeightOptions Opts;
  Opts.Engine = WeightEngine::Exact;
  for (auto _ : State) {
    WeightResult R = computeDependenceWeights(C, Opts);
    benchmark::DoNotOptimize(R.Weights.data());
  }
  State.SetItemsProcessed(State.iterations() *
                          static_cast<int64_t>(C.size()));
}
BENCHMARK(BM_OmegaExact);

static void BM_OmegaAffine(benchmark::State &State) {
  Circuit C = mediumQueko();
  WeightOptions Opts;
  Opts.Engine = WeightEngine::Affine;
  for (auto _ : State) {
    WeightResult R = computeDependenceWeights(C, Opts);
    benchmark::DoNotOptimize(R.Weights.data());
  }
  State.SetItemsProcessed(State.iterations() *
                          static_cast<int64_t>(C.size()));
}
BENCHMARK(BM_OmegaAffine);

static void BM_AffineLift(benchmark::State &State) {
  Circuit C = mediumQueko();
  for (auto _ : State) {
    AffineCircuit AC = liftCircuit(C);
    benchmark::DoNotOptimize(AC.numStatements());
  }
  State.SetItemsProcessed(State.iterations() *
                          static_cast<int64_t>(C.size()));
}
BENCHMARK(BM_AffineLift);

static void BM_TranslationClosure(benchmark::State &State) {
  BasicSet Dom(1);
  Dom.addBounds(0, 0, 9999);
  IntegerMap R(BasicMap::translation(Dom, {3}));
  ClosureOptions Opts;
  Opts.AllowFiniteFallback = false;
  for (auto _ : State) {
    ClosureResult C = transitiveClosure(R, Opts);
    benchmark::DoNotOptimize(C.IsExact);
  }
}
BENCHMARK(BM_TranslationClosure);

static void BM_RouteQlosureQft(benchmark::State &State) {
  Circuit C = makeQft(static_cast<unsigned>(State.range(0)));
  CouplingGraph Hw = makeSherbrooke();
  QlosureRouter Router;
  // Context built once outside the loop: iterations measure pure routing,
  // with DAG/distances/omega reused from the shared precomputation.
  RoutingContext Ctx = RoutingContext::build(C, Hw, Router.contextOptions());
  for (auto _ : State) {
    RoutingResult R = Router.routeWithIdentity(Ctx);
    benchmark::DoNotOptimize(R.NumSwaps);
  }
  State.SetItemsProcessed(State.iterations() *
                          static_cast<int64_t>(C.size()));
}
BENCHMARK(BM_RouteQlosureQft)->Arg(16)->Arg(32)->Arg(63);

/// printQasm of the depth-500 Sycamore54 QUEKO circuit (seed 1): 122 KB.
static std::string quekoText() {
  QuekoSpec Spec;
  Spec.Depth = 500;
  Spec.Seed = 1;
  return qasm::printQasm(generateQueko(makeSycamore54(), Spec).Circ);
}

static void BM_ImportQasmQueko(benchmark::State &State) {
  const std::string Text = quekoText();
  for (auto _ : State) {
    qasm::ImportResult R = qasm::importQasm(Text);
    benchmark::DoNotOptimize(R.Circ->size());
  }
  State.SetBytesProcessed(State.iterations() *
                          static_cast<int64_t>(Text.size()));
}
BENCHMARK(BM_ImportQasmQueko);

static void BM_PrintQasmQueko(benchmark::State &State) {
  const Circuit C = *qasm::importQasm(quekoText()).Circ;
  for (auto _ : State) {
    std::string Text = qasm::printQasm(C);
    benchmark::DoNotOptimize(Text.data());
  }
  State.SetItemsProcessed(State.iterations() *
                          static_cast<int64_t>(C.size()));
}
BENCHMARK(BM_PrintQasmQueko);

/// 20 nested definitions, each calling the previous twice: 2^20 gates
/// from under 600 bytes, the gate-expansion path.
static void BM_ImportQasmDoubling(benchmark::State &State) {
  std::string Text = "qreg q[1];\ngate g0 a { h a; }\n";
  for (int I = 1; I <= 20; ++I)
    Text += "gate g" + std::to_string(I) + " a { g" + std::to_string(I - 1) +
            " a; g" + std::to_string(I - 1) + " a; }\n";
  Text += "g20 q[0];\n";
  for (auto _ : State) {
    qasm::ImportResult R = qasm::importQasm(Text);
    benchmark::DoNotOptimize(R.Circ->size());
  }
  State.SetItemsProcessed(State.iterations() * (int64_t(1) << 20));
}
BENCHMARK(BM_ImportQasmDoubling)->Unit(benchmark::kMillisecond);

BENCHMARK_MAIN();
