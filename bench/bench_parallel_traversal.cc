// Experiment E16: speedup of the parallel §III fold
// (TraverseParallelGoverned under an unlimited ExecContext) over the
// sequential one, as a function of pool width, on a 100k-edge
// Barabási–Albert graph (heavy-tailed — the case work-stealing exists for)
// and a Watts–Strogatz graph (uniform degrees — the embarrassing-parallel
// best case). BM_ParallelGovernedFold repeats the Barabási–Albert rows
// with the --trace registry attached, for the span breakdown.
//
// Run: build/bench/bench_parallel_traversal --benchmark_min_time=1
// Results are recorded in EXPERIMENTS.md (E16). Wall-clock speedup is
// meaningful only on a machine with that many physical cores; the
// differential tests, not this bench, are the correctness story.

#include <benchmark/benchmark.h>

#include <cstddef>
#include <vector>

#include "bench/bench_common.h"
#include "core/edge_pattern.h"
#include "core/traversal.h"
#include "generators/generators.h"
#include "graph/multi_graph.h"
#include "util/exec_context.h"
#include "util/thread_pool.h"

namespace mrpa {
namespace {

// ≈ 100k edges: 34k vertices × 3 edges each, preferential attachment.
const MultiRelationalGraph& HeavyTailGraph() {
  static const MultiRelationalGraph* graph =
      new MultiRelationalGraph(bench::MakeBaGraph(34'000, 4, 3, /*seed=*/42));
  return *graph;
}

const MultiRelationalGraph& UniformGraph() {
  static const MultiRelationalGraph* graph = [] {
    auto g = GenerateWattsStrogatz({.num_vertices = 25'000,
                                    .num_labels = 4,
                                    .neighbors_each_side = 2,
                                    .rewire_prob = 0.1,
                                    .seed = 42});
    return new MultiRelationalGraph(std::move(g).value());
  }();
  return *graph;
}

// A label-restricted 3-step chain: selective enough to keep the result set
// in the hundreds of thousands, deep enough that level expansion (not the
// seed scan) dominates.
TraversalSpec LabeledChain() {
  TraversalSpec spec;
  spec.steps = {EdgePattern::Labeled(0), EdgePattern::Any(),
                EdgePattern::Labeled(1)};
  return spec;
}

void BM_SequentialFold(benchmark::State& state) {
  const MultiRelationalGraph& graph =
      state.range(0) == 0 ? HeavyTailGraph() : UniformGraph();
  const TraversalSpec spec = LabeledChain();
  size_t paths = 0;
  for (auto _ : state) {
    Result<PathSet> result = Traverse(graph, spec);
    paths = result.ok() ? result->size() : 0;
    benchmark::DoNotOptimize(result);
  }
  state.counters["paths"] = static_cast<double>(paths);
}
BENCHMARK(BM_SequentialFold)
    ->Arg(0)
    ->Arg(1)
    ->ArgNames({"ws_graph"})
    ->Unit(benchmark::kMillisecond)
    ->UseRealTime();

void BM_ParallelFold(benchmark::State& state) {
  const MultiRelationalGraph& graph =
      state.range(1) == 0 ? HeavyTailGraph() : UniformGraph();
  const TraversalSpec spec = LabeledChain();
  ThreadPool pool(static_cast<size_t>(state.range(0)));
  ParallelTraversalOptions options;
  options.pool = &pool;
  size_t paths = 0;
  for (auto _ : state) {
    ExecContext unlimited;
    Result<GovernedPathSet> result =
        TraverseParallelGoverned(graph, spec, unlimited, options);
    paths = result.ok() ? result->paths.size() : 0;
    benchmark::DoNotOptimize(result);
  }
  state.counters["paths"] = static_cast<double>(paths);
}
BENCHMARK(BM_ParallelFold)
    ->ArgsProduct({{1, 2, 4, 8}, {0, 1}})
    ->ArgNames({"threads", "ws_graph"})
    ->Unit(benchmark::kMillisecond)
    ->UseRealTime();

// The same fold on the heavy-tailed graph with the trace registry attached
// (a no-op unless --trace is given), so a traced run reports the seed,
// shard and replay spans behind the BM_ParallelFold timings.
void BM_ParallelGovernedFold(benchmark::State& state) {
  const MultiRelationalGraph& graph = HeavyTailGraph();
  const TraversalSpec spec = LabeledChain();
  ThreadPool pool(static_cast<size_t>(state.range(0)));
  ParallelTraversalOptions options;
  options.pool = &pool;
  for (auto _ : state) {
    ExecContext ctx;
    ctx.AttachObs(bench::TraceRegistry());
    Result<GovernedPathSet> result =
        TraverseParallelGoverned(graph, spec, ctx, options);
    benchmark::DoNotOptimize(result);
  }
}
BENCHMARK(BM_ParallelGovernedFold)
    ->Arg(1)
    ->Arg(2)
    ->Arg(4)
    ->Arg(8)
    ->ArgNames({"threads"})
    ->Unit(benchmark::kMillisecond)
    ->UseRealTime();

}  // namespace
}  // namespace mrpa

MRPA_BENCH_MAIN();
