// Micro-benchmarks for the extension structures: streaming source sets,
// temporal paths, temporal PageRank and transforms (google-benchmark).

#include <benchmark/benchmark.h>

#include "ipin/baselines/temporal_pagerank.h"
#include "ipin/common/random.h"
#include "ipin/core/source_sets.h"
#include "ipin/datasets/synthetic.h"
#include "ipin/graph/temporal_paths.h"
#include "ipin/graph/transforms.h"

namespace ipin {
namespace {

InteractionGraph MakeGraph(size_t num_interactions) {
  SyntheticConfig config;
  config.num_nodes = num_interactions / 10;
  config.num_interactions = num_interactions;
  config.time_span = static_cast<Duration>(num_interactions) * 20;
  config.seed = 17;
  return GenerateInteractionNetwork(config);
}

void BM_SourceSetApproxStream(benchmark::State& state) {
  const InteractionGraph g = MakeGraph(static_cast<size_t>(state.range(0)));
  const Duration window = g.WindowFromPercent(10.0);
  IrsApproxOptions options;
  options.precision = static_cast<int>(state.range(1));
  for (auto _ : state) {
    SourceSetApprox sets(g.num_nodes(), window, options);
    for (const Interaction& e : g.interactions()) {
      sets.ProcessInteraction(e);
    }
    benchmark::DoNotOptimize(sets.TotalSketchEntries());
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<int64_t>(g.num_interactions()));
}
BENCHMARK(BM_SourceSetApproxStream)
    ->Args({10000, 6})
    ->Args({10000, 9})
    ->Unit(benchmark::kMillisecond);

void BM_EarliestArrival(benchmark::State& state) {
  const InteractionGraph g = MakeGraph(static_cast<size_t>(state.range(0)));
  const auto stats = g.ComputeStats();
  Rng rng(5);
  for (auto _ : state) {
    const NodeId src = static_cast<NodeId>(rng.NextBounded(g.num_nodes()));
    benchmark::DoNotOptimize(
        EarliestArrival(g, src, stats.min_time, stats.max_time));
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<int64_t>(g.num_interactions()));
}
BENCHMARK(BM_EarliestArrival)->Arg(10000)->Arg(50000)
    ->Unit(benchmark::kMillisecond);

void BM_FastestPaths(benchmark::State& state) {
  const InteractionGraph g = MakeGraph(static_cast<size_t>(state.range(0)));
  Rng rng(7);
  for (auto _ : state) {
    const NodeId src = static_cast<NodeId>(rng.NextBounded(g.num_nodes()));
    benchmark::DoNotOptimize(FastestPaths(g, src));
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<int64_t>(g.num_interactions()));
}
BENCHMARK(BM_FastestPaths)->Arg(10000)->Arg(50000)
    ->Unit(benchmark::kMillisecond);

void BM_TemporalPageRank(benchmark::State& state) {
  const InteractionGraph g = MakeGraph(static_cast<size_t>(state.range(0)));
  for (auto _ : state) {
    benchmark::DoNotOptimize(ComputeTemporalPageRank(g));
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<int64_t>(g.num_interactions()));
}
BENCHMARK(BM_TemporalPageRank)->Arg(10000)->Arg(50000)
    ->Unit(benchmark::kMillisecond);

void BM_TemporalTranspose(benchmark::State& state) {
  const InteractionGraph g = MakeGraph(static_cast<size_t>(state.range(0)));
  for (auto _ : state) {
    benchmark::DoNotOptimize(TemporalTranspose(g));
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<int64_t>(g.num_interactions()));
}
BENCHMARK(BM_TemporalTranspose)->Arg(50000)->Unit(benchmark::kMillisecond);

}  // namespace
}  // namespace ipin
