// Set-up and the build phase: the ipin_cli build-index path, timed from
// parsing the edge list to freeing the index.

#include <algorithm>
#include <cinttypes>
#include <cstdio>
#include <optional>

#include "ipin/common/thread_pool.h"
#include "ipin/core/oracle_io.h"
#include "ipin/datasets/registry.h"
#include "ipin/datasets/synthetic.h"
#include "ipin/graph/graph_io.h"
#include "pipeline.h"
#include "stats.h"

namespace perfbench {

using ipin::IrsApprox;
using ipin::NodeId;

void RunSetup(RunState* state) {
  state->edge_list_path = state->args.work_dir + "/edges.txt";
  const double t0 = NowSeconds();
  std::optional<ipin::SyntheticConfig> config =
      ipin::GetDatasetConfig("slashdot", kDatasetScale);
  config->seed = state->args.seed;
  const ipin::InteractionGraph graph = ipin::GenerateInteractionNetwork(*config);
  if (!ipin::SaveInteractionsToFile(graph, state->edge_list_path)) {
    state->report.Fail("cannot write " + state->edge_list_path);
    return;
  }
  state->setup_s.push_back(NowSeconds() - t0);
  if (state->setup_s.size() == 1) {
    state->num_edges = graph.num_interactions();
  } else if (graph.num_interactions() != state->num_edges) {
    state->report.Fail("the generator gave a different log for the same seed");
  }
}

void BuildRound(RunState* state) {
  Report& report = state->report;
  SpanRecorder& spans = state->spans;
  BuildSamples& b = state->build;
  state->index_path = state->args.work_dir + "/index.bin";
  ipin::IrsApproxOptions options;
  options.precision = kPrecision;

  ResetPeakRss();
  const HostMeter host;
  const int64_t t_start = NowNanos();
  std::optional<ipin::InteractionGraph> graph;
  {
    ScopedSpan span(&spans, "graph.load");
    graph = ipin::LoadInteractionsFromFile(state->edge_list_path);
  }
  const int64_t t_loaded = NowNanos();
  if (!graph.has_value() || graph->num_interactions() != state->num_edges) {
    report.Fail("edge list did not parse back to the generated log");
    return;
  }
  // Ids are remapped densely on load; nodes that never interact vanish.
  state->num_nodes = graph->num_nodes();
  const ipin::Duration window = graph->WindowFromPercent(state->spec.window_pct);
  const double cpu0 = ProcessCpuSeconds();
  std::optional<IrsApprox> index;
  {
    ScopedSpan span(&spans, "irs_approx.compute");
    index.emplace(IrsApprox::Compute(*graph, window, options));
  }
  const int64_t t_computed = NowNanos();
  const double cpu_s = ProcessCpuSeconds() - cpu0;
  bool saved = false;
  {
    ScopedSpan span(&spans, "oracle_io.save");
    saved = ipin::SaveInfluenceIndex(*index, state->index_path);
  }
  const int64_t t_saved = NowNanos();
  if (!saved) {
    report.Fail("SaveInfluenceIndex failed");
    return;
  }

  // Untimed: the scan tallies, and every node's estimate as the reference
  // the oracle phase checks the loaded index against.
  std::vector<double> sizes(index->num_nodes());
  for (NodeId u = 0; u < index->num_nodes(); ++u) sizes[u] = index->EstimateIrsSize(u);
  if (state->round == 0) {
    state->built_irs_sizes = std::move(sizes);
    b.attempts = index->TotalInsertAttempts();
    b.updates = index->TotalCellUpdates();
    b.scanned = index->TotalMergeEntriesScanned();
    b.entries = index->TotalSketchEntries();
    b.mem_mb = static_cast<double>(index->MemoryUsageBytes()) / 1e6;
  } else if (sizes != state->built_irs_sizes) {
    report.Fail("repeated builds of one log disagree");
  }
  const int64_t t_resume = NowNanos();
  {
    ScopedSpan span(&spans, "sketch.free");
    index.reset();
  }
  const int64_t t_freed = NowNanos();
  {
    ScopedSpan span(&spans, "graph.free");
    graph.reset();
  }
  const int64_t t_end = NowNanos();
  state->phases.push_back({"build", t_start, t_saved});
  state->phases.push_back({"build", t_resume, t_end});
  report.attempted += 1;
  const bool quiet = host.Quiet();
  b.build_s.Add(static_cast<double>((t_saved - t_start) + (t_end - t_resume)) * 1e-9,
                quiet);
  b.load_s.Add(static_cast<double>(t_loaded - t_start) * 1e-9, quiet);
  b.compute_s.Add(static_cast<double>(t_computed - t_loaded) * 1e-9, quiet);
  b.cpu_s.Add(cpu_s, quiet);
  b.save_s.Add(static_cast<double>(t_saved - t_computed) * 1e-9, quiet);
  b.free_s.Add(static_cast<double>(t_freed - t_resume) * 1e-9, quiet);
  b.rss_mb.Add(PeakRssMb());
}

void FinishBuild(RunState* state) {
  Report& report = state->report;
  const BuildSamples& b = state->build;
  const double file_mb = FileMb(state->index_path);
  report.Set("build_s", b.build_s.Median(), "s");
  report.Set("index_mb", file_mb, "MB");
  report.Set("build_peak_rss_mb", b.rss_mb.Median(), "MB");
  std::printf("# build: %zu edges, %zu nodes, window %.0f%%, %zu threads, "
              "median of %zu quiet of %zu rounds: parse %.3f s, scan %.3f s, "
              "build %.3f s\n",
              state->num_edges, state->num_nodes, state->spec.window_pct,
              ipin::GlobalThreads(), b.build_s.quiet(), b.build_s.size(),
              b.load_s.Median(), b.compute_s.Median(), b.build_s.Median());

  if (!state->args.trace) return;
  const double scan = b.compute_s.Median();
  report.Set("graph.load_s", b.load_s.Median(), "s");
  report.Set("graph.edges_per_s",
             static_cast<double>(state->num_edges) / b.load_s.Median(), "1/s");
  report.Set("irs_approx.compute_s", scan, "s");
  report.Set("irs_approx.ns_per_edge",
             scan * 1e9 / static_cast<double>(state->num_edges), "ns");
  report.Set("irs_approx.merge_entries_scanned", static_cast<double>(b.scanned),
             "count");
  report.Set("irs_approx.insert_attempts", static_cast<double>(b.attempts), "count");
  report.Set("irs_approx.cell_updates", static_cast<double>(b.updates), "count");
  report.Set("irs_approx.useful_ratio",
             b.attempts == 0 ? 0.0
                             : static_cast<double>(b.updates) /
                                   static_cast<double>(b.attempts),
             "ratio");
  report.Set("irs_approx.entries", static_cast<double>(b.entries), "count");
  report.Set("irs_approx.mem_mb", b.mem_mb, "MB");
  report.Set("thread_pool.cpu_s", b.cpu_s.Median(), "s");
  report.Set("thread_pool.cpu_per_wall", b.cpu_s.Median() / scan, "ratio");
  report.Set("oracle_io.save_s", b.save_s.Median(), "s");
  report.Set("oracle_io.file_mb", file_mb, "MB");
  report.Set("sketch.free_s", b.free_s.Median(), "s");
}

}  // namespace perfbench
