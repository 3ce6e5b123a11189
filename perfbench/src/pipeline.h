#ifndef PERFBENCH_PIPELINE_H_
#define PERFBENCH_PIPELINE_H_

// One benchmark run walks the paper's whole pipeline on one generated
// interaction log, in four timed phases that each measure one part of the
// system and bypass the others:
//
//   build   parse the edge list -> one-pass reverse scan -> save -> free
//   oracle  open the saved index -> 20,000 union queries -> greedy IM
//   serve   open-loop rate ladder against one in-process OracleServer
//   route   the same ladder shape through a RouterServer over two shards
//
// Build and oracle run as a round, kRounds times, and their metrics are
// medians over the rounds (query latencies: each query's best round), so a
// burst of host contention shorter than a round moves no reported number.
// Serve and route then run once on the last round's index, and their metrics
// are medians over several sendings.
//
// The workload (--workload) fixes the scan window; everything else derives
// from --seed. See perfbench/README.md for the metric definitions.

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "ipin/core/influence_maximization.h"
#include "ipin/core/irs_approx.h"
#include "stats.h"
#include "trace.h"

namespace perfbench {

struct RunArgs {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  /// Scratch directory for generated inputs, index files and sockets.
  std::string work_dir = ".bench_build/work";
  /// Where the traced run writes its spans (Chrome trace JSON).
  std::string trace_out;
};

/// The input regime a workload name selects.
struct WorkloadSpec {
  std::string name;
  double window_pct = 10.0;
};

/// Known workloads; nullptr for an unknown name.
const WorkloadSpec* FindWorkload(const std::string& name);

/// Paper defaults: beta = 2^9 = 512 cells per sketch.
inline constexpr int kPrecision = 9;
/// The slashdot stand-in at full scale: 140,800 edges, 51,100 nodes.
inline constexpr double kDatasetScale = 1.0;
/// Rounds of build -> oracle per run.
inline constexpr int kRounds = 3;

/// Per-round samples of the build phase. Each is marked quiet when the host
/// stole little CPU while it was measured (HostMeter).
struct BuildSamples {
  Samples build_s, load_s, compute_s, save_s, free_s, cpu_s, rss_mb;
  size_t attempts = 0, updates = 0, scanned = 0, entries = 0;
  double mem_mb = 0.0;
};

/// Per-round samples of the oracle phase.
struct OracleSamples {
  Samples open_s, load_s, seal_s, select_s, select_cpu_s, rss_mb;
  /// Each query's best latency over the rounds (the same queries every
  /// round), with its |S|.
  std::vector<double> best_latency_us;
  std::vector<size_t> sizes;
  size_t total_seeds = 0;
  uint64_t digest = 0;
  ipin::SeedSelection selection;
  /// The last round's query answers, re-checked by the scalar reference.
  std::vector<double> estimates;
};

/// One sending of a ladder rung, kept when it ran at the nominal rate.
struct NominalSending {
  RungOutcome outcome;
  std::vector<double> latency_us;   // misses counted as never answered
  std::vector<std::vector<ipin::NodeId>> seeds;  // of the answered requests
  std::vector<int64_t> due_ns, reply_ns;          // absolute, answered only
  size_t inflight_max = 0;
  /// CPU time of the program's threads per answered request.
  double cpu_us_per_request = 0.0;
};

/// A serving phase's results.
struct LadderSamples {
  std::vector<NominalSending> nominal;
  std::vector<std::vector<RungOutcome>> rungs;  // the climb, one sending each
  size_t degraded = 0;
  size_t resent = 0;
  double extract_s = 0.0;  // route: shard extraction
};

/// State handed from phase to phase and round to round.
struct RunState {
  RunArgs args;
  WorkloadSpec spec;
  Report report;
  SpanRecorder spans{false};
  /// Boundaries of the build and oracle phases, whose every layer call is
  /// spanned (for the unattributed share). Serving is traced per request
  /// for one nominal sending per ladder.
  struct Phase {
    std::string name;
    int64_t start_ns = 0;
    int64_t end_ns = 0;
  };
  std::vector<Phase> phases;
  int round = 0;

  std::vector<double> setup_s;
  /// HostProbeSeconds() before every timed phase.
  std::vector<double> probe_s;
  std::string edge_list_path;
  std::string index_path;
  size_t num_nodes = 0;
  size_t num_edges = 0;
  /// EstimateIrsSize of every node, read from the first in-memory build.
  std::vector<double> built_irs_sizes;
  /// The index the latest oracle round opened; served by serve and route.
  std::shared_ptr<const ipin::IrsApprox> index;

  BuildSamples build;
  OracleSamples oracle;
  LadderSamples serve, route;
};

/// One set-up: generates the log from the seed and writes it as the edge
/// list, appending its time to setup_s. It runs before every timed phase, so
/// that the reported median samples the whole run, not one moment of it.
void RunSetup(RunState* state);

/// One round of build and oracle, then their metrics from all rounds.
void BuildRound(RunState* state);
void OracleRound(RunState* state);
void FinishBuild(RunState* state);
void FinishOracle(RunState* state);

/// The serving phases, on the last round's index.
void RunServePhase(RunState* state);
void RunRoutePhase(RunState* state);

/// Reference union estimate: scalar cellwise max over the seeds' max-rank
/// rows, then the HLL estimator. Independent of the SIMD kernels.
double ReferenceUnion(const ipin::IrsApprox& index,
                      const std::vector<ipin::NodeId>& seeds);

/// Digest of a seed selection (pick order + coverage, exact bits).
uint64_t SelectionDigest(const std::vector<ipin::NodeId>& seeds,
                         double coverage);

/// Recorded selection digests per (workload, seed); 0 when none recorded.
uint64_t RecordedSelectionDigest(const std::string& workload, uint64_t seed);

}  // namespace perfbench

#endif  // PERFBENCH_PIPELINE_H_
