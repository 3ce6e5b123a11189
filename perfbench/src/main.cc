// perfbench: one run of the repository benchmark.
//
//   perfbench --workload window10 --seed 7 --seconds 10 --trace 0
//
// Walks build -> oracle -> serve -> route on a slashdot stand-in generated
// from --seed, checks every output against an in-process reference, and
// prints one JSON result line last. --trace 1 records spans around every
// layer call and reports the per-layer metrics instead of the end-to-end
// ones. Exits 1 when an output check fails, 2 on bad arguments.

#include <cinttypes>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <map>
#include <string>
#include <utility>

#include "pipeline.h"
#include "stats.h"

namespace perfbench {
namespace {

// The end-to-end metrics every untraced run prints (BENCHMARK.json).
const char* const kEndToEnd[] = {
    "setup_s",      "build_s",            "index_mb",     "build_peak_rss_mb",
    "open_s",       "select_cpu_s",       "oracle_peak_rss_mb",
    "serve_cpu_us", "route_cpu_us",
};

// The end-to-end times that follow the host's speed as a whole (README.md),
// reported as seconds on the reference host.
const char* const kHostScaled[] = {"setup_s", "build_s", "open_s", "select_cpu_s"};

const WorkloadSpec kWorkloads[] = {
    {"window10", 10.0},
    {"window2", 2.0},
};

int Usage() {
  std::fprintf(stderr,
               "usage: perfbench --workload <window10|window2> --seed <n> "
               "--seconds <s> --trace <0|1> [--work-dir <dir>] "
               "[--trace-out <file>]\n");
  return 2;
}

// Per-layer self time, and the unattributed remainder of the build and
// oracle phases.
void ReportSelfTimes(RunState* state) {
  std::printf("# per-layer self time (span minus children):\n");
  for (const auto& [layer, seconds] : state->spans.SelfSeconds()) {
    std::printf("#   %-24s %10.4f s\n", layer.c_str(), seconds);
  }
  std::map<std::string, std::pair<double, double>> phases;  // wall, uncovered
  for (const RunState::Phase& phase : state->phases) {
    auto& [wall, uncovered] = phases[phase.name];
    wall += static_cast<double>(phase.end_ns - phase.start_ns) * 1e-9;
    uncovered += state->spans.UnattributedSeconds(phase.start_ns, phase.end_ns);
  }
  for (const auto& [name, totals] : phases) {
    const auto [wall, uncovered] = totals;
    std::printf("#   %-24s %10.4f s  (%.2f%% of the %s phase's %.4f s)\n",
                ("unattributed." + name).c_str(), uncovered,
                100.0 * uncovered / wall, name.c_str(), wall);
    state->report.Set(name + ".unattributed_pct", 100.0 * uncovered / wall, "%");
  }
}

}  // namespace

const WorkloadSpec* FindWorkload(const std::string& name) {
  for (const WorkloadSpec& spec : kWorkloads) {
    if (spec.name == name) return &spec;
  }
  return nullptr;
}

int Main(int argc, char** argv) {
  RunState state;
  RunArgs& args = state.args;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string flag = argv[i];
    const char* value = argv[i + 1];
    if (flag == "--workload") {
      args.workload = value;
    } else if (flag == "--seed") {
      args.seed = std::strtoull(value, nullptr, 10);
    } else if (flag == "--seconds") {
      args.seconds = std::strtod(value, nullptr);
    } else if (flag == "--trace") {
      args.trace = std::strcmp(value, "1") == 0;
    } else if (flag == "--work-dir") {
      args.work_dir = value;
    } else if (flag == "--trace-out") {
      args.trace_out = value;
    } else {
      return Usage();
    }
  }
  const WorkloadSpec* spec = FindWorkload(args.workload);
  if (spec == nullptr || args.seconds <= 0.0 || argc % 2 == 0) return Usage();
  state.spec = *spec;
  state.spans = SpanRecorder(args.trace);
  std::error_code ec;
  std::filesystem::create_directories(args.work_dir, ec);

  RunSetup(&state);
  struct PhaseClock {
    const char* name;
    double wall_s = 0.0, steal_s = 0.0;
  };
  PhaseClock clocks[] = {{"build"}, {"oracle"}, {"serve"}, {"route"}};
  auto timed = [&](PhaseClock& clock, void (*phase)(RunState*)) {
    if (state.report.correct) RunSetup(&state);
    if (!state.report.correct) return;
    state.probe_s.push_back(HostProbeSeconds());
    const double steal0 = HostStealSeconds();
    const double t0 = NowSeconds();
    phase(&state);
    clock.wall_s += NowSeconds() - t0;
    clock.steal_s += HostStealSeconds() - steal0;
  };
  for (state.round = 0; state.round < kRounds; ++state.round) {
    timed(clocks[0], BuildRound);
    timed(clocks[1], OracleRound);
  }
  if (state.report.correct) {
    FinishBuild(&state);
    FinishOracle(&state);
  }
  timed(clocks[2], RunServePhase);
  timed(clocks[3], RunRoutePhase);
  double steal_total = 0.0;
  for (const PhaseClock& clock : clocks) {
    // CPU time the hypervisor stole is the host's doing, not the program's;
    // runs with a lot of it are the noisy ones.
    std::printf("# %s: %.2f s wall, host stole %.2f CPU-s\n", clock.name, clock.wall_s,
                clock.steal_s);
    steal_total += clock.steal_s;
  }
  if (args.trace) state.report.Set("host.steal_s", steal_total, "s");
  state.report.Set("setup_s", Median(state.setup_s), "s");
  std::printf("# set-up: median %.4f s of %zu\n", Median(state.setup_s),
              state.setup_s.size());
  const double probe = Median(state.probe_s);
  if (probe > 0.0) {
    const double scale = kReferenceProbeSeconds / probe;
    std::printf("# host probe: median %.4f s of %zu (reference %.3f s); as measured:",
                probe, state.probe_s.size(), kReferenceProbeSeconds);
    for (Report::Metric& m : state.report.metrics) {
      for (const char* name : kHostScaled) {
        if (m.name != name) continue;
        std::printf(" %s %.4g s", name, m.value);
        m.value *= scale;
      }
    }
    std::printf("\n");
  }
  if (args.trace) state.report.Set("host.probe_s", probe, "s");
  state.index.reset();
  std::filesystem::remove(state.index_path, ec);
  std::filesystem::remove(state.edge_list_path, ec);

  Report& report = state.report;
  if (args.trace) {
    ReportSelfTimes(&state);
    if (!args.trace_out.empty() && !state.spans.WriteChromeTrace(args.trace_out)) {
      std::printf("# could not write %s\n", args.trace_out.c_str());
    }
    // The traced run's end-to-end figures, to compare with untraced runs:
    // their difference is the tracing overhead.
    for (Report::Metric& m : report.metrics) {
      for (const char* name : kEndToEnd) {
        if (m.name == name) m.name = "traced." + m.name;
      }
    }
  } else {
    for (const char* name : kEndToEnd) {
      bool present = false;
      for (const Report::Metric& m : report.metrics) present |= m.name == name;
      if (!present && report.correct) report.Fail(std::string("no value for ") + name);
    }
  }
  for (const std::string& reason : report.failures) {
    std::printf("# CHECK FAILED: %s\n", reason.c_str());
  }
  std::printf("%s\n", report.ToJson().c_str());
  std::fflush(stdout);
  return report.correct ? 0 : 1;
}

}  // namespace perfbench

int main(int argc, char** argv) { return perfbench::Main(argc, argv); }
