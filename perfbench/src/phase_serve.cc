// The serve and route phases: open-loop rate ladders against an in-process
// OracleServer, and against a RouterServer over two in-process shard
// servers, both serving the index the last oracle round opened.
//
// Each phase sends kNominalSendings schedules at the nominal rate, whose
// figures are medians over the sendings. The traced run then climbs the rate
// ladder once, one sending per rung, and bisects towards max_qps.

#include <unistd.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <memory>
#include <string>

#include "gen.h"
#include "ipin/obs/metrics.h"
#include "ipin/serve/client.h"
#include "ipin/serve/index_manager.h"
#include "ipin/serve/router.h"
#include "ipin/serve/server.h"
#include "ipin/serve/shard_map.h"
#include "pipeline.h"
#include "stats.h"

namespace perfbench {

using ipin::IrsApprox;
using ipin::NodeId;
namespace serve = ipin::serve;

namespace {

constexpr double kZipfExponent = 1.1;
// Length of one sending, as a share of --seconds.
constexpr double kSendingShare = 1.0 / 40.0;
// Nominal-rate sendings per phase.
constexpr int kNominalSendings = 16;
// Extra rungs that bisect (geometrically) between the highest passing rung
// and the failing rung above it, so max_qps resolves to ~9%, not sqrt(2).
constexpr int kRefineRungs = 2;
// Attempts at one sending while it is not valid (SendingValid).
constexpr int kMaxAttempts = 2;
// A missed request's latency in the percentiles: the generator's drain
// window, i.e. "never answered in time".
constexpr double kMissLatencyUs = 1'000'000.0;
// Requests a connection keeps in flight at the nominal rate: two connections
// then fill at most half the server's (and the router's) queue of 64, so a
// host stall makes requests late, and the sending invalid, instead of shed.
// The climb sends uncapped, so that shedding decides max_qps.
constexpr size_t kNominalInflight = 16;
constexpr size_t kLegSamples = 400;
// Unscored traffic at the nominal rate before scoring starts, so connection
// pools, worker threads and caches are warm.
constexpr double kWarmupSeconds = 0.25;

struct LadderSpec {
  const char* name;  // "serve" / "route"
  double lo_qps, hi_qps, nominal_qps;
  size_t min_seeds, max_seeds;
  uint64_t stream;
  // Latency limit of the max_qps rule. The router adds two thread hops and a
  // shard round trip; its p99 at the nominal rate is ~0.5-1.4 ms on a 4-vCPU
  // VM, so a 1 ms limit there would measure host jitter, not capacity.
  double limit_us;
};

constexpr LadderSpec kServeLadder{"serve", 10'000, 160'000, 20'000, 1, 16, 0x5e7e, 1'000};
constexpr LadderSpec kRouteLadder{"route", 2'500, 20'000, 5'000, 16, 128, 0x7007e, 5'000};

// One sending of a rung, scored.
struct Sending {
  RungOutcome outcome;
  std::vector<GenRequest> requests;
  GenOutcome gen;
  std::vector<double> latency_us;  // misses at kMissLatencyUs
  size_t failed = 0;
  size_t degraded = 0;
  double program_cpu_s = 0.0;  // server / router / shard threads
};

std::vector<GenRequest> MakeRequests(const LadderSpec& spec, double rate,
                                     double seconds, const ZipfSampler& keys,
                                     uint64_t stream_seed) {
  Rng rng(stream_seed);
  const std::vector<double> arrivals = PoissonArrivals(rate, seconds, &rng);
  std::vector<GenRequest> requests(arrivals.size());
  for (size_t i = 0; i < arrivals.size(); ++i) {
    requests[i].due_ns = static_cast<int64_t>(arrivals[i] * 1e9);
    const size_t size =
        spec.min_seeds + rng.Below(spec.max_seeds - spec.min_seeds + 1);
    requests[i].seeds.resize(size);
    for (NodeId& u : requests[i].seeds) u = keys.Sample(&rng);
  }
  return requests;
}

double LateP99Us(const GenOutcome& gen) {
  std::vector<double> late;
  for (const GenReply& r : gen.replies) late.push_back(static_cast<double>(r.late_ns) * 1e-3);
  return Quantile(late, 0.99);
}

// Sends one schedule and scores every request against the in-process
// reference.
Sending Send(const LadderSpec& spec, double rate, uint64_t index, double seconds,
             const ZipfSampler& keys, const std::string& socket, size_t max_inflight,
             RunState* state) {
  const IrsApprox& full = *state->index;
  Sending s;
  s.requests = MakeRequests(spec, rate, seconds, keys,
                            StreamSeed(state->args.seed, spec.stream ^ (index << 20)));
  const double cpu0 = ProcessCpuSeconds();
  s.gen = RunOpenLoop(s.requests, socket, max_inflight);
  // The caller only waits meanwhile, so this is the program's CPU time.
  s.program_cpu_s = ProcessCpuSeconds() - cpu0 - s.gen.client_cpu_s;
  s.outcome.rate_qps = rate;
  s.outcome.sent = s.requests.size();
  s.outcome.limit_us = spec.limit_us;
  s.outcome.outstanding_at_end = s.gen.outstanding_at_end;
  s.outcome.late_p99_us = LateP99Us(s.gen);
  std::vector<uint8_t> scratch;
  for (size_t i = 0; i < s.requests.size(); ++i) {
    const GenReply& reply = s.gen.replies[i];
    if (reply.answered && reply.status == serve::StatusCode::kOk && reply.degraded) {
      ++s.degraded;
    }
    const double expected = full.EstimateUnionSize(s.requests[i].seeds, &scratch);
    const Verdict verdict = Judge(reply, expected, spec.limit_us);
    if (verdict == Verdict::kWrong) {
      char buf[160];
      std::snprintf(buf, sizeof buf,
                    "%s: request with %zu seeds answered %.17g, in-process %.17g",
                    spec.name, s.requests[i].seeds.size(), reply.estimate, expected);
      state->report.Fail(buf);
    }
    const bool answered = verdict == Verdict::kGood || verdict == Verdict::kLate;
    if (!answered) ++s.failed;
    if (verdict == Verdict::kGood) ++s.outcome.good;
    s.latency_us.push_back(answered ? static_cast<double>(reply.latency_ns) * 1e-3
                                    : kMissLatencyUs);
  }
  return s;
}

// Measures one endpoint: the nominal-rate sendings, then the climb.
class Ladder {
 public:
  Ladder(const LadderSpec& spec, LadderSamples* samples, const std::string& socket,
         RunState* state)
      : spec_(spec),
        samples_(samples),
        socket_(socket),
        state_(state),
        keys_(state->index->num_nodes(), kZipfExponent,
              StreamSeed(state->args.seed, spec.stream)) {
    RunOpenLoop(MakeRequests(spec, spec.nominal_qps, kWarmupSeconds, keys_,
                             StreamSeed(state->args.seed, ~spec.stream)),
                socket, kNominalInflight);
  }

  void Nominal() {
    for (int i = 0; i < kNominalSendings; ++i) SendOne(spec_.nominal_qps, true);
  }

  // Climbs until two rungs in a row above the nominal rate miss, then
  // bisects between the best passing rate and the rung above it.
  void Climb() {
    const std::vector<double> rates =
        RateLadder(spec_.lo_qps, spec_.hi_qps, std::sqrt(2.0));
    int misses = 0;
    for (const double rate : rates) {
      misses = SendOne(rate, false) || rate <= spec_.nominal_qps ? 0 : misses + 1;
      if (misses == 2) break;
    }
    const double best = MaxPassingRate(samples_->rungs);
    if (best <= 0.0 || best >= rates.back()) return;
    double lo = best, hi = best * std::sqrt(2.0);
    for (int i = 0; i < kRefineRungs; ++i) {
      const double mid = std::sqrt(lo * hi);
      (SendOne(mid, false) ? lo : hi) = mid;
    }
  }

 private:
  // One sending, sent again with a fresh schedule while it is not valid (the
  // generator fell behind or the host stole CPU), at most kMaxAttempts times
  // in all. Climb sendings become rungs; nominal ones are kept for the
  // latency figures.
  bool SendOne(double rate, bool nominal) {
    Sending s;
    for (int attempt = 0; attempt < kMaxAttempts; ++attempt) {
      const uint64_t index = next_index_++;
      const HostMeter host;
      s = Send(spec_, rate, index, state_->args.seconds * kSendingShare, keys_, socket_,
               nominal ? kNominalInflight : 0, state_);
      s.outcome.stolen_share = host.StolenShare();
      const bool valid = SendingValid(s.outcome);
      std::printf("#   %s %8.0f qps: sent %zu good %zu failed %zu outstanding %zu "
                  "late_p99 %.0f us stolen %.0f%% program CPU %.1f us/request%s\n",
                  spec_.name, rate, s.outcome.sent, s.outcome.good, s.failed,
                  s.outcome.outstanding_at_end, s.outcome.late_p99_us,
                  100.0 * s.outcome.stolen_share,
                  s.program_cpu_s * 1e6 /
                      static_cast<double>(std::max<size_t>(1, s.outcome.sent - s.failed)),
                  !valid ? " invalid" : RungPasses(s.outcome) ? "" : " miss");
      if (valid) break;
      ++samples_->resent;
    }
    samples_->degraded += s.degraded;
    if (nominal) {
      Keep(s);
    } else {
      samples_->rungs.push_back({s.outcome});
    }
    return RungPasses(s.outcome);
  }

  // The kept nominal sendings are the run's serving operations. Every reply
  // is checked for correctness in Send, but the misses of an invalid attempt
  // (the generator or the host stalled) and of the climb, which overloads the
  // server on purpose, are not the program failing its nominal load.
  void Keep(const Sending& s) {
    state_->report.attempted += s.requests.size();
    state_->report.failed += s.failed;
    NominalSending n;
    n.outcome = s.outcome;
    n.latency_us = s.latency_us;
    n.inflight_max = s.gen.inflight_max;
    const size_t answered = s.requests.size() - s.failed;
    n.cpu_us_per_request =
        answered == 0 ? 0.0 : s.program_cpu_s * 1e6 / static_cast<double>(answered);
    for (size_t i = 0; i < s.requests.size(); ++i) {
      const GenReply& r = s.gen.replies[i];
      if (!r.answered) continue;
      n.seeds.push_back(s.requests[i].seeds);
      n.due_ns.push_back(s.gen.base_ns + s.requests[i].due_ns);
      n.reply_ns.push_back(n.due_ns.back() + r.latency_ns);
    }
    samples_->nominal.push_back(std::move(n));
  }

  const LadderSpec& spec_;
  LadderSamples* samples_;
  std::string socket_;
  RunState* state_;
  ZipfSampler keys_;
  uint64_t next_index_ = 0;
};

std::string SocketPath(const RunState& state, const std::string& tag) {
  return state.args.work_dir + "/" + tag + "-" + std::to_string(::getpid()) + ".sock";
}

uint64_t CounterValue(const char* name) {
  return ipin::obs::MetricsRegistry::Global().GetCounter(name)->Value();
}

ipin::obs::HistogramSnapshot HistogramNow(const char* name) {
  for (auto& h : ipin::obs::MetricsRegistry::Global().Snapshot().histograms) {
    if (h.name == name) return h;
  }
  return {};
}

// Median over the nominal sendings of `value`, leaving out invalid sendings
// unless that is all of them.
template <typename Fn>
double NominalMedian(const LadderSamples& samples, Fn value) {
  std::vector<double> kept, all;
  for (const NominalSending& s : samples.nominal) {
    all.push_back(value(s));
    if (SendingValid(s.outcome)) kept.push_back(all.back());
  }
  return Median(kept.empty() ? all : kept);
}

double NominalLatency(const LadderSamples& samples, double q) {
  return NominalMedian(samples,
                       [q](const NominalSending& s) { return Quantile(s.latency_us, q); });
}

// Latency metrics of the nominal rung, max_qps, and the generator's
// validity.
void ReportLadder(const LadderSpec& spec, const LadderSamples& samples,
                  RunState* state) {
  Report& report = state->report;
  const std::string p = spec.name;
  std::vector<double> lates;
  size_t valid = 0, inflight_max = 0;
  for (const NominalSending& s : samples.nominal) {
    lates.push_back(s.outcome.late_p99_us);
    inflight_max = std::max(inflight_max, s.inflight_max);
    valid += SendingValid(s.outcome) ? 1 : 0;
  }
  const double p50 = NominalLatency(samples, 0.5), p99 = NominalLatency(samples, 0.99);
  const double cpu_us = NominalMedian(
      samples, [](const NominalSending& s) { return s.cpu_us_per_request; });
  const double max_qps = MaxPassingRate(samples.rungs);
  report.Set(p + "_cpu_us", cpu_us, "us");
  std::printf("# %s: nominal %.0f qps p50 %.1f us p99 %.1f us, program CPU %.1f us "
              "per request (medians of %zu sendings, %zu valid)\n",
              spec.name, spec.nominal_qps, p50, p99, cpu_us, samples.nominal.size(),
              valid);
  if (!state->args.trace) return;
  std::printf("# %s: max_qps %.0f (limit %.0f us)%s\n", spec.name, max_qps, spec.limit_us,
              max_qps == 0.0 ? " -- no rung passed" : "");
  // Ungated: host jitter on a small VM decides latency (see README.md).
  report.Set(p + ".p50_us", p50, "us");
  report.Set(p + ".p99_us", p99, "us");
  report.Set(p + ".max_qps", max_qps, "1/s");
  report.Set("gen." + p + "_late_us_p99", Median(lates), "us");
  report.Set("gen." + p + "_inflight_max", static_cast<double>(inflight_max), "count");
  report.Set("gen." + p + "_resent", static_cast<double>(samples.resent), "count");
  if (samples.nominal.empty()) return;
  const NominalSending& first = samples.nominal.front();
  for (size_t i = 0; i < first.due_ns.size(); ++i) {
    state->spans.Add(p == "serve" ? "gen.serve_request" : "gen.route_request", 0, i + 1,
                     first.due_ns[i], first.reply_ns[i]);
  }
}

// p50 of in-process evaluation over the first nominal sending's seed sets.
double EvalP50(const IrsApprox& full, const LadderSamples& samples) {
  std::vector<double> us;
  std::vector<uint8_t> scratch;
  volatile double sink = 0.0;
  for (const auto& seeds : samples.nominal.front().seeds) {
    const int64_t t0 = NowNanos();
    sink = full.EstimateUnionSize(seeds, &scratch);
    us.push_back(static_cast<double>(NowNanos() - t0) * 1e-3);
  }
  (void)sink;
  return Quantile(us, 0.5);
}

}  // namespace

void RunServePhase(RunState* state) {
  LadderSamples& samples = state->serve;
  serve::IndexManager manager("");
  manager.Install(state->index);
  serve::ServerOptions options;  // daemon defaults: 4 workers, queue 64
  options.unix_socket_path = SocketPath(*state, "serve");
  serve::OracleServer server(&manager, options);
  if (!server.Start()) {
    state->report.Fail("OracleServer did not start on " + options.unix_socket_path);
    return;
  }
  const uint64_t shed0 = CounterValue("serve.requests.shed");
  const uint64_t expired0 = CounterValue("serve.requests.deadline_exceeded");
  const auto wait0 = HistogramNow("serve.queue.wait_us");
  {
    Ladder ladder(kServeLadder, &samples, options.unix_socket_path, state);
    ladder.Nominal();
    if (state->args.trace) ladder.Climb();
  }
  auto wait = HistogramNow("serve.queue.wait_us");
  server.Shutdown();
  ::unlink(options.unix_socket_path.c_str());
  const uint64_t shed = CounterValue("serve.requests.shed") - shed0;
  const uint64_t expired = CounterValue("serve.requests.deadline_exceeded") - expired0;
  wait.count -= wait0.count;
  wait.sum -= wait0.sum;
  for (size_t b = 0; b < wait.buckets.size(); ++b) wait.buckets[b] -= wait0.buckets[b];

  ReportLadder(kServeLadder, samples, state);
  if (!state->args.trace || samples.nominal.empty()) return;
  Report& report = state->report;
  const double eval = EvalP50(*state->index, samples);
  report.Set("server.eval_us_p50", eval, "us");
  report.Set("server.tax_us_p50", NominalLatency(samples, 0.5) - eval, "us");
  report.Set("server.queue_wait_us_p50", wait.P50(), "us");
  report.Set("server.shed", static_cast<double>(shed), "count");
  report.Set("server.deadline_exceeded", static_cast<double>(expired), "count");
}

namespace {

// Two shard servers and a router over them, serving the round's index.
struct RouteFleet {
  static constexpr size_t kShards = 2;
  std::vector<serve::ShardInfo> infos;
  std::shared_ptr<const serve::ShardMap> map;
  std::vector<std::unique_ptr<serve::IndexManager>> managers;
  std::vector<std::unique_ptr<serve::OracleServer>> shards;
  serve::ShardMapManager map_manager{""};
  std::unique_ptr<serve::RouterServer> router;
  std::string router_socket;

  ~RouteFleet() {
    if (router) router->Shutdown();
    for (auto& shard : shards) shard->Shutdown();
    ::unlink(router_socket.c_str());
    for (const serve::ShardInfo& info : infos) ::unlink(info.endpoint.unix_socket_path.c_str());
  }
};

std::unique_ptr<RouteFleet> StartFleet(RunState* state) {
  auto fleet = std::make_unique<RouteFleet>();
  fleet->infos.resize(RouteFleet::kShards);
  for (size_t i = 0; i < RouteFleet::kShards; ++i) {
    fleet->infos[i].name = "shard" + std::to_string(i);
    fleet->infos[i].endpoint.unix_socket_path = SocketPath(*state, fleet->infos[i].name);
  }
  fleet->map = std::make_shared<const serve::ShardMap>(fleet->infos);
  const int64_t t_extract = NowNanos();
  for (size_t i = 0; i < RouteFleet::kShards; ++i) {
    fleet->managers.push_back(std::make_unique<serve::IndexManager>(""));
    fleet->managers.back()->Install(std::make_shared<const IrsApprox>(
        serve::ExtractShardIndex(*state->index, *fleet->map, i)));
  }
  state->route.extract_s = static_cast<double>(NowNanos() - t_extract) * 1e-9;
  for (size_t i = 0; i < RouteFleet::kShards; ++i) {
    serve::ServerOptions options;  // daemon defaults
    options.unix_socket_path = fleet->infos[i].endpoint.unix_socket_path;
    fleet->shards.push_back(
        std::make_unique<serve::OracleServer>(fleet->managers[i].get(), options));
    if (!fleet->shards.back()->Start()) {
      state->report.Fail("shard server did not start on " + options.unix_socket_path);
      return nullptr;
    }
  }
  fleet->map_manager.Install(fleet->map);
  serve::RouterOptions router_options;  // daemon defaults
  router_options.unix_socket_path = fleet->router_socket = SocketPath(*state, "router");
  fleet->router = std::make_unique<serve::RouterServer>(&fleet->map_manager, router_options);
  if (!fleet->router->Start()) {
    state->report.Fail("RouterServer did not start on " + fleet->router_socket);
    return nullptr;
  }
  return fleet;
}

// Closed-loop sample of the nominal queries: each one routed, then each of
// its legs sent straight to its shard. Router tax = routed - slowest leg.
void MeasureLegs(const RouteFleet& fleet, RunState* state) {
  Report& report = state->report;
  const IrsApprox& full = *state->index;
  const auto& nominal_seeds = state->route.nominal.front().seeds;
  double legs = 0.0;
  for (const auto& seeds : nominal_seeds) {
    for (const auto& part : fleet.map->PartitionSeeds(seeds)) legs += part.empty() ? 0 : 1;
  }
  report.Set("router.legs_per_query",
             legs / static_cast<double>(std::max<size_t>(1, nominal_seeds.size())),
             "count");
  serve::ClientOptions client_options;
  client_options.unix_socket_path = fleet.router_socket;
  serve::OracleClient routed(client_options);
  std::vector<std::unique_ptr<serve::OracleClient>> direct;
  for (const serve::ShardInfo& info : fleet.infos) {
    client_options.unix_socket_path = info.endpoint.unix_socket_path;
    direct.push_back(std::make_unique<serve::OracleClient>(client_options));
  }
  std::vector<double> leg_us, tax_us;
  const size_t n = std::min(kLegSamples, nominal_seeds.size());
  for (size_t q = 0; q < n; ++q) {
    const std::vector<NodeId>& seeds = nominal_seeds[q];
    const uint64_t request_id = 1'000'000 + q;
    const int64_t r0 = NowNanos();
    const uint64_t span = state->spans.Begin("router.request", 0, request_id);
    const auto answer = routed.Query(seeds, serve::QueryMode::kSketch);
    state->spans.End(span);
    const double routed_us = static_cast<double>(NowNanos() - r0) * 1e-3;
    if (!answer.has_value() || answer->status != serve::StatusCode::kOk ||
        answer->estimate != full.EstimateUnionSize(seeds)) {
      report.Fail("route: closed-loop sample answer missing or wrong");
      continue;
    }
    const auto parts = fleet.map->PartitionSeeds(seeds);
    double slowest = 0.0;
    for (size_t s = 0; s < parts.size(); ++s) {
      if (parts[s].empty()) continue;
      serve::Request leg;
      leg.method = serve::Method::kQuery;
      leg.mode = serve::QueryMode::kSketch;
      leg.want_ranks = true;
      leg.seeds = parts[s];
      const int64_t l0 = NowNanos();
      const uint64_t leg_span = state->spans.Begin("shard.leg", 0, request_id);
      const auto leg_answer = direct[s]->Call(leg);
      state->spans.End(leg_span);
      const double us = static_cast<double>(NowNanos() - l0) * 1e-3;
      if (!leg_answer.has_value() || leg_answer->status != serve::StatusCode::kOk) {
        report.Fail("route: direct shard leg failed");
        continue;
      }
      leg_us.push_back(us);
      slowest = std::max(slowest, us);
    }
    tax_us.push_back(routed_us - slowest);
  }
  report.Set("router.leg_us_p50", Quantile(leg_us, 0.5), "us");
  report.Set("router.tax_us_p50", Quantile(tax_us, 0.5), "us");
}

}  // namespace

void RunRoutePhase(RunState* state) {
  const std::unique_ptr<RouteFleet> fleet = StartFleet(state);
  if (fleet == nullptr) return;
  {
    Ladder ladder(kRouteLadder, &state->route, fleet->router_socket, state);
    ladder.Nominal();
    if (state->args.trace) ladder.Climb();
  }
  const LadderSamples& samples = state->route;
  ReportLadder(kRouteLadder, samples, state);
  if (!state->args.trace) return;
  if (!samples.nominal.empty()) MeasureLegs(*fleet, state);
  state->report.Set("router.degraded", static_cast<double>(samples.degraded), "count");
  state->report.Set("shard_map.extract_s", samples.extract_s, "s");
}

}  // namespace perfbench
