#include "ipin/serve/router.h"

#include <fcntl.h>
#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <map>
#include <memory>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "ipin/common/failpoint.h"
#include "ipin/common/logging.h"
#include "ipin/common/random.h"
#include "ipin/core/irs_approx.h"
#include "ipin/datasets/synthetic.h"
#include "ipin/serve/client.h"
#include "ipin/serve/server.h"
#include "ipin/serve/shard_map.h"
#include "ipin/sketch/estimators.h"

// End-to-end scatter-gather: N in-process OracleServers (each serving the
// shard slice ExtractShardIndex cut for it) behind one RouterServer, talked
// to over real Unix sockets with the real client. The acceptance criteria
// of the sharded serving tier live here: merge exactness against the
// single-process answer, partial-result degradation when shards die, probe
// recovery, map rollback, and seeded failpoint replay.

namespace ipin::serve {
namespace {

constexpr size_t kNumNodes = 60;

// Raw Unix-socket helpers for tests that speak the wire protocol in ways
// the client library does not (pipelining, split writes, never reading).
int ConnectUnix(const std::string& path) {
  const int fd = ::socket(AF_UNIX, SOCK_STREAM, 0);
  if (fd < 0) return -1;
  sockaddr_un addr{};
  addr.sun_family = AF_UNIX;
  std::strncpy(addr.sun_path, path.c_str(), sizeof(addr.sun_path) - 1);
  if (::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) != 0) {
    ::close(fd);
    return -1;
  }
  timeval tv{.tv_sec = 10, .tv_usec = 0};
  ::setsockopt(fd, SOL_SOCKET, SO_RCVTIMEO, &tv, sizeof(tv));
  return fd;
}

bool SendAll(int fd, const std::string& data) {
  size_t written = 0;
  while (written < data.size()) {
    const ssize_t n = ::send(fd, data.data() + written, data.size() - written,
                             MSG_NOSIGNAL);
    if (n < 0) {
      if (errno == EINTR) continue;
      return false;
    }
    written += static_cast<size_t>(n);
  }
  return true;
}

// Reads until `count` newline-terminated lines arrived (or EOF/error).
std::vector<std::string> ReadLines(int fd, size_t count) {
  std::vector<std::string> lines;
  std::string buffer;
  while (lines.size() < count) {
    const size_t newline = buffer.find('\n');
    if (newline != std::string::npos) {
      lines.push_back(buffer.substr(0, newline));
      buffer.erase(0, newline + 1);
      continue;
    }
    char chunk[4096];
    const ssize_t n = ::recv(fd, chunk, sizeof(chunk), 0);
    if (n <= 0) break;
    buffer.append(chunk, static_cast<size_t>(n));
  }
  return lines;
}

class RouterTest : public ::testing::Test {
 protected:
  void SetUp() override {
    SetLogLevel(LogLevel::kError);
    tag_ = std::to_string(reinterpret_cast<uintptr_t>(this));
    const InteractionGraph graph =
        GenerateUniformRandomNetwork(kNumNodes, 600, 1000, 11);
    IrsApproxOptions options;
    options.precision = 5;
    full_ = std::make_shared<const IrsApprox>(
        IrsApprox::Compute(graph, 200, options));
  }

  void TearDown() override {
    if (router_ != nullptr) router_->Shutdown();
    for (auto& server : shard_servers_) {
      if (server != nullptr) server->Shutdown();
    }
    failpoint::ClearAll();
    for (const auto& path : socket_paths_) std::remove(path.c_str());
    std::remove(router_socket_.c_str());
  }

  std::string ShardSocket(size_t i) const {
    return ::testing::TempDir() + "/ipin_rt_" + tag_ + "_s" +
           std::to_string(i) + ".sock";
  }

  // Builds the map, extracts the per-shard indexes, and starts one backend
  // per shard.
  void StartShards(size_t n) {
    std::vector<ShardInfo> infos(n);
    socket_paths_.clear();
    for (size_t i = 0; i < n; ++i) {
      infos[i].name = "shard" + std::to_string(i);
      infos[i].endpoint.unix_socket_path = ShardSocket(i);
      socket_paths_.push_back(infos[i].endpoint.unix_socket_path);
    }
    map_ = std::make_shared<const ShardMap>(infos);
    manager_ = std::make_unique<ShardMapManager>("");
    manager_->Install(map_);

    shard_indexes_.clear();
    shard_servers_.clear();
    for (size_t i = 0; i < n; ++i) {
      auto index = std::make_unique<IndexManager>("");
      index->Install(std::make_shared<const IrsApprox>(
          ExtractShardIndex(*full_, *map_, i)));
      shard_indexes_.push_back(std::move(index));
      shard_servers_.push_back(nullptr);
      StartShard(i);
    }
  }

  void StartShard(size_t i) {
    ServerOptions options;
    options.unix_socket_path = socket_paths_[i];
    options.num_workers = 2;
    options.shard_id = static_cast<int>(i);
    options.shard_count = static_cast<int>(shard_indexes_.size());
    shard_servers_[i] =
        std::make_unique<OracleServer>(shard_indexes_[i].get(), options);
    ASSERT_TRUE(shard_servers_[i]->Start());
  }

  void StopShard(size_t i) {
    shard_servers_[i]->Shutdown();
    shard_servers_[i].reset();
    std::remove(socket_paths_[i].c_str());
  }

  void StartRouter(RouterOptions options = {}) {
    router_socket_ = ::testing::TempDir() + "/ipin_rt_" + tag_ + ".sock";
    options.unix_socket_path = router_socket_;
    options.num_workers = 2;
    if (options.health.probe_interval_ms == 200) {
      options.health.probe_interval_ms = 30;  // fast recovery in tests
    }
    router_ = std::make_unique<RouterServer>(manager_.get(), options);
    ASSERT_TRUE(router_->Start());
  }

  OracleClient RouterClient(int max_attempts = 1) const {
    ClientOptions options;
    options.unix_socket_path = router_socket_;
    options.max_attempts = max_attempts;
    options.backoff_initial_ms = 5;
    return OracleClient(options);
  }

  // Spins until the router's health tracker reports `shard` in `state` (the
  // prober runs on its own clock), failing the test after ~3s.
  void WaitForShardState(size_t shard, ShardState state) {
    for (int spin = 0; spin < 300; ++spin) {
      const auto snapshot = router_->ShardHealth();
      if (shard < snapshot.size() && snapshot[shard] == state) return;
      std::this_thread::sleep_for(std::chrono::milliseconds(10));
    }
    FAIL() << "shard " << shard << " never reached state "
           << ShardStateName(state);
  }

  std::string tag_;
  std::shared_ptr<const IrsApprox> full_;
  std::shared_ptr<const ShardMap> map_;
  std::unique_ptr<ShardMapManager> manager_;
  std::vector<std::string> socket_paths_;
  std::vector<std::unique_ptr<IndexManager>> shard_indexes_;
  std::vector<std::unique_ptr<OracleServer>> shard_servers_;
  std::string router_socket_;
  std::unique_ptr<RouterServer> router_;
};

// Acceptance criterion #1: with all shards healthy the routed answer is
// bit-identical to the single-process answer, for N in {2, 3, 5}.
TEST_F(RouterTest, MergedEstimateMatchesSingleProcessExactly) {
  const std::vector<std::vector<NodeId>> seed_sets = {
      {0}, {1, 2, 3}, {5, 10, 15, 20, 25, 30}, {59}, {7, 7}};
  for (const size_t num_shards : {2u, 3u, 5u}) {
    StartShards(num_shards);
    StartRouter();
    OracleClient client = RouterClient();
    for (const auto& seeds : seed_sets) {
      const auto response = client.Query(seeds, QueryMode::kSketch);
      ASSERT_TRUE(response.has_value())
          << num_shards << " shards, " << seeds.size() << " seeds";
      EXPECT_EQ(response->status, StatusCode::kOk);
      EXPECT_FALSE(response->degraded);
      EXPECT_EQ(response->shards_answered, response->shards_total);
      EXPECT_GT(response->shards_total, 0);
      EXPECT_DOUBLE_EQ(response->coverage, 1.0);
      EXPECT_DOUBLE_EQ(response->estimate, full_->EstimateUnionSize(seeds))
          << num_shards << " shards, " << seeds.size() << " seeds";
    }
    router_->Shutdown();
    router_.reset();
    for (size_t i = 0; i < num_shards; ++i) StopShard(i);
  }
}

TEST_F(RouterTest, WantRanksReturnsTheMergedUnionVector) {
  StartShards(3);
  StartRouter();
  OracleClient client = RouterClient();
  Request request;
  request.method = Method::kQuery;
  request.seeds = {1, 2, 3, 40, 50};
  request.mode = QueryMode::kSketch;
  request.want_ranks = true;
  std::string error;
  const auto response = client.Call(request, &error);
  ASSERT_TRUE(response.has_value()) << error;
  EXPECT_EQ(response->status, StatusCode::kOk);
  ASSERT_EQ(response->ranks.size(),
            size_t{1} << full_->options().precision);
  EXPECT_DOUBLE_EQ(EstimateFromRanks(response->ranks), response->estimate);
  EXPECT_DOUBLE_EQ(response->estimate,
                   full_->EstimateUnionSize(request.seeds));
}

TEST_F(RouterTest, TopkMergeMatchesSingleProcessOrder) {
  StartShards(3);
  StartRouter();

  // Ground truth straight off the full index: nodes with sketches, ranked
  // by estimate descending, ties by node id ascending.
  std::vector<std::pair<NodeId, double>> expected;
  for (NodeId u = 0; u < full_->num_nodes(); ++u) {
    if (full_->Sketch(u)) {
      expected.emplace_back(u, full_->Sketch(u).Estimate());
    }
  }
  std::sort(expected.begin(), expected.end(),
            [](const auto& a, const auto& b) {
              if (a.second != b.second) return a.second > b.second;
              return a.first < b.first;
            });
  constexpr size_t kK = 7;
  ASSERT_GE(expected.size(), kK);
  expected.resize(kK);

  OracleClient client = RouterClient();
  Request request;
  request.method = Method::kTopk;
  request.k = kK;
  std::string error;
  const auto response = client.Call(request, &error);
  ASSERT_TRUE(response.has_value()) << error;
  EXPECT_EQ(response->status, StatusCode::kOk);
  EXPECT_FALSE(response->degraded);
  ASSERT_EQ(response->topk.size(), kK);
  for (size_t i = 0; i < kK; ++i) {
    EXPECT_EQ(response->topk[i].first, expected[i].first) << "rank " << i;
    EXPECT_DOUBLE_EQ(response->topk[i].second, expected[i].second)
        << "rank " << i;
  }
}

TEST_F(RouterTest, EmptySeedSetIsRejectedLikeASingleServer) {
  // The wire protocol rejects "query without seeds" at parse time; the
  // router presents the same contract as a single ipin_oracled.
  StartShards(2);
  StartRouter();
  OracleClient client = RouterClient();
  const auto response = client.Query({}, QueryMode::kSketch);
  ASSERT_TRUE(response.has_value());
  EXPECT_EQ(response->status, StatusCode::kBadRequest);
}

TEST_F(RouterTest, OutOfRangeSeedPropagatesBadRequest) {
  StartShards(3);
  StartRouter();
  OracleClient client = RouterClient();
  const auto response =
      client.Query({static_cast<NodeId>(kNumNodes + 100)},
                   QueryMode::kSketch);
  ASSERT_TRUE(response.has_value());
  EXPECT_EQ(response->status, StatusCode::kBadRequest);
}

TEST_F(RouterTest, ExactModeIsServedBySketchMergeAndMarkedDegraded) {
  StartShards(2);
  StartRouter();
  OracleClient client = RouterClient();
  const std::vector<NodeId> seeds = {1, 2, 3};
  const auto response = client.Query(seeds, QueryMode::kExact);
  ASSERT_TRUE(response.has_value());
  EXPECT_EQ(response->status, StatusCode::kOk);
  // The router always merges on the sketch path; an explicit exact ask is
  // answered but flagged.
  EXPECT_TRUE(response->degraded);
  EXPECT_DOUBLE_EQ(response->estimate, full_->EstimateUnionSize(seeds));
}

// Acceptance criterion #2: one shard down -> every answer that needed it is
// a degraded partial with shards_answered = N-1; the router never errors
// while at least one shard can answer.
TEST_F(RouterTest, DeadShardYieldsDegradedPartialsNeverErrors) {
  StartShards(3);
  RouterOptions options;
  options.connect_timeout_ms = 100;
  StartRouter(options);
  StopShard(1);

  OracleClient client = RouterClient();
  // Seeds spanning every shard, so shard 1's subset is always missing.
  std::vector<NodeId> seeds;
  for (NodeId u = 0; u < kNumNodes; ++u) seeds.push_back(u);
  const auto parts = map_->PartitionSeeds(seeds);
  ASSERT_FALSE(parts[1].empty()) << "test graph must give shard 1 seeds";

  for (int i = 0; i < 5; ++i) {
    const auto response = client.Query(seeds, QueryMode::kSketch);
    ASSERT_TRUE(response.has_value());
    EXPECT_EQ(response->status, StatusCode::kOk) << "iteration " << i;
    EXPECT_TRUE(response->degraded);
    EXPECT_EQ(response->shards_total, 3);
    EXPECT_EQ(response->shards_answered, 2);
    EXPECT_LT(response->coverage, 1.0);
    EXPECT_GT(response->coverage, 0.0);
    // Conservative bound: missing seeds only lose rank mass.
    EXPECT_LE(response->estimate, full_->EstimateUnionSize(seeds));
  }

  // Seeds owned entirely by live shards still answer exactly, undegraded.
  std::vector<NodeId> live_seeds;
  for (const NodeId u : parts[0]) live_seeds.push_back(u);
  ASSERT_FALSE(live_seeds.empty());
  const auto response = client.Query(live_seeds, QueryMode::kSketch);
  ASSERT_TRUE(response.has_value());
  EXPECT_EQ(response->status, StatusCode::kOk);
  EXPECT_FALSE(response->degraded);
  EXPECT_DOUBLE_EQ(response->estimate,
                   full_->EstimateUnionSize(live_seeds));
}

TEST_F(RouterTest, AllShardsDownAnswersUnavailableWithRetryHint) {
  StartShards(2);
  RouterOptions options;
  options.connect_timeout_ms = 100;
  StartRouter(options);
  StopShard(0);
  StopShard(1);

  OracleClient client = RouterClient();
  const auto response = client.Query({1, 2, 3}, QueryMode::kSketch);
  ASSERT_TRUE(response.has_value());
  EXPECT_EQ(response->status, StatusCode::kUnavailable);
  EXPECT_GT(response->retry_after_ms, 0);
}

// Acceptance criterion #3: the circuit opens after down_after consecutive
// failures and the prober closes it again once the backend is back.
TEST_F(RouterTest, CircuitOpensOnFailuresAndProbeRecovers) {
  StartShards(3);
  RouterOptions options;
  options.connect_timeout_ms = 100;
  options.health.suspect_after = 1;
  options.health.down_after = 2;
  options.health.probe_interval_ms = 30;
  StartRouter(options);

  StopShard(2);
  OracleClient client = RouterClient();
  std::vector<NodeId> seeds;
  for (NodeId u = 0; u < kNumNodes; ++u) seeds.push_back(u);
  // Each query fans a leg to shard 2 and fails it; two failures open the
  // circuit.
  for (int i = 0; i < 3; ++i) {
    const auto response = client.Query(seeds, QueryMode::kSketch);
    ASSERT_TRUE(response.has_value());
    EXPECT_EQ(response->status, StatusCode::kOk);
    EXPECT_TRUE(response->degraded);
  }
  WaitForShardState(2, ShardState::kDown);

  // With the circuit open the router answers fast partials (the dead leg is
  // skipped, not dialed); liveness is unaffected.
  const auto during = client.Query(seeds, QueryMode::kSketch);
  ASSERT_TRUE(during.has_value());
  EXPECT_EQ(during->status, StatusCode::kOk);
  EXPECT_TRUE(during->degraded);
  EXPECT_EQ(during->shards_answered, 2);

  // Restart the backend: the prober should close the circuit on its own,
  // with no query traffic needed.
  StartShard(2);
  WaitForShardState(2, ShardState::kHealthy);

  const auto after = client.Query(seeds, QueryMode::kSketch);
  ASSERT_TRUE(after.has_value());
  EXPECT_EQ(after->status, StatusCode::kOk);
  EXPECT_FALSE(after->degraded);
  EXPECT_EQ(after->shards_answered, 3);
  EXPECT_DOUBLE_EQ(after->estimate, full_->EstimateUnionSize(seeds));
}

TEST_F(RouterTest, HealthVerbReflectsMapAndStatsCountShards) {
  StartShards(2);
  StartRouter();
  OracleClient client = RouterClient();

  Request health;
  health.method = Method::kHealth;
  std::string error;
  const auto health_response = client.Call(health, &error);
  ASSERT_TRUE(health_response.has_value()) << error;
  EXPECT_EQ(health_response->status, StatusCode::kOk);
  EXPECT_EQ(health_response->epoch, 1u);

  ASSERT_TRUE(client.Query({1, 2}).has_value());  // build the fleet
  Request stats;
  stats.method = Method::kStats;
  const auto stats_response = client.Call(stats, &error);
  ASSERT_TRUE(stats_response.has_value()) << error;
  EXPECT_EQ(stats_response->status, StatusCode::kOk);
  double shards_total = -1.0;
  double shards_healthy = -1.0;
  for (const auto& [name, value] : stats_response->info) {
    if (name == "shards_total") shards_total = value;
    if (name == "shards_healthy") shards_healthy = value;
  }
  EXPECT_DOUBLE_EQ(shards_total, 2.0);
  EXPECT_DOUBLE_EQ(shards_healthy, 2.0);
}

TEST_F(RouterTest, ShardMapReloadRollsBackOnCorruptFile) {
  // A file-backed manager this time, so the reload verb has a file to read.
  const std::string map_path =
      ::testing::TempDir() + "/ipin_rt_" + tag_ + "_map.json";
  StartShards(2);
  {
    std::ofstream out(map_path, std::ios::trunc);
    out << map_->ToJson() << '\n';
  }
  manager_ = std::make_unique<ShardMapManager>(map_path);
  ASSERT_EQ(manager_->Reload(), ReloadStatus::kOk);
  StartRouter();

  OracleClient client = RouterClient();
  const auto before = client.Query({1, 2, 3}, QueryMode::kSketch);
  ASSERT_TRUE(before.has_value());
  ASSERT_EQ(before->status, StatusCode::kOk);

  {
    std::ofstream out(map_path, std::ios::trunc);
    out << "corrupt {{{" << '\n';
  }
  Request reload;
  reload.method = Method::kReload;
  std::string error;
  const auto reload_response = client.Call(reload, &error);
  ASSERT_TRUE(reload_response.has_value()) << error;
  EXPECT_EQ(reload_response->status, StatusCode::kOk);
  double rolled_back = -1.0;
  for (const auto& [name, value] : reload_response->info) {
    if (name == "rolled_back") rolled_back = value;
  }
  EXPECT_DOUBLE_EQ(rolled_back, 1.0);
  EXPECT_EQ(reload_response->epoch, 1u) << "old epoch keeps routing";

  // And the old map still answers exactly.
  const std::vector<NodeId> seeds = {1, 2, 3};
  const auto after = client.Query(seeds, QueryMode::kSketch);
  ASSERT_TRUE(after.has_value());
  EXPECT_EQ(after->status, StatusCode::kOk);
  EXPECT_DOUBLE_EQ(after->estimate, full_->EstimateUnionSize(seeds));
  std::remove(map_path.c_str());
}

TEST_F(RouterTest, MergeFailpointAnswersInternal) {
  StartShards(2);
  StartRouter();
  OracleClient client = RouterClient();
  failpoint::Set("serve.shard.merge", "error");
  const auto response = client.Query({1, 2, 3}, QueryMode::kSketch);
  ASSERT_TRUE(response.has_value());
  EXPECT_EQ(response->status, StatusCode::kInternal);
  failpoint::Clear("serve.shard.merge");
  const auto recovered = client.Query({1, 2, 3}, QueryMode::kSketch);
  ASSERT_TRUE(recovered.has_value());
  EXPECT_EQ(recovered->status, StatusCode::kOk);
}

// The failpoint satellite: serve.shard.rpc=error_prob(p) under a fixed
// IPIN_FAILPOINT_SEED yields a deterministic fault schedule — re-arming with
// the same seed replays the exact same sequence of statuses.
TEST_F(RouterTest, RpcFailpointScheduleReplaysFromSeed) {
  StartShards(2);
  RouterOptions options;
  options.connect_timeout_ms = 100;
  // The circuit must never open during the run: an open circuit skips legs
  // without drawing from the failpoint PRNG, which would couple the
  // schedule to probe timing.
  options.health.suspect_after = 1000000;
  options.health.down_after = 1000000;
  StartRouter(options);

  setenv("IPIN_FAILPOINT_SEED", "424242", 1);
  const auto run_once = [&] {
    // Re-arming resets the failpoint PRNG to the seeded start.
    failpoint::Set("serve.shard.rpc", "error_prob(0.5)");
    OracleClient client = RouterClient();
    // Single-seed queries: exactly one leg, hence exactly one PRNG draw per
    // query — the schedule maps 1:1 onto the status sequence.
    std::string statuses;
    for (int i = 0; i < 40; ++i) {
      const auto response =
          client.Query({static_cast<NodeId>(i % kNumNodes)},
                       QueryMode::kSketch);
      if (!response.has_value()) {
        statuses += '?';
      } else if (response->status == StatusCode::kOk) {
        statuses += response->degraded ? 'd' : 'o';
      } else {
        statuses += 'u';
      }
    }
    failpoint::Clear("serve.shard.rpc");
    return statuses;
  };

  const std::string first = run_once();
  const std::string second = run_once();
  EXPECT_EQ(first, second) << "same seed must replay the same schedule";
  // The schedule injected faults and let successes through (p=0.5 over 40
  // draws makes an all-one-way run vanishingly unlikely).
  EXPECT_NE(first.find('u'), std::string::npos);
  EXPECT_NE(first.find('o'), std::string::npos);
  unsetenv("IPIN_FAILPOINT_SEED");
}

TEST_F(RouterTest, LegRecordsLandInFlightRecorderWithShardTag) {
  StartShards(2);
  StartRouter();
  OracleClient client = RouterClient();
  ASSERT_TRUE(client.Query({1, 2, 3, 40, 50}).has_value());

  // One overall record (shard=-1) plus one record per answering leg, all
  // sharing the request's trace id.
  const auto records = router_->flight_recorder().RecentSnapshot();
  ASSERT_FALSE(records.empty());
  bool saw_overall = false;
  bool saw_leg = false;
  for (const auto& record : records) {
    if (record.shard < 0) saw_overall = true;
    if (record.shard >= 0) {
      saw_leg = true;
      EXPECT_LT(record.shard, 2);
    }
  }
  EXPECT_TRUE(saw_overall);
  EXPECT_TRUE(saw_leg);
  EXPECT_NE(router_->DebugDump().find("\"shard\""), std::string::npos);
}

// Record before respond: the overall record and every leg record of a
// request are in the recorder by the time its reply reaches the client. A
// record written after the reply loses this race now and then; 200 rounds
// make that loss near-certain to show.
TEST_F(RouterTest, RecordsArePublishedBeforeTheReply) {
  StartShards(2);
  StartRouter();
  OracleClient client = RouterClient();
  for (int round = 0; round < 200; ++round) {
    const auto response = client.Query({1, 2, 3, 40, 50});
    ASSERT_TRUE(response.has_value()) << "round " << round;
    const uint64_t trace_id = client.last_trace_id();
    bool saw_overall = false;
    size_t legs = 0;
    for (const auto& record : router_->flight_recorder().RecentSnapshot()) {
      if (record.trace_id != trace_id) continue;
      if (record.shard < 0) {
        saw_overall = true;
      } else {
        ++legs;
      }
    }
    ASSERT_TRUE(saw_overall) << "round " << round;
    ASSERT_EQ(legs, 2u) << "round " << round;
  }
}

// --- Live resharding: double-dispatch, replica failover, fleet swaps ------

// The zero-downtime tentpole, in-process: growing the fleet with a
// transition block keeps every answer bit-identical to the single index
// even while the new shards' backends DO NOT EXIST YET — moved seeds fall
// back to their old owners.
TEST_F(RouterTest, DoubleDispatchKeepsAnswersExactDuringReshard) {
  StartShards(2);
  RouterOptions options;
  options.connect_timeout_ms = 100;
  options.health.suspect_after = 1;
  options.health.down_after = 2;
  options.health.probe_interval_ms = 30;
  StartRouter(options);
  OracleClient client = RouterClient();

  std::vector<ShardInfo> grown_infos(3);
  for (size_t i = 0; i < 2; ++i) {
    grown_infos[i].name = "shard" + std::to_string(i);
    grown_infos[i].endpoint.unix_socket_path = socket_paths_[i];
  }
  grown_infos[2].name = "shard2";
  grown_infos[2].endpoint.unix_socket_path = ShardSocket(2);
  auto grown = std::make_shared<ShardMap>(grown_infos);
  grown->BeginTransition(map_);
  std::vector<NodeId> all_seeds;
  for (NodeId u = 0; u < kNumNodes; ++u) all_seeds.push_back(u);
  ASSERT_FALSE(grown->PartitionSeeds(all_seeds)[2].empty())
      << "the grown map must move some seeds to shard2";
  manager_->Install(grown);

  // Every instant of the transition answers exactly, repeatedly (the
  // health tracker is meanwhile marking the absent shard2 down — neither
  // state may cost coverage).
  for (int i = 0; i < 5; ++i) {
    const auto response = client.Query(all_seeds, QueryMode::kSketch);
    ASSERT_TRUE(response.has_value());
    EXPECT_EQ(response->status, StatusCode::kOk) << "iteration " << i;
    EXPECT_FALSE(response->degraded) << "iteration " << i;
    EXPECT_DOUBLE_EQ(response->coverage, 1.0);
    EXPECT_DOUBLE_EQ(response->estimate,
                     full_->EstimateUnionSize(all_seeds));
  }

  // Topk merges across BOTH epochs' fleets and dedupes moved nodes.
  Request topk;
  topk.method = Method::kTopk;
  topk.k = 5;
  std::string error;
  const auto topk_response = client.Call(topk, &error);
  ASSERT_TRUE(topk_response.has_value()) << error;
  EXPECT_EQ(topk_response->status, StatusCode::kOk);
  EXPECT_FALSE(topk_response->degraded);
  ASSERT_EQ(topk_response->topk.size(), 5u);

  // The admin verb reports the transition.
  Request status;
  status.method = Method::kReshardStatus;
  const auto mid = client.Call(status, &error);
  ASSERT_TRUE(mid.has_value()) << error;
  double in_transition = -1.0, shards = -1.0, prev_shards = -1.0;
  for (const auto& [name, value] : mid->info) {
    if (name == "in_transition") in_transition = value;
    if (name == "shards") shards = value;
    if (name == "prev_shards") prev_shards = value;
  }
  EXPECT_DOUBLE_EQ(in_transition, 1.0);
  EXPECT_DOUBLE_EQ(shards, 3.0);
  EXPECT_DOUBLE_EQ(prev_shards, 2.0);

  // Materialize shard2, finalize the map: still exact, transition gone.
  socket_paths_.push_back(grown_infos[2].endpoint.unix_socket_path);
  auto index = std::make_unique<IndexManager>("");
  index->Install(std::make_shared<const IrsApprox>(
      ExtractShardIndex(*full_, *grown, 2)));
  shard_indexes_.push_back(std::move(index));
  shard_servers_.push_back(nullptr);
  StartShard(2);
  manager_->Install(std::make_shared<const ShardMap>(grown_infos));

  const auto after = client.Query(all_seeds, QueryMode::kSketch);
  ASSERT_TRUE(after.has_value());
  EXPECT_EQ(after->status, StatusCode::kOk);
  EXPECT_FALSE(after->degraded);
  EXPECT_DOUBLE_EQ(after->estimate, full_->EstimateUnionSize(all_seeds));
  const auto done = client.Call(status, &error);
  ASSERT_TRUE(done.has_value()) << error;
  for (const auto& [name, value] : done->info) {
    if (name == "in_transition") { EXPECT_DOUBLE_EQ(value, 0.0); }
    if (name == "shards") { EXPECT_DOUBLE_EQ(value, 3.0); }
    if (name == "prev_shards") { EXPECT_DOUBLE_EQ(value, 0.0); }
  }
}

// Replica failover end to end: a replica backend keeps the shard's answers
// exact through the primary's death, and the primary takes traffic back
// once probes see it healthy.
TEST_F(RouterTest, ReplicaFailoverKeepsShardAnswersExact) {
  StartShards(2);
  std::vector<ShardInfo> infos(2);
  for (size_t i = 0; i < 2; ++i) {
    infos[i].name = "shard" + std::to_string(i);
    infos[i].endpoint.unix_socket_path = socket_paths_[i];
  }
  const std::string replica_socket = ShardSocket(9);
  infos[0].replicas.push_back(
      ShardEndpoint{.unix_socket_path = replica_socket});
  auto with_replica = std::make_shared<const ShardMap>(infos);
  manager_->Install(with_replica);

  // The replica serves the SAME shard-0 slice on its own socket.
  ServerOptions replica_options;
  replica_options.unix_socket_path = replica_socket;
  replica_options.num_workers = 2;
  OracleServer replica_server(shard_indexes_[0].get(), replica_options);
  ASSERT_TRUE(replica_server.Start());

  RouterOptions options;
  options.connect_timeout_ms = 100;
  options.health.suspect_after = 1;
  options.health.down_after = 2;
  options.health.probe_interval_ms = 30;
  StartRouter(options);
  OracleClient client = RouterClient();

  std::vector<NodeId> all_seeds;
  for (NodeId u = 0; u < kNumNodes; ++u) all_seeds.push_back(u);
  const auto shard0_seeds = with_replica->PartitionSeeds(all_seeds)[0];
  ASSERT_FALSE(shard0_seeds.empty());
  const double truth = full_->EstimateUnionSize(shard0_seeds);

  const auto before = client.Query(shard0_seeds, QueryMode::kSketch);
  ASSERT_TRUE(before.has_value());
  ASSERT_DOUBLE_EQ(before->estimate, truth);

  // Kill the primary. Failover is promotion, not hedging: once the health
  // tracker moves the active endpoint, EVERY leg dials the replica, so
  // answers return to exact and stay there.
  StopShard(0);
  bool promoted = false;
  int unavailable = 0;
  for (int spin = 0; spin < 300; ++spin) {
    const auto response = client.Query(shard0_seeds, QueryMode::kSketch);
    ASSERT_TRUE(response.has_value());
    // Until down_after consecutive failures open the primary's circuit the
    // shard0-only request has zero answering legs — UNAVAILABLE, by the
    // partial-result contract. Promotion must then end the outage; nothing
    // other than that brief window may surface.
    if (response->status == StatusCode::kUnavailable) {
      ++unavailable;
      EXPECT_FALSE(promoted) << "no outage after the replica took over";
    } else {
      ASSERT_EQ(response->status, StatusCode::kOk);
      if (!response->degraded && response->estimate == truth) {
        promoted = true;
        break;
      }
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
  }
  EXPECT_TRUE(promoted) << "replica was never promoted";
  // The detection window is bounded by the circuit threshold: one failed
  // query per remaining allowed failure, not a lingering outage.
  EXPECT_LE(unavailable, options.health.down_after);

  // Restart the primary: probes demote the replica; exactness holds across
  // the switch-back.
  StartShard(0);
  for (int i = 0; i < 20; ++i) {
    const auto response = client.Query(shard0_seeds, QueryMode::kSketch);
    ASSERT_TRUE(response.has_value());
    EXPECT_EQ(response->status, StatusCode::kOk);
    if (!response->degraded) { EXPECT_DOUBLE_EQ(response->estimate, truth); }
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
  }
  replica_server.Shutdown();
  std::remove(replica_socket.c_str());
}

// Satellite: probe recovery racing a reshard install. A shard dies, the
// circuit opens, and WHILE it is down the map is swapped for a transition
// map (fleet replacement). The new fleet's prober must still recover the
// restarted shard, and the transition must hold coverage at 1 throughout.
TEST_F(RouterTest, ProbeRecoveryRacesReshardInstall) {
  StartShards(3);
  RouterOptions options;
  options.connect_timeout_ms = 100;
  options.health.suspect_after = 1;
  options.health.down_after = 2;
  options.health.probe_interval_ms = 30;
  StartRouter(options);
  OracleClient client = RouterClient();

  std::vector<NodeId> all_seeds;
  for (NodeId u = 0; u < kNumNodes; ++u) all_seeds.push_back(u);
  StopShard(1);
  for (int i = 0; i < 3; ++i) {
    ASSERT_TRUE(client.Query(all_seeds, QueryMode::kSketch).has_value());
  }
  WaitForShardState(1, ShardState::kDown);

  // Mid-outage fleet replacement: grow 3 -> 4 with shard3 backendless.
  std::vector<ShardInfo> grown_infos(4);
  for (size_t i = 0; i < 3; ++i) {
    grown_infos[i].name = "shard" + std::to_string(i);
    grown_infos[i].endpoint.unix_socket_path = socket_paths_[i];
  }
  grown_infos[3].name = "shard3";
  grown_infos[3].endpoint.unix_socket_path = ShardSocket(3);
  auto grown = std::make_shared<ShardMap>(grown_infos);
  grown->BeginTransition(map_);
  manager_->Install(grown);

  // Restart the dead shard: the REPLACED fleet's probes (its health state
  // started fresh) must pick it up, and with the fallback legs covering
  // shard3 the answer converges back to exact.
  StartShard(1);
  bool recovered = false;
  for (int spin = 0; spin < 300; ++spin) {
    const auto response = client.Query(all_seeds, QueryMode::kSketch);
    ASSERT_TRUE(response.has_value());
    EXPECT_EQ(response->status, StatusCode::kOk);
    if (!response->degraded &&
        response->estimate == full_->EstimateUnionSize(all_seeds)) {
      recovered = true;
      break;
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
  }
  EXPECT_TRUE(recovered)
      << "reshard install while a shard was down broke probe recovery";
}

// Satellite: a fleet replacement resets the circuit breaker. A down shard
// whose backend is already back answers the FIRST query after the map swap
// — the new fleet must not inherit the open circuit and wait for a probe.
TEST_F(RouterTest, FleetReplacementResetsTheCircuitBreaker) {
  StartShards(2);
  RouterOptions options;
  options.connect_timeout_ms = 100;
  options.health.suspect_after = 1;
  options.health.down_after = 2;
  options.health.probe_interval_ms = 60000;  // probes can't help here
  StartRouter(options);
  OracleClient client = RouterClient();

  std::vector<NodeId> all_seeds;
  for (NodeId u = 0; u < kNumNodes; ++u) all_seeds.push_back(u);
  StopShard(1);
  for (int i = 0; i < 3; ++i) {
    ASSERT_TRUE(client.Query(all_seeds, QueryMode::kSketch).has_value());
  }
  WaitForShardState(1, ShardState::kDown);
  StartShard(1);

  // With the probe interval effectively infinite, only the fleet swap can
  // close the circuit.
  manager_->Install(std::make_shared<const ShardMap>(*map_));
  const auto response = client.Query(all_seeds, QueryMode::kSketch);
  ASSERT_TRUE(response.has_value());
  EXPECT_EQ(response->status, StatusCode::kOk);
  EXPECT_FALSE(response->degraded);
  EXPECT_DOUBLE_EQ(response->estimate, full_->EstimateUnionSize(all_seeds));
}

// --- The event-loop data plane: pipelined legs, framing, slow consumers ---

// Differential test of the pipelined scatter-gather against the single full
// index: seeded random seed sets (|S| in [1, 200]), 1-5 shards, random
// reshard (double-dispatch) plans, and 80 requests pipelined on ONE client
// connection, so replies come back correlated by id in whatever order the
// legs land. Every estimate and rank vector must be bit-equal to the full
// index, and every topk must match its order.
TEST_F(RouterTest, MatchesSingleIndexOverRandomSeedSetsAndReshardPlans) {
  const size_t beta = size_t{1} << full_->options().precision;
  std::vector<std::pair<NodeId, double>> ranking;
  for (NodeId u = 0; u < full_->num_nodes(); ++u) {
    if (full_->Sketch(u)) ranking.emplace_back(u, full_->Sketch(u).Estimate());
  }
  std::sort(ranking.begin(), ranking.end(), [](const auto& a, const auto& b) {
    if (a.second != b.second) return a.second > b.second;
    return a.first < b.first;
  });

  Rng rng(20261019);
  for (int plan = 0; plan < 6; ++plan) {
    SCOPED_TRACE("plan " + std::to_string(plan));
    if (router_ != nullptr) router_->Shutdown();
    for (auto& server : shard_servers_) {
      if (server != nullptr) server->Shutdown();
    }
    const size_t old_shards = 1 + rng.NextBounded(5);
    StartShards(old_shards);
    // Every other plan is a live reshard to 1-5 new shards, whose backends
    // serve their slices of the grown (or shrunk) map.
    if (plan % 2 == 1) {
      const size_t new_shards = 1 + rng.NextBounded(5);
      std::vector<ShardInfo> infos(new_shards);
      for (size_t i = 0; i < new_shards; ++i) {
        infos[i].name = "next" + std::to_string(i);
        infos[i].endpoint.unix_socket_path = ShardSocket(10 + i);
      }
      auto next = std::make_shared<ShardMap>(infos);
      next->BeginTransition(map_);
      for (size_t i = 0; i < new_shards; ++i) {
        socket_paths_.push_back(infos[i].endpoint.unix_socket_path);
        auto index = std::make_unique<IndexManager>("");
        index->Install(std::make_shared<const IrsApprox>(
            ExtractShardIndex(*full_, *next, i)));
        shard_indexes_.push_back(std::move(index));
        shard_servers_.push_back(nullptr);
        StartShard(shard_servers_.size() - 1);
      }
      manager_->Install(next);
    }
    constexpr int kRequests = 80;
    RouterOptions options;
    options.queue_capacity = 2 * kRequests;  // admit the whole pipeline
    StartRouter(options);

    std::map<int64_t, Request> sent;
    std::string burst;
    for (int r = 1; r <= kRequests; ++r) {
      Request request;
      request.id = r;
      request.deadline_ms = 10000;
      if (rng.NextBounded(8) == 0) {
        request.method = Method::kTopk;
        request.k = 1 + static_cast<int64_t>(rng.NextBounded(10));
      } else {
        request.mode = QueryMode::kSketch;
        request.want_ranks = rng.NextBounded(2) == 0;
        const size_t size = 1 + rng.NextBounded(200);
        for (size_t i = 0; i < size; ++i) {
          request.seeds.push_back(
              static_cast<NodeId>(rng.NextBounded(kNumNodes)));
        }
      }
      burst += SerializeRequest(request);
      sent.emplace(r, std::move(request));
    }
    const int fd = ConnectUnix(router_socket_);
    ASSERT_GE(fd, 0);
    ASSERT_TRUE(SendAll(fd, burst));
    const std::vector<std::string> lines = ReadLines(fd, kRequests);
    ::close(fd);
    ASSERT_EQ(lines.size(), static_cast<size_t>(kRequests));

    std::set<int64_t> seen;
    for (const std::string& line : lines) {
      const auto response = ParseResponse(line);
      ASSERT_TRUE(response.has_value()) << line;
      ASSERT_TRUE(seen.insert(response->id).second) << "duplicate " << line;
      const auto it = sent.find(response->id);
      ASSERT_NE(it, sent.end()) << line;
      const Request& request = it->second;
      ASSERT_EQ(response->status, StatusCode::kOk) << line;
      EXPECT_FALSE(response->degraded) << line;
      EXPECT_EQ(response->coverage, 1.0) << line;
      if (request.method == Method::kTopk) {
        const size_t k = std::min<size_t>(request.k, ranking.size());
        ASSERT_EQ(response->topk.size(), k) << line;
        for (size_t i = 0; i < k; ++i) {
          EXPECT_EQ(response->topk[i].first, ranking[i].first) << line;
          EXPECT_EQ(response->topk[i].second, ranking[i].second) << line;
        }
        continue;
      }
      EXPECT_EQ(response->estimate, full_->EstimateUnionSize(request.seeds))
          << line;
      if (request.want_ranks) {
        std::vector<uint8_t> ranks(beta, 0);
        for (const NodeId u : request.seeds) {
          const SketchView sketch = full_->Sketch(u);
          if (!sketch) continue;
          for (size_t c = 0; c < beta; ++c) {
            ranks[c] = std::max(ranks[c], sketch.max_ranks()[c]);
          }
        }
        EXPECT_EQ(response->ranks, ranks) << line;
      } else {
        EXPECT_TRUE(response->ranks.empty()) << line;
      }
    }
  }
}

// Line framing on the router's loops: a request dribbled in 1-byte writes,
// a batch of requests in one write, and a line over kMaxLineBytes, which
// drops the connection.
TEST_F(RouterTest, LineFramingHandlesSplitBatchedAndOversizedLines) {
  StartShards(2);
  StartRouter();
  const std::vector<NodeId> seeds = {1, 2, 3, 40, 50};
  const double truth = full_->EstimateUnionSize(seeds);

  int fd = ConnectUnix(router_socket_);
  ASSERT_GE(fd, 0);
  Request request;
  request.id = 7;
  request.mode = QueryMode::kSketch;
  request.seeds = seeds;
  const std::string line = SerializeRequest(request);
  for (const char byte : line) {
    ASSERT_TRUE(SendAll(fd, std::string(1, byte)));
  }
  auto lines = ReadLines(fd, 1);
  ASSERT_EQ(lines.size(), 1u);
  auto response = ParseResponse(lines[0]);
  ASSERT_TRUE(response.has_value()) << lines[0];
  EXPECT_EQ(response->id, 7);
  EXPECT_EQ(response->estimate, truth);

  std::string batch;
  for (int i = 1; i <= 30; ++i) {
    request.id = 100 + i;
    batch += SerializeRequest(request);
    batch += i % 3 == 0 ? "\n" : "";  // blank lines are skipped
  }
  ASSERT_TRUE(SendAll(fd, batch));
  lines = ReadLines(fd, 30);
  ASSERT_EQ(lines.size(), 30u);
  std::set<int64_t> ids;
  for (const std::string& reply : lines) {
    response = ParseResponse(reply);
    ASSERT_TRUE(response.has_value()) << reply;
    EXPECT_EQ(response->status, StatusCode::kOk);
    EXPECT_EQ(response->estimate, truth);
    ids.insert(response->id);
  }
  EXPECT_EQ(ids.size(), 30u);

  // An unterminated line past kMaxLineBytes: the router hangs up.
  const std::string huge(kMaxLineBytes + 4096, 'x');
  SendAll(fd, huge);  // may fail part-way once the router has hung up
  char byte;
  EXPECT_LE(::recv(fd, &byte, 1, 0), 0);
  ::close(fd);

  // The router itself is unaffected.
  OracleClient client = RouterClient();
  const auto after = client.Query(seeds, QueryMode::kSketch);
  ASSERT_TRUE(after.has_value());
  EXPECT_EQ(after->estimate, truth);
}

// Mirror of ServeServerTest.SlowConsumerIsCutOffNotWedgingServer: the
// router's nonblocking write path must cut off a client that pipelines
// requests but never reads, keep serving everyone else, and shut down in
// bounded time.
TEST_F(RouterTest, SlowConsumerIsCutOffNotWedgingRouter) {
  StartShards(2);
  RouterOptions options;
  options.write_timeout_ms = 100;
  StartRouter(options);

  const int fd = ConnectUnix(router_socket_);
  ASSERT_GE(fd, 0);
  const int flags = ::fcntl(fd, F_GETFL, 0);
  ::fcntl(fd, F_SETFL, flags | O_NONBLOCK);
  const std::string request = "{\"method\": \"health\"}\n";
  std::string chunk;
  for (int i = 0; i < 64; ++i) chunk += request;
  size_t sent = 0;
  // Push until our own send buffer jams (router stopped consuming) or we
  // have pushed far more than any buffer chain holds.
  for (int spins = 0; sent < (8u << 20) && spins < 200;) {
    const ssize_t n = ::send(fd, chunk.data(), chunk.size(), MSG_NOSIGNAL);
    if (n > 0) {
      sent += static_cast<size_t>(n);
      spins = 0;
    } else if (errno == EAGAIN || errno == EWOULDBLOCK) {
      ++spins;
      std::this_thread::sleep_for(std::chrono::milliseconds(5));
    } else {
      break;  // reset by the router: it already cut us off
    }
  }

  OracleClient client = RouterClient();
  const std::vector<NodeId> seeds = {1, 2, 40};
  const auto response = client.Query(seeds, QueryMode::kSketch);
  ASSERT_TRUE(response.has_value());
  EXPECT_EQ(response->status, StatusCode::kOk);
  EXPECT_EQ(response->estimate, full_->EstimateUnionSize(seeds));

  const auto start = std::chrono::steady_clock::now();
  router_->Shutdown();
  const auto elapsed = std::chrono::steady_clock::now() - start;
  EXPECT_LT(std::chrono::duration_cast<std::chrono::milliseconds>(elapsed)
                .count(),
            3000);
  ::close(fd);
}

}  // namespace
}  // namespace ipin::serve
