#include "ipin/serve/server.h"

#include <fcntl.h>
#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cerrno>
#include <chrono>
#include <cstdio>
#include <cstring>
#include <memory>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "ipin/common/failpoint.h"
#include "ipin/common/json.h"
#include "ipin/common/logging.h"
#include "ipin/core/influence_oracle.h"
#include "ipin/core/oracle_io.h"
#include "ipin/datasets/synthetic.h"
#include "ipin/obs/metrics.h"
#include "ipin/serve/client.h"
#include "ipin/sketch/estimators.h"

namespace ipin::serve {
namespace {

constexpr size_t kNumNodes = 40;

// Raw blocking Unix-socket connection, for tests that need to speak the wire
// protocol in ways the client library deliberately does not (pipelining,
// never reading).
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

// In-process server over a Unix-domain socket in TempDir, talked to with the
// real client library — the full wire path minus process isolation.
class ServeServerTest : public ::testing::Test {
 protected:
  void SetUp() override {
    SetLogLevel(LogLevel::kError);
    const std::string tag = std::to_string(reinterpret_cast<uintptr_t>(this));
    socket_path_ = ::testing::TempDir() + "/ipin_srv_" + tag + ".sock";
    graph_ = GenerateUniformRandomNetwork(kNumNodes, 400, 1000, 3);
    IrsApproxOptions options;
    options.precision = 5;
    index_ = std::make_unique<IndexManager>("");
    index_->Install(std::make_shared<const IrsApprox>(
        IrsApprox::Compute(graph_, 200, options)));
  }

  void TearDown() override {
    if (server_ != nullptr) server_->Shutdown();
    failpoint::ClearAll();
    std::remove(socket_path_.c_str());
  }

  void StartServer(ServerOptions options = {}) {
    options.unix_socket_path = socket_path_;
    server_ = std::make_unique<OracleServer>(index_.get(), options);
    ASSERT_TRUE(server_->Start());
  }

  void LoadExact() {
    index_->SetExact(
        std::make_shared<const IrsExact>(IrsExact::Compute(graph_, 200)));
  }

  ClientOptions MakeClientOptions() const {
    ClientOptions options;
    options.unix_socket_path = socket_path_;
    options.max_attempts = 3;
    options.backoff_initial_ms = 5;
    return options;
  }

  std::string socket_path_;
  InteractionGraph graph_;
  std::unique_ptr<IndexManager> index_;
  std::unique_ptr<OracleServer> server_;
};

TEST_F(ServeServerTest, AnswersSketchQuery) {
  StartServer();
  OracleClient client(MakeClientOptions());
  const std::vector<NodeId> seeds = {1, 2, 3};
  const auto response = client.Query(seeds, QueryMode::kSketch);
  ASSERT_TRUE(response.has_value());
  EXPECT_EQ(response->status, StatusCode::kOk);
  EXPECT_FALSE(response->degraded);
  EXPECT_EQ(response->epoch, 1u);
  EXPECT_DOUBLE_EQ(response->estimate,
                   index_->Current()->EstimateUnionSize(seeds));
}

TEST_F(ServeServerTest, AutoPrefersExactWhenLoaded) {
  LoadExact();
  StartServer();
  OracleClient client(MakeClientOptions());
  const std::vector<NodeId> seeds = {1, 2, 3};
  const auto response = client.Query(seeds, QueryMode::kAuto);
  ASSERT_TRUE(response.has_value());
  EXPECT_EQ(response->status, StatusCode::kOk);
  EXPECT_FALSE(response->degraded);
  const ExactInfluenceOracle oracle(index_->Exact().get());
  EXPECT_DOUBLE_EQ(response->estimate, oracle.InfluenceOfSet(seeds));
}

TEST_F(ServeServerTest, ExactModeWithoutExactMapDegrades) {
  StartServer();
  OracleClient client(MakeClientOptions());
  const std::vector<NodeId> seeds = {1, 2, 3};
  const auto response = client.Query(seeds, QueryMode::kExact);
  ASSERT_TRUE(response.has_value());
  EXPECT_EQ(response->status, StatusCode::kOk);
  EXPECT_TRUE(response->degraded);  // served from the sketch instead
  EXPECT_DOUBLE_EQ(response->estimate,
                   index_->Current()->EstimateUnionSize(seeds));
}

TEST_F(ServeServerTest, AutoWithoutExactMapIsNotDegraded) {
  StartServer();
  OracleClient client(MakeClientOptions());
  const auto response = client.Query({4, 5}, QueryMode::kAuto);
  ASSERT_TRUE(response.has_value());
  EXPECT_EQ(response->status, StatusCode::kOk);
  EXPECT_FALSE(response->degraded);  // sketch-only service is the norm
}

TEST_F(ServeServerTest, EvalFaultDegradesToSketch) {
  LoadExact();
  StartServer();
  ASSERT_TRUE(failpoint::Set("serve.eval", "error"));
  OracleClient client(MakeClientOptions());
  const std::vector<NodeId> seeds = {1, 2, 3};
  const auto response = client.Query(seeds, QueryMode::kExact);
  ASSERT_TRUE(response.has_value());
  EXPECT_EQ(response->status, StatusCode::kOk);
  EXPECT_TRUE(response->degraded);
  EXPECT_DOUBLE_EQ(response->estimate,
                   index_->Current()->EstimateUnionSize(seeds));
}

TEST_F(ServeServerTest, SlowExactEvalDegradesWithinDeadline) {
  LoadExact();
  ServerOptions options;
  options.exact_budget_ms = 20;
  StartServer(options);
  // The injected 50 ms stall burns the exact budget; the request deadline
  // (500 ms) still has room for the sketch fallback.
  ASSERT_TRUE(failpoint::Set("serve.eval", "delay(50)"));
  OracleClient client(MakeClientOptions());
  const auto response =
      client.Query({1, 2, 3}, QueryMode::kExact, /*deadline_ms=*/500);
  ASSERT_TRUE(response.has_value());
  EXPECT_EQ(response->status, StatusCode::kOk);
  EXPECT_TRUE(response->degraded);
}

TEST_F(ServeServerTest, DeadlineExceededWhenEvalOutlivesIt) {
  LoadExact();
  StartServer();
  // 60 ms stall against a 10 ms deadline: even the fallback answer arrives
  // too late to be truthful about.
  ASSERT_TRUE(failpoint::Set("serve.eval", "delay(60)"));
  OracleClient client(MakeClientOptions());
  const auto response =
      client.Query({1, 2, 3}, QueryMode::kExact, /*deadline_ms=*/10);
  ASSERT_TRUE(response.has_value());
  EXPECT_EQ(response->status, StatusCode::kDeadlineExceeded);
}

TEST_F(ServeServerTest, SeedOutOfRangeIsBadRequest) {
  StartServer();
  OracleClient client(MakeClientOptions());
  const auto response = client.Query({static_cast<NodeId>(kNumNodes + 5)});
  ASSERT_TRUE(response.has_value());
  EXPECT_EQ(response->status, StatusCode::kBadRequest);
  EXPECT_EQ(response->error, "seed out of range");
}

TEST_F(ServeServerTest, HealthAndStatsAnswerInline) {
  StartServer();
  OracleClient client(MakeClientOptions());

  Request health;
  health.method = Method::kHealth;
  auto response = client.Call(health);
  ASSERT_TRUE(response.has_value());
  EXPECT_EQ(response->status, StatusCode::kOk);
  EXPECT_EQ(response->epoch, 1u);

  Request stats;
  stats.method = Method::kStats;
  response = client.Call(stats);
  ASSERT_TRUE(response.has_value());
  ASSERT_EQ(response->status, StatusCode::kOk);
  double num_nodes = -1.0, queue_capacity = -1.0;
  for (const auto& [key, value] : response->info) {
    if (key == "num_nodes") num_nodes = value;
    if (key == "queue_capacity") queue_capacity = value;
  }
  EXPECT_DOUBLE_EQ(num_nodes, static_cast<double>(kNumNodes));
  EXPECT_DOUBLE_EQ(queue_capacity,
                   static_cast<double>(server_->options().queue_capacity));
}

TEST_F(ServeServerTest, SequentialQueriesOnOneConnectionAllAnswered) {
  StartServer();
  OracleClient client(MakeClientOptions());
  for (int i = 0; i < 20; ++i) {
    const auto response = client.Query({static_cast<NodeId>(i % kNumNodes)});
    ASSERT_TRUE(response.has_value());
    EXPECT_EQ(response->status, StatusCode::kOk);
  }
}

TEST_F(ServeServerTest, PipelinedQueriesCorrelateById) {
  StartServer();
  const int fd = ConnectUnix(socket_path_);
  ASSERT_GE(fd, 0);

  // One burst of 20 queries with distinct ids. The worker pool may answer
  // them in any order (protocol.h documents no ordering guarantee); every
  // id must come back exactly once with an OK answer.
  constexpr int kRequests = 20;
  std::string burst;
  for (int i = 1; i <= kRequests; ++i) {
    Request request;
    request.id = i;
    request.seeds = {static_cast<NodeId>(i % kNumNodes)};
    request.deadline_ms = 5000;
    burst += SerializeRequest(request);
  }
  ASSERT_TRUE(SendAll(fd, burst));

  const std::vector<std::string> lines = ReadLines(fd, kRequests);
  ASSERT_EQ(lines.size(), static_cast<size_t>(kRequests));
  std::set<int64_t> ids;
  for (const std::string& line : lines) {
    const auto response = ParseResponse(line);
    ASSERT_TRUE(response.has_value()) << line;
    EXPECT_EQ(response->status, StatusCode::kOk) << line;
    ids.insert(response->id);
  }
  EXPECT_EQ(ids.size(), static_cast<size_t>(kRequests));
  EXPECT_EQ(*ids.begin(), 1);
  EXPECT_EQ(*ids.rbegin(), kRequests);
  ::close(fd);
}

TEST_F(ServeServerTest, SlowConsumerIsCutOffNotWedgingServer) {
  ServerOptions options;
  options.write_timeout_ms = 100;
  StartServer(options);

  // Abusive peer: pipelines health probes but never reads a byte. Once the
  // socket buffers fill, the reader's bounded write times out, the
  // connection is marked broken and torn down.
  const int fd = ConnectUnix(socket_path_);
  ASSERT_GE(fd, 0);
  const int flags = ::fcntl(fd, F_GETFL, 0);
  ::fcntl(fd, F_SETFL, flags | O_NONBLOCK);
  const std::string request = "{\"method\": \"health\"}\n";
  std::string chunk;
  for (int i = 0; i < 64; ++i) chunk += request;
  size_t sent = 0;
  // Push until our own send buffer jams (server stopped consuming) or we
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
      break;  // reset by the server: it already cut us off
    }
  }

  // Other clients keep getting answers while/after the abuser is cut off.
  OracleClient client(MakeClientOptions());
  const auto response = client.Query({1, 2});
  ASSERT_TRUE(response.has_value());
  EXPECT_EQ(response->status, StatusCode::kOk);

  // And shutdown stays bounded: without the write timeout the abuser's
  // reader thread would be stuck in send() forever and this would hang.
  const auto start = std::chrono::steady_clock::now();
  server_->Shutdown();
  const auto elapsed = std::chrono::steady_clock::now() - start;
  EXPECT_LT(std::chrono::duration_cast<std::chrono::milliseconds>(elapsed)
                .count(),
            3000);
  ::close(fd);
}

TEST_F(ServeServerTest, OverloadShedsInsteadOfQueueingUnbounded) {
  LoadExact();
  ServerOptions options;
  options.num_workers = 1;
  options.queue_capacity = 2;
  options.retry_after_ms = 30;
  StartServer(options);
  // Each evaluation stalls 30 ms: with 1 worker and capacity 2, a burst of
  // concurrent clients must overflow the queue and get shed.
  ASSERT_TRUE(failpoint::Set("serve.eval", "delay(30)"));

  std::atomic<int> ok{0}, overloaded{0}, other{0};
  std::atomic<int64_t> hint{0};
  std::vector<std::thread> clients;
  for (int t = 0; t < 8; ++t) {
    clients.emplace_back([&, t] {
      ClientOptions copts = MakeClientOptions();
      copts.jitter_seed = 100 + t;
      OracleClient client(copts);
      for (int i = 0; i < 4; ++i) {
        const auto response = client.Query({1, 2}, QueryMode::kExact,
                                           /*deadline_ms=*/5000);
        if (!response.has_value()) {
          ++other;
        } else if (response->status == StatusCode::kOk) {
          ++ok;
        } else if (response->status == StatusCode::kOverloaded) {
          ++overloaded;
          hint = response->retry_after_ms;
        } else {
          ++other;
        }
      }
    });
  }
  for (auto& t : clients) t.join();

  EXPECT_GT(ok.load(), 0);          // the server kept serving
  EXPECT_GT(overloaded.load(), 0);  // and shed the excess
  EXPECT_EQ(other.load(), 0);
  EXPECT_EQ(hint.load(), 30);  // the configured backoff hint
  EXPECT_LE(server_->queue_depth(), options.queue_capacity);
}

TEST_F(ServeServerTest, RetryingClientRidesOutOverload) {
  LoadExact();
  ServerOptions options;
  options.num_workers = 1;
  options.queue_capacity = 1;
  options.retry_after_ms = 10;
  StartServer(options);
  ASSERT_TRUE(failpoint::Set("serve.eval", "delay(20)"));

  ClientOptions copts = MakeClientOptions();
  copts.retry_overloaded = true;
  copts.max_attempts = 20;
  std::atomic<int> ok{0};
  std::vector<std::thread> clients;
  for (int t = 0; t < 4; ++t) {
    clients.emplace_back([&, t] {
      ClientOptions mine = copts;
      mine.jitter_seed = 200 + t;
      OracleClient client(mine);
      for (int i = 0; i < 3; ++i) {
        const auto response =
            client.Query({1}, QueryMode::kExact, /*deadline_ms=*/5000);
        if (response.has_value() && response->status == StatusCode::kOk) ++ok;
      }
    });
  }
  for (auto& t : clients) t.join();
  // With retry-on-OVERLOADED every request eventually lands.
  EXPECT_EQ(ok.load(), 12);
}

TEST_F(ServeServerTest, ReloadRequestRollsBackOnInjectedFailure) {
  const std::string index_path = socket_path_ + ".idx";
  ASSERT_TRUE(SaveInfluenceIndex(*index_->Current(), index_path));
  index_ = std::make_unique<IndexManager>(index_path);
  ASSERT_EQ(index_->Reload(), ReloadStatus::kOk);
  StartServer();

  ASSERT_TRUE(failpoint::Set("serve.reload", "error"));
  OracleClient client(MakeClientOptions());
  Request reload;
  reload.method = Method::kReload;
  auto response = client.Call(reload);
  ASSERT_TRUE(response.has_value());
  EXPECT_EQ(response->status, StatusCode::kOk);
  ASSERT_EQ(response->info.size(), 1u);
  EXPECT_EQ(response->info[0].first, "rolled_back");
  EXPECT_DOUBLE_EQ(response->info[0].second, 1.0);
  EXPECT_EQ(response->epoch, 1u);  // unchanged

  // Queries still served from the retained epoch.
  const auto query = client.Query({1, 2});
  ASSERT_TRUE(query.has_value());
  EXPECT_EQ(query->status, StatusCode::kOk);

  failpoint::Clear("serve.reload");
  response = client.Call(reload);
  ASSERT_TRUE(response.has_value());
  EXPECT_EQ(response->epoch, 2u);
  std::remove(index_path.c_str());
}

TEST_F(ServeServerTest, QueriesKeepServingOldEpochDuringSlowReload) {
  const std::string index_path = socket_path_ + ".idx";
  ASSERT_TRUE(SaveInfluenceIndex(*index_->Current(), index_path));
  index_ = std::make_unique<IndexManager>(index_path);
  ASSERT_EQ(index_->Reload(), ReloadStatus::kOk);
  StartServer();

  ASSERT_TRUE(failpoint::Set("serve.reload", "delay(150)"));
  OracleClient reload_client(MakeClientOptions());
  std::thread reloader([&reload_client] {
    Request reload;
    reload.method = Method::kReload;
    const auto response = reload_client.Call(reload);
    ASSERT_TRUE(response.has_value());
    EXPECT_EQ(response->epoch, 2u);
  });

  OracleClient client(MakeClientOptions());
  int served = 0;
  for (int i = 0; i < 20; ++i) {
    const auto response = client.Query({1, 2});
    ASSERT_TRUE(response.has_value());
    if (response->status == StatusCode::kOk) ++served;
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
  reloader.join();
  EXPECT_EQ(served, 20);  // the slow reload never blocked a query
  std::remove(index_path.c_str());
}

TEST_F(ServeServerTest, WedgedReloadDoesNotBlockShutdown) {
  const std::string index_path = socket_path_ + ".idx";
  ASSERT_TRUE(SaveInfluenceIndex(*index_->Current(), index_path));
  index_ = std::make_unique<IndexManager>(index_path);
  ASSERT_EQ(index_->Reload(), ReloadStatus::kOk);
  ServerOptions options;
  options.drain_deadline_ms = 200;
  StartServer(options);

  // The reload wedges for 1.2 s (hung disk stand-in), far past the 200 ms
  // drain deadline. Fire it and shut down without waiting for the answer.
  ASSERT_TRUE(failpoint::Set("serve.reload", "delay(1200)"));
  const int fd = ConnectUnix(socket_path_);
  ASSERT_GE(fd, 0);
  timeval tv{.tv_sec = 5, .tv_usec = 0};
  ::setsockopt(fd, SOL_SOCKET, SO_RCVTIMEO, &tv, sizeof(tv));
  ASSERT_TRUE(SendAll(fd, "{\"id\": 1, \"method\": \"reload\"}\n"));
  std::this_thread::sleep_for(std::chrono::milliseconds(50));  // picked up

  const auto start = std::chrono::steady_clock::now();
  server_->Shutdown();  // must detach the wedged reload thread, not join it
  const auto elapsed_ms = std::chrono::duration_cast<std::chrono::milliseconds>(
                              std::chrono::steady_clock::now() - start)
                              .count();
  EXPECT_LT(elapsed_ms, 1000);

  // The detached thread still answers once the wedge clears: reading the
  // response both proves that and synchronizes with its last access to the
  // IndexManager, so the fixture can safely tear down afterwards.
  const std::vector<std::string> lines = ReadLines(fd, 1);
  ASSERT_EQ(lines.size(), 1u);
  const auto response = ParseResponse(lines[0]);
  ASSERT_TRUE(response.has_value()) << lines[0];
  EXPECT_EQ(response->id, 1);
  EXPECT_EQ(response->status, StatusCode::kOk);
  ::close(fd);
  std::remove(index_path.c_str());
}

TEST_F(ServeServerTest, InjectedReadFaultDropsConnectionClientRetries) {
  StartServer();
  ClientOptions copts = MakeClientOptions();
  copts.io_timeout_ms = 500;
  copts.max_attempts = 2;
  OracleClient client(copts);

  // While the read fault is armed every request line tears the connection:
  // the client retries on a fresh connection, then gives up.
  ASSERT_TRUE(failpoint::Set("serve.read", "error"));
  std::string error;
  EXPECT_FALSE(client.Query({1, 2}, QueryMode::kAuto, 0, &error).has_value());
  EXPECT_GE(client.retries(), 1u);

  // Fault cleared: the same client recovers on its next call.
  failpoint::Clear("serve.read");
  const auto response = client.Query({1, 2});
  ASSERT_TRUE(response.has_value());
  EXPECT_EQ(response->status, StatusCode::kOk);
}

TEST_F(ServeServerTest, ShutdownDrainsAndUnlinksSocket) {
  StartServer();
  OracleClient client(MakeClientOptions());
  ASSERT_TRUE(client.Query({1}).has_value());

  server_->Shutdown();
  EXPECT_FALSE(server_->running());
  // Socket gone: a fresh client cannot connect.
  OracleClient late(MakeClientOptions());
  std::string error;
  EXPECT_FALSE(late.Query({1}, QueryMode::kAuto, 0, &error).has_value());
  EXPECT_FALSE(error.empty());
  // Idempotent.
  server_->Shutdown();
}

TEST_F(ServeServerTest, ShutdownAnswersInFlightRequests) {
  LoadExact();
  ServerOptions options;
  options.num_workers = 2;
  options.drain_deadline_ms = 5000;
  StartServer(options);
  ASSERT_TRUE(failpoint::Set("serve.eval", "delay(40)"));

  std::atomic<int> answered{0}, dropped{0};
  std::vector<std::thread> clients;
  for (int t = 0; t < 4; ++t) {
    clients.emplace_back([&, t] {
      ClientOptions copts = MakeClientOptions();
      copts.jitter_seed = 300 + t;
      copts.max_attempts = 1;  // no retries: we count first-shot outcomes
      OracleClient client(copts);
      const auto response =
          client.Query({1, 2}, QueryMode::kExact, /*deadline_ms=*/5000);
      if (response.has_value()) {
        ++answered;
      } else {
        ++dropped;
      }
    });
  }
  // Give the requests time to be admitted, then drain under them.
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  server_->Shutdown();
  for (auto& t : clients) t.join();
  // Every admitted request got an answer before its connection closed; a
  // request that raced the drain may have seen UNAVAILABLE (still a
  // response). Nothing should observe a silently-dropped connection.
  EXPECT_EQ(answered.load(), 4);
  EXPECT_EQ(dropped.load(), 0);
}

TEST_F(ServeServerTest, UnavailableWhenNoIndexLoaded) {
  index_ = std::make_unique<IndexManager>("");  // nothing installed
  StartServer();
  OracleClient client(MakeClientOptions());

  Request health;
  health.method = Method::kHealth;
  const auto response = client.Call(health);
  ASSERT_TRUE(response.has_value());
  EXPECT_EQ(response->status, StatusCode::kUnavailable);

  const auto query = client.Query({1});
  ASSERT_TRUE(query.has_value());
  EXPECT_EQ(query->status, StatusCode::kUnavailable);
  EXPECT_GT(query->retry_after_ms, 0);
}

TEST_F(ServeServerTest, TraceContextEchoedAndServerAssigned) {
  StartServer();
  OracleClient client(MakeClientOptions());

  // Explicit trace context is echoed verbatim, on queries and inline verbs.
  Request request;
  request.method = Method::kQuery;
  request.seeds = {1, 2};
  request.trace_id = 0xabc123;
  auto response = client.Call(request);
  ASSERT_TRUE(response.has_value());
  EXPECT_EQ(response->status, StatusCode::kOk);
  EXPECT_EQ(response->trace_id, 0xabc123u);

  Request health;
  health.method = Method::kHealth;
  health.trace_id = 0x5150;
  response = client.Call(health);
  ASSERT_TRUE(response.has_value());
  EXPECT_EQ(response->trace_id, 0x5150u);

  // The client library stamps queries that carry none.
  response = client.Query({1, 2});
  ASSERT_TRUE(response.has_value());
  EXPECT_NE(client.last_trace_id(), 0u);
  EXPECT_EQ(response->trace_id, client.last_trace_id());

  // A bare-wire query with no trace field gets a server-assigned id, so
  // every request shows up in the server's trace and flight recorder.
  const int fd = ConnectUnix(socket_path_);
  ASSERT_GE(fd, 0);
  ASSERT_TRUE(SendAll(fd, "{\"id\": 9, \"seeds\": [1]}\n"));
  const std::vector<std::string> lines = ReadLines(fd, 1);
  ASSERT_EQ(lines.size(), 1u);
  const auto parsed = ParseResponse(lines[0]);
  ASSERT_TRUE(parsed.has_value()) << lines[0];
  EXPECT_EQ(parsed->status, StatusCode::kOk);
  EXPECT_NE(parsed->trace_id, 0u);
  ::close(fd);
}

TEST_F(ServeServerTest, MetricsVerbAnswersInlineWithPayload) {
  StartServer();
  OracleClient client(MakeClientOptions());
  ASSERT_TRUE(client.Query({1, 2}).has_value());  // populate serve counters

  Request metrics;
  metrics.method = Method::kMetrics;
  metrics.trace_id = 0x77;
  auto response = client.Call(metrics);
  ASSERT_TRUE(response.has_value());
  EXPECT_EQ(response->status, StatusCode::kOk);
  EXPECT_EQ(response->epoch, 1u);
  EXPECT_EQ(response->trace_id, 0x77u);
#ifndef IPIN_OBS_DISABLED
  // Prometheus text exposition: TYPE comments and _total counter series.
  EXPECT_NE(response->payload.find("# TYPE"), std::string::npos);
  EXPECT_NE(response->payload.find("serve_requests_accepted_total"),
            std::string::npos);
#endif

  metrics.format = MetricsFormat::kJson;
  response = client.Call(metrics);
  ASSERT_TRUE(response.has_value());
  EXPECT_EQ(response->status, StatusCode::kOk);
#ifndef IPIN_OBS_DISABLED
  const auto doc = JsonValue::Parse(response->payload);
  ASSERT_TRUE(doc.has_value()) << response->payload;
  EXPECT_EQ(doc->FindString("schema", ""), "ipin.metrics.v1");
#endif
}

TEST_F(ServeServerTest, DebugVerbDumpsSlowQueryWithStageTimings) {
  LoadExact();
  ServerOptions options;
  options.exact_budget_ms = 100;
  options.slow_query_us = 5000;  // 5 ms: the stalled query below is "slow"
  StartServer(options);
  // A 30 ms eval stall pushes one request over the slow-query threshold.
  ASSERT_TRUE(failpoint::Set("serve.eval", "delay(30)"));
  OracleClient client(MakeClientOptions());
  auto query = client.Query({1, 2, 3}, QueryMode::kExact,
                            /*deadline_ms=*/5000);
  ASSERT_TRUE(query.has_value());
  ASSERT_EQ(query->status, StatusCode::kOk);
  const uint64_t slow_trace = client.last_trace_id();
  failpoint::Clear("serve.eval");

  // The worker records to the flight recorder after writing the query
  // response, so the record can trail the answer by a beat: poll.
  Request debug;
  debug.method = Method::kDebug;
  std::optional<Response> response;
  std::optional<JsonValue> doc;
  for (int spin = 0; spin < 400; ++spin) {
    response = client.Call(debug);
    ASSERT_TRUE(response.has_value());
    ASSERT_EQ(response->status, StatusCode::kOk);
    doc = JsonValue::Parse(response->payload);
    ASSERT_TRUE(doc.has_value()) << response->payload;
    if (doc->FindNumber("slow_recorded", 0) >= 1.0) break;
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
  EXPECT_EQ(doc->FindString("schema", ""), "ipin.debug.v1");
  EXPECT_EQ(doc->FindNumber("slow_threshold_us", -1), 5000.0);
  EXPECT_GE(doc->FindNumber("recorded", 0), 1.0);
  EXPECT_GE(doc->FindNumber("slow_recorded", 0), 1.0);

  // The stalled query sits in the slow ring with per-stage timings that
  // blame the eval stage for the 30 ms.
  const JsonValue* slow = doc->Find("slow");
  ASSERT_NE(slow, nullptr);
  ASSERT_TRUE(slow->is_array());
  ASSERT_FALSE(slow->array_items().empty());
  bool found = false;
  for (const JsonValue& record : slow->array_items()) {
    if (record.FindString("trace_id", "") != TraceIdToHex(slow_trace)) {
      continue;
    }
    found = true;
    EXPECT_EQ(record.FindString("status", ""), "OK");
    EXPECT_GE(record.FindNumber("eval_us", 0), 25000.0);
    EXPECT_GE(record.FindNumber("total_us", 0),
              record.FindNumber("eval_us", 0));
    EXPECT_GE(record.FindNumber("queue_us", -1), 0.0);
    EXPECT_GE(record.FindNumber("admission_us", -1), 0.0);
    EXPECT_GE(record.FindNumber("write_us", -1), 0.0);
  }
  EXPECT_TRUE(found) << response->payload;
}

// Record before respond: a request's flight-recorder entry exists by the
// time its reply reaches the client (200 rounds to expose a lost race).
TEST_F(ServeServerTest, RecordIsPublishedBeforeTheReply) {
  StartServer();
  OracleClient client(MakeClientOptions());
  for (int round = 0; round < 200; ++round) {
    ASSERT_TRUE(client.Query({1, 2}).has_value()) << "round " << round;
    const uint64_t trace_id = client.last_trace_id();
    bool found = false;
    for (const auto& record : server_->flight_recorder().RecentSnapshot()) {
      found = found || record.trace_id == trace_id;
    }
    ASSERT_TRUE(found) << "round " << round;
  }
}

#ifndef IPIN_OBS_DISABLED
TEST_F(ServeServerTest, StatsReportsWindowedFields) {
  StartServer();
  OracleClient client(MakeClientOptions());
  for (int i = 0; i < 5; ++i) {
    ASSERT_TRUE(client.Query({1, 2}).has_value());
  }
  Request stats;
  stats.method = Method::kStats;
  const auto response = client.Call(stats);
  ASSERT_TRUE(response.has_value());
  ASSERT_EQ(response->status, StatusCode::kOk);
  double win_s = -1.0, win_qps = -1.0, win_p99 = -1.0;
  for (const auto& [key, value] : response->info) {
    if (key == "win_s") win_s = value;
    if (key == "win_qps") win_qps = value;
    if (key == "win_p99_us") win_p99 = value;
  }
  // The window exists and is the configured width; the rates themselves
  // need two sampler ticks (seconds apart), which this test does not wait
  // for — they legitimately read 0 right after startup.
  EXPECT_DOUBLE_EQ(win_s,
                   static_cast<double>(server_->options().stats_window_s));
  EXPECT_GE(win_qps, 0.0);
  EXPECT_GE(win_p99, 0.0);
}

// End-to-end accuracy audit: serve sketch answers with audit_rate=1, wait
// for the background re-evaluations on the shared pool, and assert the
// measured relative error respects the same vHLL tolerance that
// test_influence_oracle's TracksExactOracle establishes for this exact
// configuration (precision 9, |influence| > 30 -> within 25%, i.e. 250
// per-mille).
TEST(ServeAuditTest, MeasuredSketchErrorWithinVhllTolerance) {
  SetLogLevel(LogLevel::kError);
  SyntheticConfig config;
  config.num_nodes = 250;
  config.num_interactions = 4000;
  config.time_span = 9000;
  config.seed = 19;
  const InteractionGraph graph = GenerateInteractionNetwork(config);
  const Duration window = 2000;
  auto exact =
      std::make_shared<const IrsExact>(IrsExact::Compute(graph, window));
  IrsApproxOptions approx_options;
  approx_options.precision = 9;
  IndexManager index("");
  index.Install(std::make_shared<const IrsApprox>(
      IrsApprox::Compute(graph, window, approx_options)));
  index.SetExact(exact);

  const std::vector<NodeId> seeds = {2, 30, 71, 120, 200};
  const ExactInfluenceOracle oracle(exact.get());
  const double truth = oracle.InfluenceOfSet(seeds);
  ASSERT_GT(truth, 30.0);  // the 25% tolerance presumes a non-tiny set

  ServerOptions options;
  options.unix_socket_path =
      ::testing::TempDir() + "/ipin_audit_" +
      std::to_string(static_cast<unsigned long long>(config.seed)) + ".sock";
  options.audit_rate = 1.0;  // audit every sketch-served answer
  OracleServer server(&index, options);
  ASSERT_TRUE(server.Start());

  obs::MetricsRegistry& registry = obs::MetricsRegistry::Global();
  obs::Counter* sampled = registry.GetCounter("serve.audit.sampled");
  obs::Counter* completed = registry.GetCounter("serve.audit.completed");
  obs::Histogram* abs_pm =
      registry.GetHistogram("serve.audit.rel_error_abs_pm");
  const uint64_t completed_before = completed->Value();
  const uint64_t recorded_before = abs_pm->Count();

  ClientOptions copts;
  copts.unix_socket_path = options.unix_socket_path;
  OracleClient client(copts);
  constexpr uint64_t kQueries = 5;
  for (uint64_t i = 0; i < kQueries; ++i) {
    const auto response = client.Query(seeds, QueryMode::kSketch);
    ASSERT_TRUE(response.has_value());
    ASSERT_EQ(response->status, StatusCode::kOk);
  }
  EXPECT_GE(sampled->Value(), kQueries);

  // The re-evaluations run on the global pool; wait for them to land.
  for (int spin = 0;
       spin < 1000 && completed->Value() < completed_before + kQueries;
       ++spin) {
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
  ASSERT_GE(completed->Value(), completed_before + kQueries);
  // truth > 30, so no audit can hit the zero-truth path: every sample
  // recorded a relative error, and the worst of them stays inside the
  // sketch's accuracy envelope.
  ASSERT_EQ(abs_pm->Count(), recorded_before + kQueries);
  EXPECT_LE(abs_pm->Max(), 250u);
  server.Shutdown();
  std::remove(options.unix_socket_path.c_str());
}
#endif  // IPIN_OBS_DISABLED

TEST_F(ServeServerTest, EphemeralTcpPortWorks) {
  ServerOptions options;
  options.tcp_port = 0;
  server_ = std::make_unique<OracleServer>(index_.get(), options);
  ASSERT_TRUE(server_->Start());
  ASSERT_GT(server_->bound_port(), 0);

  ClientOptions copts;
  copts.tcp_port = server_->bound_port();
  OracleClient client(copts);
  const auto response = client.Query({1, 2});
  ASSERT_TRUE(response.has_value());
  EXPECT_EQ(response->status, StatusCode::kOk);
}


TEST_F(ServeServerTest, WantRanksReturnsTheUnionRankVector) {
  StartServer();
  OracleClient client(MakeClientOptions());
  Request request;
  request.method = Method::kQuery;
  request.seeds = {1, 2, 3};
  request.mode = QueryMode::kSketch;
  request.want_ranks = true;
  const auto response = client.Call(request);
  ASSERT_TRUE(response.has_value());
  ASSERT_EQ(response->status, StatusCode::kOk);
  // One rank cell per HLL register at the index's precision.
  const size_t cells = size_t{1} << index_->Current()->options().precision;
  ASSERT_EQ(response->ranks.size(), cells);
  // The vector is the answer: estimating from it reproduces both the wire
  // estimate and the local oracle bit for bit. This is the invariant the
  // sharded router's merge relies on.
  EXPECT_DOUBLE_EQ(EstimateFromRanks(response->ranks), response->estimate);
  EXPECT_DOUBLE_EQ(response->estimate,
                   index_->Current()->EstimateUnionSize(request.seeds));
}

TEST_F(ServeServerTest, TopkVerbMatchesLocalRanking) {
  StartServer();
  OracleClient client(MakeClientOptions());
  Request request;
  request.method = Method::kTopk;
  request.k = 7;
  const auto response = client.Call(request);
  ASSERT_TRUE(response.has_value());
  ASSERT_EQ(response->status, StatusCode::kOk);

  // Ground truth straight off the in-process index: every sketched node,
  // estimate descending, ties by ascending node id.
  std::vector<std::pair<NodeId, double>> truth;
  const auto index = index_->Current();
  for (NodeId u = 0; u < index->num_nodes(); ++u) {
    const SketchView sketch = index->Sketch(u);
    if (sketch) truth.emplace_back(u, sketch.Estimate());
  }
  std::sort(truth.begin(), truth.end(), [](const auto& a, const auto& b) {
    if (a.second != b.second) return a.second > b.second;
    return a.first < b.first;
  });
  truth.resize(std::min<size_t>(7, truth.size()));

  ASSERT_EQ(response->topk.size(), truth.size());
  for (size_t i = 0; i < truth.size(); ++i) {
    EXPECT_EQ(response->topk[i].first, truth[i].first) << "rank " << i;
    EXPECT_DOUBLE_EQ(response->topk[i].second, truth[i].second);
  }
}


// Line framing on the server's loops: a request dribbled in 1-byte writes,
// a batch of requests in one write, and a line over kMaxLineBytes, which
// drops the connection.
TEST_F(ServeServerTest, LineFramingHandlesSplitBatchedAndOversizedLines) {
  StartServer();
  const std::vector<NodeId> seeds = {1, 2, 3};
  const double truth = index_->Current()->EstimateUnionSize(seeds);
  const int fd = ConnectUnix(socket_path_);
  ASSERT_GE(fd, 0);
  timeval tv{.tv_sec = 10, .tv_usec = 0};
  ::setsockopt(fd, SOL_SOCKET, SO_RCVTIMEO, &tv, sizeof(tv));

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

  // Many requests in one write, blank lines between some of them; health
  // probes ride along with the queries.
  std::string batch;
  for (int i = 1; i <= 40; ++i) {
    if (i % 4 == 0) {
      batch += "{\"id\": " + std::to_string(100 + i) +
               ", \"method\": \"health\"}\n\n";
    } else {
      request.id = 100 + i;
      batch += SerializeRequest(request);
    }
  }
  ASSERT_TRUE(SendAll(fd, batch));
  lines = ReadLines(fd, 40);
  ASSERT_EQ(lines.size(), 40u);
  std::set<int64_t> ids;
  for (const std::string& reply : lines) {
    response = ParseResponse(reply);
    ASSERT_TRUE(response.has_value()) << reply;
    EXPECT_EQ(response->status, StatusCode::kOk) << reply;
    if (response->id % 4 != 0) {
      EXPECT_EQ(response->estimate, truth) << reply;
    }
    ids.insert(response->id);
  }
  EXPECT_EQ(ids.size(), 40u);

  // An unterminated line past kMaxLineBytes: the server hangs up.
  const std::string huge(kMaxLineBytes + 4096, 'x');
  SendAll(fd, huge);  // may fail part-way once the server has hung up
  char byte;
  EXPECT_LE(::recv(fd, &byte, 1, 0), 0);
  ::close(fd);

  OracleClient client(MakeClientOptions());
  const auto after = client.Query(seeds, QueryMode::kSketch);
  ASSERT_TRUE(after.has_value());
  EXPECT_EQ(after->estimate, truth);
}

// The inline rule: a small sketch-path query is answered on its loop (its
// flight record shows no queue wait), an exact one goes through the
// offload queue, and stats report the loops and the requests in flight.
TEST_F(ServeServerTest, SmallSketchQueriesAreAnsweredInline) {
  LoadExact();
  ServerOptions options;
  options.num_workers = 3;
  StartServer(options);
  OracleClient client(MakeClientOptions());
#ifndef IPIN_OBS_DISABLED
  const uint64_t inline0 = obs::MetricsRegistry::Global()
                               .GetCounter("serve.requests.inline")
                               ->Value();
#endif
  ASSERT_TRUE(client.Query({1, 2, 3}, QueryMode::kSketch).has_value());
  const uint64_t sketch_trace = client.last_trace_id();
  ASSERT_TRUE(client.Query({1, 2, 3}, QueryMode::kExact).has_value());
  const uint64_t exact_trace = client.last_trace_id();
#ifndef IPIN_OBS_DISABLED
  EXPECT_EQ(obs::MetricsRegistry::Global()
                .GetCounter("serve.requests.inline")
                ->Value(),
            inline0 + 1);
#endif
  bool saw_sketch = false;
  bool saw_exact = false;
  for (const auto& record : server_->flight_recorder().RecentSnapshot()) {
    if (record.trace_id == sketch_trace) {
      saw_sketch = true;
      EXPECT_EQ(record.queue_us, 0);
    }
    if (record.trace_id == exact_trace) saw_exact = true;
  }
  EXPECT_TRUE(saw_sketch);
  EXPECT_TRUE(saw_exact);

  Request stats;
  stats.method = Method::kStats;
  const auto response = client.Call(stats);
  ASSERT_TRUE(response.has_value());
  double loops = -1.0;
  double inflight = -1.0;
  for (const auto& [key, value] : response->info) {
    if (key == "loops") loops = value;
    if (key == "inflight") inflight = value;
  }
  EXPECT_DOUBLE_EQ(loops, 3.0);
  EXPECT_DOUBLE_EQ(inflight, 0.0);
}

}  // namespace
}  // namespace ipin::serve
