#include "ipin/serve/router.h"

#include <netinet/in.h>
#include <poll.h>
#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cstring>

#include "ipin/common/failpoint.h"
#include "ipin/common/logging.h"
#include "ipin/common/string_util.h"
#include "ipin/obs/export.h"
#include "ipin/obs/metrics.h"
#include "ipin/obs/trace_events.h"
#include "ipin/sketch/estimators.h"

namespace ipin::serve {
namespace {

constexpr size_t kMaxLineBytes = 1 << 20;

int64_t ToMicros(std::chrono::steady_clock::duration d) {
  return std::chrono::duration_cast<std::chrono::microseconds>(d).count();
}

int64_t MillisUntil(std::chrono::steady_clock::time_point deadline) {
  return std::chrono::duration_cast<std::chrono::milliseconds>(
             deadline - std::chrono::steady_clock::now())
      .count();
}

void SetSendTimeout(int fd, int64_t timeout_ms) {
  timeval tv{};
  tv.tv_sec = timeout_ms / 1000;
  tv.tv_usec = (timeout_ms % 1000) * 1000;
  ::setsockopt(fd, SOL_SOCKET, SO_SNDTIMEO, &tv, sizeof(tv));
}

// Same bounded write as server.cc: SO_SNDTIMEO bounds each send(), the
// elapsed check bounds the whole response against a drip-feeding peer.
bool WriteAll(int fd, const std::string& data, int64_t timeout_ms) {
  const auto deadline = std::chrono::steady_clock::now() +
                        std::chrono::milliseconds(timeout_ms);
  size_t written = 0;
  while (written < data.size()) {
    const ssize_t n = ::send(fd, data.data() + written, data.size() - written,
                             MSG_NOSIGNAL);
    if (n < 0) {
      if (errno == EINTR) continue;
      if (errno == EAGAIN || errno == EWOULDBLOCK) {
        IPIN_COUNTER_ADD("serve.write.timeouts", 1);
      }
      return false;
    }
    written += static_cast<size_t>(n);
    if (written < data.size() && std::chrono::steady_clock::now() >= deadline) {
      IPIN_COUNTER_ADD("serve.write.timeouts", 1);
      return false;
    }
  }
  return true;
}

}  // namespace

struct RouterServer::Connection {
  explicit Connection(int fd) : fd(fd) {}
  ~Connection() {
    if (fd >= 0) ::close(fd);
  }

  const int fd;
  std::mutex write_mu;
  std::string read_buffer;
  std::atomic<bool> broken{false};
  std::atomic<bool> reader_done{false};
};

namespace {

// Per-shard endpoint count (primary + replicas) for the health tracker.
std::vector<size_t> EndpointCounts(const ShardMap& map) {
  std::vector<size_t> counts(map.num_shards());
  for (size_t i = 0; i < map.num_shards(); ++i) {
    counts[i] = 1 + map.shard(i).replicas.size();
  }
  return counts;
}

}  // namespace

RouterServer::ShardFleet::ShardFleet(std::shared_ptr<const ShardMap> map,
                                     uint64_t epoch,
                                     const RouterOptions& options)
    : map(std::move(map)),
      epoch(epoch),
      options(options),
      health(EndpointCounts(*this->map), options.health) {
  const auto build_pools = [](const ShardMap& m) {
    std::vector<std::vector<std::unique_ptr<Pool>>> built(m.num_shards());
    for (size_t i = 0; i < m.num_shards(); ++i) {
      built[i].resize(1 + m.shard(i).replicas.size());
      for (auto& pool : built[i]) pool = std::make_unique<Pool>();
    }
    return built;
  };
  pools = build_pools(*this->map);
  if (this->map->InTransition()) {
    prev_health = std::make_unique<ShardHealthTracker>(
        EndpointCounts(*this->map->previous()), options.health);
    prev_pools = build_pools(*this->map->previous());
  }
}

std::unique_ptr<OracleClient> RouterServer::ShardFleet::NewClient(
    bool prev, size_t shard, size_t endpoint, bool prefer_mirror) const {
  const ShardInfo& info = SideMap(prev).shard(shard);
  const ShardEndpoint* ep = &info.endpoint;
  if (prefer_mirror && info.mirror.valid()) {
    ep = &info.mirror;
  } else if (endpoint >= 1 && endpoint <= info.replicas.size()) {
    ep = &info.replicas[endpoint - 1];
  }
  ClientOptions client_options;
  client_options.unix_socket_path = ep->unix_socket_path;
  client_options.tcp_host = ep->tcp_host;
  client_options.tcp_port = ep->tcp_port;
  client_options.connect_timeout_ms = options.connect_timeout_ms;
  // The router owns the retry policy (hedging + the next request's fresh
  // fan-out); a leg client must fail fast, not add its own backoff loop.
  client_options.max_attempts = 1;
  return std::make_unique<OracleClient>(client_options);
}

std::unique_ptr<OracleClient> RouterServer::ShardFleet::Borrow(
    bool prev, size_t shard, size_t endpoint) {
  auto& side = prev ? prev_pools : pools;
  if (endpoint < side[shard].size()) {
    Pool& pool = *side[shard][endpoint];
    std::lock_guard<std::mutex> lock(pool.mu);
    if (!pool.idle.empty()) {
      auto client = std::move(pool.idle.back());
      pool.idle.pop_back();
      return client;
    }
  }
  return NewClient(prev, shard, endpoint, /*prefer_mirror=*/false);
}

void RouterServer::ShardFleet::Return(bool prev, size_t shard, size_t endpoint,
                                      std::unique_ptr<OracleClient> client) {
  constexpr size_t kMaxIdlePerShard = 8;
  auto& side = prev ? prev_pools : pools;
  if (endpoint >= side[shard].size()) return;
  Pool& pool = *side[shard][endpoint];
  std::lock_guard<std::mutex> lock(pool.mu);
  if (pool.idle.size() < kMaxIdlePerShard) {
    pool.idle.push_back(std::move(client));
  }
}

RouterServer::RouterServer(ShardMapManager* map, RouterOptions options)
    : map_(map),
      options_(std::move(options)),
      queue_(options_.queue_capacity),
      flight_(std::make_shared<FlightRecorder>(options_.flight_recorder_size,
                                               options_.flight_slow_size,
                                               options_.slow_query_us)),
      window_(obs::WindowedAggregatorOptions{
          /*sample_period_ms=*/1000,
          /*num_buckets=*/std::max<size_t>(
              64, static_cast<size_t>(std::max<int64_t>(
                      0, options_.stats_window_s)) * 2)}) {}

RouterServer::~RouterServer() { Shutdown(); }

bool RouterServer::Start() {
  if (running_.load(std::memory_order_acquire)) return true;
  const bool unix_mode = !options_.unix_socket_path.empty();
  if (unix_mode == (options_.tcp_port >= 0)) {
    LogError("route: set exactly one of unix_socket_path / tcp_port");
    return false;
  }

  if (unix_mode) {
    sockaddr_un addr{};
    addr.sun_family = AF_UNIX;
    if (options_.unix_socket_path.size() >= sizeof(addr.sun_path)) {
      LogError("route: socket path too long: " + options_.unix_socket_path);
      return false;
    }
    std::strncpy(addr.sun_path, options_.unix_socket_path.c_str(),
                 sizeof(addr.sun_path) - 1);
    listen_fd_ = ::socket(AF_UNIX, SOCK_STREAM, 0);
    if (listen_fd_ < 0) {
      LogError(StrFormat("route: socket(): %s", std::strerror(errno)));
      return false;
    }
    ::unlink(options_.unix_socket_path.c_str());
    if (::bind(listen_fd_, reinterpret_cast<sockaddr*>(&addr),
               sizeof(addr)) != 0) {
      LogError(StrFormat("route: bind(%s): %s",
                         options_.unix_socket_path.c_str(),
                         std::strerror(errno)));
      ::close(listen_fd_);
      listen_fd_ = -1;
      return false;
    }
  } else {
    listen_fd_ = ::socket(AF_INET, SOCK_STREAM, 0);
    if (listen_fd_ < 0) {
      LogError(StrFormat("route: socket(): %s", std::strerror(errno)));
      return false;
    }
    const int one = 1;
    ::setsockopt(listen_fd_, SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
    addr.sin_port = htons(static_cast<uint16_t>(options_.tcp_port));
    if (::bind(listen_fd_, reinterpret_cast<sockaddr*>(&addr),
               sizeof(addr)) != 0) {
      LogError(StrFormat("route: bind(127.0.0.1:%d): %s", options_.tcp_port,
                         std::strerror(errno)));
      ::close(listen_fd_);
      listen_fd_ = -1;
      return false;
    }
    sockaddr_in bound{};
    socklen_t len = sizeof(bound);
    if (::getsockname(listen_fd_, reinterpret_cast<sockaddr*>(&bound),
                      &len) == 0) {
      bound_port_ = ntohs(bound.sin_port);
    }
  }

  if (::listen(listen_fd_, 128) != 0) {
    LogError(StrFormat("route: listen(): %s", std::strerror(errno)));
    ::close(listen_fd_);
    listen_fd_ = -1;
    return false;
  }

  running_.store(true, std::memory_order_release);
  draining_.store(false, std::memory_order_release);

#ifndef IPIN_OBS_DISABLED
  window_.Start();
#endif

  {
    std::lock_guard<std::mutex> lock(probe_mu_);
    probe_stop_ = false;
  }
  prober_ = std::thread([this] { ProbeLoop(); });
  acceptor_ = std::thread([this] { AcceptLoop(); });
  worker_pool_ =
      std::make_unique<ThreadPool>(static_cast<size_t>(options_.num_workers));
  for (int i = 0; i < options_.num_workers; ++i) {
    worker_pool_->Submit([this] { WorkerLoop(); });
  }
  LogInfo(StrFormat(
      "route: listening on %s (%d workers, queue %zu)",
      unix_mode ? options_.unix_socket_path.c_str()
                : StrFormat("127.0.0.1:%d", bound_port_).c_str(),
      options_.num_workers, options_.queue_capacity));
  return true;
}

std::shared_ptr<RouterServer::ShardFleet> RouterServer::Fleet() {
  const ShardMapSnapshot snapshot = map_->Snapshot();
  if (snapshot.map == nullptr || snapshot.map->num_shards() == 0) {
    return nullptr;
  }
  std::lock_guard<std::mutex> lock(fleet_mu_);
  if (fleet_ == nullptr || fleet_->epoch != snapshot.epoch) {
    fleet_ = std::make_shared<ShardFleet>(snapshot.map, snapshot.epoch,
                                          options_);
    LogInfo(StrFormat("route: shard fleet rebuilt (%zu shards, epoch %llu)",
                      snapshot.map->num_shards(),
                      static_cast<unsigned long long>(snapshot.epoch)));
  }
  return fleet_;
}

std::vector<ShardState> RouterServer::ShardHealth() const {
  std::lock_guard<std::mutex> lock(fleet_mu_);
  if (fleet_ == nullptr) return {};
  return fleet_->health.Snapshot();
}

void RouterServer::AcceptLoop() {
  while (running_.load(std::memory_order_acquire) &&
         !draining_.load(std::memory_order_acquire)) {
    pollfd pfd{listen_fd_, POLLIN, 0};
    const int ready = ::poll(&pfd, 1, /*timeout_ms=*/100);
    if (ready <= 0) {
      ReapFinishedReaders();
      continue;
    }
    const int fd = ::accept(listen_fd_, nullptr, nullptr);
    if (fd < 0) {
      if (errno == EINTR || errno == ECONNABORTED) continue;
      break;
    }
    if (IPIN_FAILPOINT("serve.accept").fail) {
      IPIN_COUNTER_ADD("serve.accept.failures", 1);
      ::close(fd);
      continue;
    }
    SetSendTimeout(fd, options_.write_timeout_ms);
    auto conn = std::make_shared<Connection>(fd);
    {
      std::lock_guard<std::mutex> lock(conns_mu_);
      if (active_connections_ >= options_.max_connections) {
        Response reject;
        reject.status = StatusCode::kOverloaded;
        reject.retry_after_ms = options_.retry_after_ms;
        reject.error = "connection limit reached";
        IPIN_COUNTER_ADD("serve.requests.shed", 1);
        WriteResponse(conn, reject, options_.write_timeout_ms);
        continue;
      }
      ++active_connections_;
      IPIN_GAUGE_SET("serve.connections.active", active_connections_);
      readers_.push_back(ReaderSlot{
          std::thread([this, conn] { ReadLoop(conn); }), conn});
    }
    ReapFinishedReaders();
  }
}

void RouterServer::ReapFinishedReaders() {
  std::lock_guard<std::mutex> lock(conns_mu_);
  for (size_t i = 0; i < readers_.size();) {
    if (readers_[i].conn->reader_done.load(std::memory_order_acquire)) {
      readers_[i].thread.join();
      readers_[i] = std::move(readers_.back());
      readers_.pop_back();
    } else {
      ++i;
    }
  }
}

void RouterServer::ReadLoop(std::shared_ptr<Connection> conn) {
  std::string line;
  while (true) {
    size_t newline;
    while ((newline = conn->read_buffer.find('\n')) == std::string::npos) {
      char chunk[4096];
      const ssize_t n = ::recv(conn->fd, chunk, sizeof(chunk), 0);
      if (n == 0) goto done;
      if (n < 0) {
        if (errno == EINTR) continue;
        goto done;
      }
      conn->read_buffer.append(chunk, static_cast<size_t>(n));
      if (conn->read_buffer.size() > kMaxLineBytes) {
        LogWarning("route: dropping connection with oversized request line");
        goto done;
      }
    }
    line.assign(conn->read_buffer, 0, newline);
    conn->read_buffer.erase(0, newline + 1);

    if (IPIN_FAILPOINT("serve.read").fail) {
      IPIN_COUNTER_ADD("serve.read.failures", 1);
      goto done;
    }
    if (line.empty()) continue;

    std::string parse_error;
    int64_t id = 0;
    auto request = ParseRequest(line, &parse_error, &id);
    if (!request.has_value()) {
      Response bad;
      bad.id = id;
      bad.status = StatusCode::kBadRequest;
      bad.error = parse_error;
      IPIN_COUNTER_ADD("serve.requests.bad", 1);
      WriteResponse(conn, bad, options_.write_timeout_ms);
      continue;
    }
    HandleRequest(conn, std::move(*request));
    if (conn->broken.load(std::memory_order_acquire)) break;
  }
done:
  {
    std::lock_guard<std::mutex> lock(conns_mu_);
    --active_connections_;
    IPIN_GAUGE_SET("serve.connections.active", active_connections_);
  }
  conn->reader_done.store(true, std::memory_order_release);
}

void RouterServer::HandleRequest(const std::shared_ptr<Connection>& conn,
                                 Request&& request) {
  const Clock::time_point now = Clock::now();
  switch (request.method) {
    case Method::kHealth: {
      IPIN_LATENCY_SCOPE("serve.latency.health_us");
      Response response;
      response.id = request.id;
      response.trace_id = request.trace_id;
      response.epoch = map_->Epoch();
      response.status = response.epoch > 0 ? StatusCode::kOk
                                           : StatusCode::kUnavailable;
      WriteResponse(conn, response, options_.write_timeout_ms);
      return;
    }
    case Method::kStats: {
      IPIN_LATENCY_SCOPE("serve.latency.stats_us");
      WriteResponse(conn, StatsResponse(request), options_.write_timeout_ms);
      return;
    }
    case Method::kMetrics: {
      IPIN_LATENCY_SCOPE("serve.latency.metrics_us");
      Response response;
      response.id = request.id;
      response.trace_id = request.trace_id;
      response.status = StatusCode::kOk;
      response.epoch = map_->Epoch();
      response.payload =
          request.format == MetricsFormat::kJson
              ? obs::GlobalMetricsReportJson()
              : obs::MetricsPrometheusText(
                    obs::MetricsRegistry::Global().Snapshot());
      WriteResponse(conn, response, options_.write_timeout_ms);
      return;
    }
    case Method::kDebug: {
      IPIN_LATENCY_SCOPE("serve.latency.debug_us");
      Response response;
      response.id = request.id;
      response.trace_id = request.trace_id;
      response.status = StatusCode::kOk;
      response.epoch = map_->Epoch();
      response.payload = flight_->DumpJson();
      WriteResponse(conn, response, options_.write_timeout_ms);
      return;
    }
    case Method::kReload: {
      // The router's reload verb swaps the SHARD MAP, not an index. The map
      // is one small JSON document, so unlike the oracle server's index
      // reload it runs inline on the reader; a corrupt file rolls back
      // (old epoch keeps routing) per ShardMapManager's contract.
      IPIN_LATENCY_SCOPE("serve.latency.reload_us");
      Response response;
      response.id = request.id;
      response.trace_id = request.trace_id;
      if (draining_.load(std::memory_order_acquire)) {
        response.status = StatusCode::kUnavailable;
        response.error = "server is draining";
      } else {
        const ReloadStatus status = map_->Reload();
        response.status = StatusCode::kOk;
        response.epoch = map_->Epoch();
        response.info.emplace_back(
            "rolled_back", status == ReloadStatus::kRolledBack ? 1.0 : 0.0);
      }
      WriteResponse(conn, response, options_.write_timeout_ms);
      return;
    }
    case Method::kReshardStatus: {
      // Live-reshard admin verb, answered inline: where the fleet stands in
      // the old->new transition, plus both sides' health.
      IPIN_LATENCY_SCOPE("serve.latency.stats_us");
      Response response;
      response.id = request.id;
      response.trace_id = request.trace_id;
      response.status = StatusCode::kOk;
      const std::shared_ptr<ShardFleet> fleet = Fleet();
      response.epoch = fleet ? fleet->epoch : 0;
      response.info.emplace_back(
          "map_epoch", fleet ? static_cast<double>(fleet->epoch) : 0.0);
      if (fleet) {
        const bool in_transition = fleet->map->InTransition();
        response.info.emplace_back("in_transition", in_transition ? 1.0 : 0.0);
        response.info.emplace_back(
            "shards", static_cast<double>(fleet->map->num_shards()));
        response.info.emplace_back(
            "prev_shards",
            in_transition
                ? static_cast<double>(fleet->map->previous()->num_shards())
                : 0.0);
        size_t replicas_total = 0;
        for (size_t s = 0; s < fleet->map->num_shards(); ++s) {
          replicas_total += fleet->map->shard(s).replicas.size();
        }
        response.info.emplace_back("replicas_total",
                                   static_cast<double>(replicas_total));
        response.info.emplace_back(
            "shards_down", static_cast<double>(fleet->health.DownCount()));
        response.info.emplace_back(
            "prev_shards_down",
            fleet->prev_health
                ? static_cast<double>(fleet->prev_health->DownCount())
                : 0.0);
      } else {
        response.info.emplace_back("in_transition", 0.0);
        response.info.emplace_back("shards", 0.0);
        response.info.emplace_back("prev_shards", 0.0);
        response.info.emplace_back("replicas_total", 0.0);
        response.info.emplace_back("shards_down", 0.0);
        response.info.emplace_back("prev_shards_down", 0.0);
      }
      WriteResponse(conn, response, options_.write_timeout_ms);
      return;
    }
    case Method::kQuery:
    case Method::kTopk:
      break;
  }

  if (request.trace_id == 0) {
    request.trace_id = next_trace_id_.fetch_add(1, std::memory_order_relaxed);
  }
  const uint64_t trace_id = request.trace_id;
  IPIN_TRACE_ASYNC_BEGIN("serve.request", trace_id);

  const int64_t deadline_ms = request.deadline_ms > 0
                                  ? request.deadline_ms
                                  : options_.default_deadline_ms;
  Task task;
  task.deadline = now + std::chrono::milliseconds(deadline_ms);
  task.enqueued = now;
  task.conn = conn;
  const int64_t id = request.id;

  if (draining_.load(std::memory_order_acquire)) {
    Response response;
    response.id = id;
    response.trace_id = trace_id;
    response.status = StatusCode::kUnavailable;
    response.error = "server is draining";
    response.retry_after_ms = options_.retry_after_ms;
    RecordRejected(trace_id, id, request.mode, request.seeds.size(),
                   StatusCode::kUnavailable, now);
    WriteResponse(conn, response, options_.write_timeout_ms);
    IPIN_TRACE_ASYNC_END("serve.request", trace_id);
    return;
  }
  task.admission_us = ToMicros(Clock::now() - now);
  const QueryMode mode = request.mode;
  const size_t num_seeds = request.seeds.size();
  task.request = std::move(request);
  if (!queue_.TryPush(std::move(task))) {
    Response response;
    response.id = id;
    response.trace_id = trace_id;
    response.status = StatusCode::kOverloaded;
    response.retry_after_ms = options_.retry_after_ms;
    IPIN_COUNTER_ADD("serve.requests.shed", 1);
    RecordRejected(trace_id, id, mode, num_seeds, StatusCode::kOverloaded,
                   now);
    WriteResponse(conn, response, options_.write_timeout_ms);
    IPIN_TRACE_ASYNC_END("serve.request", trace_id);
    return;
  }
  IPIN_TRACE_ASYNC_BEGIN("serve.queue", trace_id);
  IPIN_COUNTER_ADD("serve.requests.accepted", 1);
  IPIN_GAUGE_SET("serve.queue.depth", queue_.Depth());
}

void RouterServer::RecordRejected(uint64_t trace_id, int64_t id,
                                  QueryMode mode, size_t num_seeds,
                                  StatusCode status,
                                  Clock::time_point received) {
  RequestRecord record;
  record.trace_id = trace_id;
  record.id = id;
  record.mode = mode;
  record.status = status;
  record.num_seeds = num_seeds;
  record.epoch = map_->Epoch();
  record.total_us = ToMicros(Clock::now() - received);
  record.admission_us = record.total_us;
  flight_->Record(record);
}

void RouterServer::WorkerLoop() {
  while (true) {
    auto task = queue_.Pop();
    if (!task.has_value()) return;
    IPIN_GAUGE_SET("serve.queue.depth", queue_.Depth());
    const Clock::time_point now = Clock::now();
    const uint64_t trace_id = task->request.trace_id;
    const int64_t queue_us = ToMicros(now - task->enqueued);
    IPIN_HISTOGRAM_RECORD("serve.queue.wait_us", queue_us);
    IPIN_TRACE_ASYNC_END("serve.queue", trace_id);

    const bool past_drain =
        draining_.load(std::memory_order_acquire) && now >= drain_deadline_;

    Response response;
    int64_t eval_us = 0;
    if (now >= task->deadline || past_drain) {
      response.id = task->request.id;
      response.trace_id = trace_id;
      response.status = StatusCode::kDeadlineExceeded;
      response.epoch = map_->Epoch();
      IPIN_COUNTER_ADD("serve.requests.deadline_exceeded", 1);
    } else {
      IPIN_LATENCY_SCOPE("serve.latency.route_us");
      IPIN_TRACE_ASYNC_BEGIN("serve.route", trace_id);
      const Clock::time_point eval_start = Clock::now();
      response = EvaluateScatter(task->request, task->deadline);
      eval_us = ToMicros(Clock::now() - eval_start);
      IPIN_TRACE_ASYNC_END("serve.route", trace_id);
    }
    IPIN_TRACE_ASYNC_BEGIN("serve.write", trace_id);
    const Clock::time_point write_start = Clock::now();
    const std::string line = SerializeResponse(response);
    const Clock::time_point done = Clock::now();

    // Record before respond: a client that acts on the reply must find
    // this request in the flight recorder already.
    RequestRecord record;
    record.trace_id = trace_id;
    record.id = task->request.id;
    record.mode = task->request.mode;
    record.status = response.status;
    record.degraded = response.degraded;
    record.num_seeds = task->request.seeds.size();
    record.epoch = response.epoch;
    record.admission_us = task->admission_us;
    record.queue_us = queue_us;
    record.eval_us = eval_us;
    record.write_us = ToMicros(done - write_start);
    record.total_us = ToMicros(done - task->enqueued);
    flight_->Record(record);
    WriteLine(task->conn, line, options_.write_timeout_ms);
    IPIN_TRACE_ASYNC_END("serve.write", trace_id);
    IPIN_TRACE_ASYNC_END("serve.request", trace_id);
    if (record.total_us > options_.slow_query_us) {
      LogWarning(StrFormat(
          "route: slow request trace_id=%s id=%lld status=%s total_us=%lld "
          "(admission=%lld queue=%lld route=%lld write=%lld)",
          TraceIdToHex(trace_id).c_str(),
          static_cast<long long>(record.id), StatusCodeName(record.status),
          static_cast<long long>(record.total_us),
          static_cast<long long>(record.admission_us),
          static_cast<long long>(record.queue_us),
          static_cast<long long>(record.eval_us),
          static_cast<long long>(record.write_us)));
    }
  }
}

std::optional<Response> RouterServer::RunShardLeg(
    const std::shared_ptr<ShardFleet>& fleet, bool prev, size_t shard,
    const Request& leg, Clock::time_point leg_deadline,
    FlightRecorder* flight) {
  const Clock::time_point start = Clock::now();
  IPIN_COUNTER_ADD("serve.shard.legs", 1);
  if (prev) IPIN_COUNTER_ADD("serve.shard.legs.fallback", 1);
  IPIN_TRACE_ASYNC_BEGIN("serve.shard.leg", leg.trace_id);
  ShardHealthTracker& health = fleet->SideHealth(prev);

  // One flight record per leg, tagged with its shard, under the request's
  // trace id — the dump shows which leg made a request slow or partial.
  const auto record_leg = [&](StatusCode status, uint64_t epoch) {
    RequestRecord record;
    record.shard = static_cast<int>(shard);
    record.trace_id = leg.trace_id;
    record.id = leg.id;
    record.mode = leg.mode;
    record.status = status;
    record.num_seeds = leg.seeds.size();
    record.epoch = epoch;
    record.eval_us = ToMicros(Clock::now() - start);
    record.total_us = record.eval_us;
    flight->Record(record);
    IPIN_TRACE_ASYNC_END("serve.shard.leg", leg.trace_id);
  };

  if (!health.AllowRequest(shard)) {
    // Circuit open on every endpoint: report the shard missing immediately
    // instead of burning the request's budget on backends known to be down.
    IPIN_COUNTER_ADD("serve.shard.legs.skipped", 1);
    record_leg(StatusCode::kUnavailable, 0);
    return std::nullopt;
  }
  // Replica failover: dial whatever endpoint the health tracker currently
  // designates (the primary, or a promoted replica while the primary's
  // circuit is open). All outcome bookkeeping is addressed to this endpoint
  // so a replica's failures never count against the primary.
  const size_t endpoint = health.ActiveEndpoint(shard);
  int64_t remaining_ms = MillisUntil(leg_deadline);
  if (remaining_ms < 1) {
    // Never ran: says nothing about the shard's health.
    record_leg(StatusCode::kDeadlineExceeded, 0);
    return std::nullopt;
  }

  std::optional<Response> result;
  std::string error;
  if (IPIN_FAILPOINT("serve.shard.connect").fail) {
    error = "injected serve.shard.connect fault";
  } else {
    auto client = fleet->Borrow(prev, shard, endpoint);
    const bool hedge = fleet->options.hedge_after_ms > 0 &&
                       fleet->options.hedge_after_ms < remaining_ms;
    client->SetIoTimeout(hedge ? fleet->options.hedge_after_ms
                               : remaining_ms);
    if (IPIN_FAILPOINT("serve.shard.rpc").fail) {
      error = "injected serve.shard.rpc fault";
      client->Disconnect();
    } else {
      result = client->Call(leg, &error);
    }
    if (result.has_value()) {
      fleet->Return(prev, shard, endpoint, std::move(client));
    } else if (hedge) {
      // Hedged retry: the first attempt straggled past hedge_after_ms (or
      // failed outright); re-send once on the mirror — or the same endpoint
      // when none is configured — with whatever budget is left.
      IPIN_COUNTER_ADD("serve.shard.hedged", 1);
      remaining_ms = MillisUntil(leg_deadline);
      if (remaining_ms >= 1) {
        if (IPIN_FAILPOINT("serve.shard.rpc").fail) {
          error = "injected serve.shard.rpc fault";
        } else {
          auto hedged =
              fleet->NewClient(prev, shard, endpoint, /*prefer_mirror=*/true);
          hedged->SetIoTimeout(remaining_ms);
          result = hedged->Call(leg, &error);
        }
      }
    }
  }
  IPIN_HISTOGRAM_RECORD("serve.shard.leg_us", ToMicros(Clock::now() - start));

  // A usable partial is OK (merged) or BAD_REQUEST (propagated: the seed
  // range check is deterministic across shards). Everything else — no
  // response, OVERLOADED, UNAVAILABLE, DEADLINE_EXCEEDED, INTERNAL — counts
  // against the endpoint's health and the leg is reported missing.
  const bool usable = result.has_value() &&
                      (result->status == StatusCode::kOk ||
                       result->status == StatusCode::kBadRequest);
  if (usable) {
    health.OnEndpointSuccess(shard, endpoint);
    IPIN_COUNTER_ADD("serve.shard.legs.ok", 1);
    record_leg(result->status, result->epoch);
    return result;
  }
  health.OnEndpointFailure(shard, endpoint);
  IPIN_COUNTER_ADD("serve.shard.legs.failed", 1);
  if (!result.has_value()) {
    LogDebug(StrFormat("route: shard %zu endpoint %zu leg failed "
                       "trace_id=%s: %s",
                       shard, endpoint, TraceIdToHex(leg.trace_id).c_str(),
                       error.c_str()));
  }
  record_leg(result.has_value() ? result->status : StatusCode::kUnavailable,
             result.has_value() ? result->epoch : 0);
  return std::nullopt;
}

Response RouterServer::EvaluateScatter(const Request& request,
                                       Clock::time_point deadline) {
  Response response;
  response.id = request.id;
  response.trace_id = request.trace_id;

  const std::shared_ptr<ShardFleet> fleet = Fleet();
  if (fleet == nullptr) {
    response.status = StatusCode::kUnavailable;
    response.error = "no shard map loaded";
    response.retry_after_ms = options_.retry_after_ms;
    return response;
  }
  response.epoch = fleet->epoch;

  // Fan-out plan: for a query, one leg per shard owning >= 1 seed (with its
  // disjoint seed subset, want_ranks=true, sketch mode); for topk, one leg
  // per shard (every shard may own top nodes). During a transition, moved
  // seeds additionally ride a fallback leg to their previous-epoch owner
  // (double-dispatch: the merge is idempotent, so the overlap is free), and
  // topk fans out to the previous fleet as well.
  const bool topk = request.method == Method::kTopk;
  const bool in_transition = fleet->map->InTransition();
  struct Leg {
    size_t shard = 0;
    /// Targets the previous-epoch fleet (fallback leg of a double
    /// dispatch).
    bool prev = false;
    /// Positions in request.seeds this leg carries (coverage accounting —
    /// overlapping legs must not double-count a seed).
    std::vector<size_t> seed_idx;
    Request request;
  };
  std::vector<Leg> legs;
  const size_t total_seeds = request.seeds.size();
  // Each leg's deadline leaves the router margin to merge and answer; the
  // leg's wire deadline_ms tells the backend the same budget.
  const Clock::time_point leg_deadline = std::max(
      Clock::now() + std::chrono::milliseconds(1),
      deadline - std::chrono::milliseconds(options_.shard_deadline_margin_ms));
  const int64_t leg_deadline_ms = std::max<int64_t>(1,
                                                    MillisUntil(leg_deadline));
  const auto make_leg = [&](size_t shard, bool prev) {
    Leg leg;
    leg.shard = shard;
    leg.prev = prev;
    leg.request.method = topk ? Method::kTopk : Method::kQuery;
    if (topk) {
      leg.request.k = request.k;
    } else {
      leg.request.mode = QueryMode::kSketch;
      leg.request.want_ranks = true;
    }
    leg.request.deadline_ms = leg_deadline_ms;
    leg.request.trace_id = request.trace_id;
    leg.request.parent_span = request.trace_id;
    return leg;
  };
  size_t num_new_legs = 0;  // topk: legs on the new epoch's fleet
  if (topk) {
    num_new_legs = fleet->map->num_shards();
    legs.reserve(num_new_legs +
                 (in_transition ? fleet->map->previous()->num_shards() : 0));
    for (size_t s = 0; s < num_new_legs; ++s) {
      legs.push_back(make_leg(s, /*prev=*/false));
    }
    if (in_transition) {
      for (size_t s = 0; s < fleet->map->previous()->num_shards(); ++s) {
        legs.push_back(make_leg(s, /*prev=*/true));
      }
    }
  } else {
    // Partition by the NEW map, remembering each seed's position; moved
    // seeds get a second, previous-epoch partition.
    std::vector<std::vector<size_t>> parts(fleet->map->num_shards());
    std::vector<std::vector<size_t>> prev_parts(
        in_transition ? fleet->map->previous()->num_shards() : 0);
    for (size_t i = 0; i < request.seeds.size(); ++i) {
      const NodeId seed = request.seeds[i];
      parts[fleet->map->OwnerOf(seed)].push_back(i);
      if (in_transition && fleet->map->OwnerMoved(seed)) {
        prev_parts[fleet->map->previous()->OwnerOf(seed)].push_back(i);
      }
    }
    const auto emit = [&](std::vector<std::vector<size_t>>& side_parts,
                          bool prev) {
      for (size_t s = 0; s < side_parts.size(); ++s) {
        if (side_parts[s].empty()) continue;
        Leg leg = make_leg(s, prev);
        leg.seed_idx = std::move(side_parts[s]);
        leg.request.seeds.reserve(leg.seed_idx.size());
        for (const size_t i : leg.seed_idx) {
          leg.request.seeds.push_back(request.seeds[i]);
        }
        legs.push_back(std::move(leg));
      }
    };
    emit(parts, /*prev=*/false);
    if (in_transition) emit(prev_parts, /*prev=*/true);
  }
  if (legs.empty()) {
    // A query whose seed set is empty unions nothing — the single-process
    // answer is 0 with no shard involved.
    response.status = StatusCode::kOk;
    response.estimate = 0.0;
    IPIN_COUNTER_ADD("serve.requests.ok", 1);
    return response;
  }

  // Scatter. Legs run on the shared global pool and rendezvous through a
  // refcounted Gather; the worker waits until every leg delivered or the
  // request deadline passed. A straggler completing later writes into the
  // still-alive Gather and is ignored. Legs capture only refcounted state
  // (fleet, gather, flight) — never `this` — so a leg stuck in a socket
  // timeout cannot dangle across server shutdown.
  auto gather = std::make_shared<Gather>();
  gather->pending = legs.size();
  gather->results.resize(legs.size());
  const std::shared_ptr<FlightRecorder> flight = flight_;
  for (size_t i = 0; i < legs.size(); ++i) {
    GlobalPool().Submit([fleet, gather, flight, i,
                         leg = legs[i].request, shard = legs[i].shard,
                         prev = legs[i].prev, leg_deadline] {
      std::optional<Response> result =
          RunShardLeg(fleet, prev, shard, leg, leg_deadline, flight.get());
      std::lock_guard<std::mutex> lock(gather->mu);
      gather->results[i] = std::move(result);
      --gather->pending;
      gather->cv.notify_all();
    });
  }

  // Gather.
  std::vector<std::optional<Response>> results;
  {
    std::unique_lock<std::mutex> lock(gather->mu);
    gather->cv.wait_until(lock, deadline,
                          [&] { return gather->pending == 0; });
    results = gather->results;
  }

  // Merge. During a transition the same seed (query) or the same node
  // (topk) may arrive from both epochs; the cellwise max is idempotent and
  // both epochs computed the identical per-node sketch, so the overlap
  // merges away — per-seed coverage bits and a by-node dedupe keep the
  // accounting honest.
  size_t answered = 0;
  size_t answered_new = 0;   // topk: usable legs on the new fleet
  size_t answered_prev = 0;  // topk: usable legs on the previous fleet
  std::vector<bool> covered(total_seeds, false);
  std::vector<uint8_t> merged;
  std::vector<std::pair<NodeId, double>> candidates;
  for (size_t i = 0; i < legs.size(); ++i) {
    if (!results[i].has_value()) continue;
    const Response& partial = *results[i];
    if (partial.status == StatusCode::kBadRequest) {
      // Deterministic across shards (full node space everywhere): the
      // request itself is bad, not the fan-out.
      response.status = StatusCode::kBadRequest;
      response.error = partial.error;
      IPIN_COUNTER_ADD("serve.requests.bad", 1);
      return response;
    }
    if (topk) {
      candidates.insert(candidates.end(), partial.topk.begin(),
                        partial.topk.end());
    } else {
      if (partial.ranks.empty() ||
          (!merged.empty() && partial.ranks.size() != merged.size())) {
        // Protocol violation (a sketch answer always carries beta cells):
        // treat the leg as missing rather than poison the merge.
        LogWarning(StrFormat("route: shard %zu returned a malformed rank "
                             "vector; dropping its partial",
                             legs[i].shard));
        continue;
      }
      if (merged.empty()) {
        merged = partial.ranks;
      } else {
        for (size_t c = 0; c < merged.size(); ++c) {
          if (partial.ranks[c] > merged[c]) merged[c] = partial.ranks[c];
        }
      }
      for (const size_t idx : legs[i].seed_idx) covered[idx] = true;
    }
    ++answered;
    if (legs[i].prev) {
      ++answered_prev;
    } else {
      ++answered_new;
    }
  }

  if (IPIN_FAILPOINT("serve.shard.merge").fail) {
    response.status = StatusCode::kInternal;
    response.error = "injected serve.shard.merge fault";
    return response;
  }

  response.shards_total = static_cast<int64_t>(legs.size());
  response.shards_answered = static_cast<int64_t>(answered);
  if (answered == 0) {
    // Nothing to stand an answer on. This is the ONLY path on which a
    // fanned-out request errors: any single answering shard yields a
    // partial instead.
    response.status = StatusCode::kUnavailable;
    response.error = "no shard answered";
    response.retry_after_ms = options_.retry_after_ms;
    return response;
  }

  response.status = StatusCode::kOk;
  if (topk) {
    // Either epoch's fleet can produce the complete answer on its own, so
    // coverage is the better of the two fractions (no transition: all legs
    // are new-side and this is the usual answered/total).
    const size_t prev_legs = legs.size() - num_new_legs;
    const double new_frac =
        num_new_legs == 0 ? 0.0
                          : static_cast<double>(answered_new) /
                                static_cast<double>(num_new_legs);
    const double prev_frac =
        prev_legs == 0 ? 0.0
                       : static_cast<double>(answered_prev) /
                             static_cast<double>(prev_legs);
    response.coverage = std::max(new_frac, prev_frac);
  } else {
    size_t marked = 0;
    for (const bool c : covered) marked += c ? 1 : 0;
    response.coverage = total_seeds == 0
                            ? 1.0
                            : static_cast<double>(marked) /
                                  static_cast<double>(total_seeds);
  }
  // Incomplete coverage is a degraded answer (double-dispatch means a lost
  // leg is harmless when the seed's other-epoch owner answered); so is a
  // sketch-merged answer where the client explicitly asked for exact
  // evaluation (the router always merges on the sketch path).
  response.degraded =
      response.coverage < 1.0 || (!topk && request.mode == QueryMode::kExact);
  if (topk) {
    // Ownership is disjoint within an epoch, so the global top-k is the k
    // best of the shards' local top-k lists — same order (estimate desc,
    // ties by node id asc) as a single backend would produce. Across epochs
    // the same node may appear twice with the identical estimate (both
    // epochs answer from the same per-node sketch): dedupe by node id
    // before cutting to k.
    std::sort(candidates.begin(), candidates.end(),
              [](const std::pair<NodeId, double>& a,
                 const std::pair<NodeId, double>& b) {
                if (a.first != b.first) return a.first < b.first;
                return a.second > b.second;
              });
    candidates.erase(
        std::unique(candidates.begin(), candidates.end(),
                    [](const std::pair<NodeId, double>& a,
                       const std::pair<NodeId, double>& b) {
                      return a.first == b.first;
                    }),
        candidates.end());
    std::sort(candidates.begin(), candidates.end(),
              [](const std::pair<NodeId, double>& a,
                 const std::pair<NodeId, double>& b) {
                if (a.second != b.second) return a.second > b.second;
                return a.first < b.first;
              });
    const size_t k = static_cast<size_t>(std::max<int64_t>(1, request.k));
    if (candidates.size() > k) candidates.resize(k);
    response.topk = std::move(candidates);
  } else {
    // The exactness tentpole: cellwise max over disjoint partials, one
    // estimate at the end — bit-identical to the single-process answer
    // over the answered seeds (see shard_map.h). With shards missing it is
    // a conservative lower bound: absent seeds only lose rank mass.
    response.estimate = merged.empty() ? 0.0 : EstimateFromRanks(merged);
    if (request.want_ranks) response.ranks = std::move(merged);
  }
  IPIN_COUNTER_ADD("serve.requests.ok", 1);
  if (response.degraded) {
    IPIN_COUNTER_ADD("serve.requests.degraded", 1);
    IPIN_COUNTER_ADD("serve.requests.partial", 1);
    LogWarning(StrFormat(
        "route: partial answer trace_id=%s id=%lld shards=%lld/%lld "
        "coverage=%.3f",
        TraceIdToHex(request.trace_id).c_str(),
        static_cast<long long>(request.id),
        static_cast<long long>(response.shards_answered),
        static_cast<long long>(response.shards_total), response.coverage));
  }
  return response;
}

void RouterServer::ProbeLoop() {
  const int64_t interval_ms =
      std::max<int64_t>(1, options_.health.probe_interval_ms);
  while (true) {
    {
      std::unique_lock<std::mutex> lock(probe_mu_);
      // Wake at twice the probe rate so a due probe is never late by more
      // than half an interval; ProbeDue rate-limits the actual sends.
      probe_cv_.wait_for(lock,
                         std::chrono::milliseconds(std::max<int64_t>(
                             1, interval_ms / 2)),
                         [this] { return probe_stop_; });
      if (probe_stop_) return;
    }
    std::shared_ptr<ShardFleet> fleet;
    {
      std::lock_guard<std::mutex> lock(fleet_mu_);
      fleet = fleet_;
    }
    if (fleet == nullptr) continue;
    // Probe both epochs during a transition — the previous fleet keeps
    // serving fallback legs until the map is finalized, so its endpoints
    // need recovery probes too.
    for (const bool prev : {false, true}) {
      if (prev && fleet->prev_health == nullptr) continue;
      ShardHealthTracker& health = fleet->SideHealth(prev);
      const ShardMap& map = fleet->SideMap(prev);
      for (size_t s = 0; s < map.num_shards(); ++s) {
        size_t endpoint = 0;
        if (!health.ProbeDueEndpoint(s, &endpoint)) continue;
        IPIN_COUNTER_ADD("serve.shard.probe", 1);
        Request probe;
        probe.method = Method::kHealth;
        auto client =
            fleet->NewClient(prev, s, endpoint, /*prefer_mirror=*/false);
        client->SetIoTimeout(std::max<int64_t>(10, interval_ms));
        std::string error;
        const std::optional<Response> result = client->Call(probe, &error);
        // Recovery requires a SERVING backend: a daemon that answers health
        // with UNAVAILABLE (no index yet) stays down rather than flapping
        // between probe-recovered and leg-failed.
        if (result.has_value() && result->status == StatusCode::kOk) {
          IPIN_COUNTER_ADD("serve.shard.probe.ok", 1);
          health.OnEndpointSuccess(s, endpoint);
        } else {
          health.OnEndpointFailure(s, endpoint);
        }
      }
    }
  }
}

Response RouterServer::StatsResponse(const Request& request) {
  Response response;
  response.id = request.id;
  response.trace_id = request.trace_id;
  response.status = StatusCode::kOk;
  response.epoch = map_->Epoch();
  size_t active;
  {
    std::lock_guard<std::mutex> lock(conns_mu_);
    active = active_connections_;
  }
  size_t shards = 0;
  size_t healthy = 0;
  size_t suspect = 0;
  size_t down = 0;
  {
    const auto snapshot = map_->Snapshot();
    if (snapshot.map != nullptr) shards = snapshot.map->num_shards();
  }
  for (const ShardState state : ShardHealth()) {
    switch (state) {
      case ShardState::kHealthy:
        ++healthy;
        break;
      case ShardState::kSuspect:
        ++suspect;
        break;
      case ShardState::kDown:
        ++down;
        break;
    }
  }
  response.info = {
      {"queue_depth", static_cast<double>(queue_.Depth())},
      {"queue_capacity", static_cast<double>(options_.queue_capacity)},
      {"workers", static_cast<double>(options_.num_workers)},
      {"connections_active", static_cast<double>(active)},
      {"map_epoch", static_cast<double>(map_->Epoch())},
      {"shards_total", static_cast<double>(shards)},
      {"shards_healthy", static_cast<double>(healthy)},
      {"shards_suspect", static_cast<double>(suspect)},
      {"shards_down", static_cast<double>(down)},
      {"draining", draining_.load(std::memory_order_acquire) ? 1.0 : 0.0},
  };
#ifndef IPIN_OBS_DISABLED
  const double win_s = static_cast<double>(options_.stats_window_s);
  const obs::HistogramSnapshot latency =
      window_.WindowedHistogram("serve.latency.route_us", win_s);
  response.info.emplace_back("win_s", win_s);
  response.info.emplace_back("win_qps",
                             window_.Rate("serve.requests.accepted", win_s));
  response.info.emplace_back("win_ok_per_s",
                             window_.Rate("serve.requests.ok", win_s));
  response.info.emplace_back(
      "win_partial_per_s", window_.Rate("serve.requests.partial", win_s));
  response.info.emplace_back(
      "win_leg_fail_per_s", window_.Rate("serve.shard.legs.failed", win_s));
  response.info.emplace_back("win_route_count",
                             static_cast<double>(latency.count));
  response.info.emplace_back("win_p50_us", latency.P50());
  response.info.emplace_back("win_p95_us", latency.P95());
  response.info.emplace_back("win_p99_us", latency.P99());
#endif
  return response;
}

void RouterServer::WriteResponse(const std::shared_ptr<Connection>& conn,
                                 const Response& response,
                                 int64_t write_timeout_ms) {
  if (conn->broken.load(std::memory_order_acquire)) return;
  WriteLine(conn, SerializeResponse(response), write_timeout_ms);
}

void RouterServer::WriteLine(const std::shared_ptr<Connection>& conn,
                             const std::string& line,
                             int64_t write_timeout_ms) {
  std::lock_guard<std::mutex> lock(conn->write_mu);
  if (conn->broken.load(std::memory_order_acquire)) return;
  if (!WriteAll(conn->fd, line, write_timeout_ms)) {
    conn->broken.store(true, std::memory_order_release);
    ::shutdown(conn->fd, SHUT_RDWR);
  }
}

void RouterServer::Shutdown() {
  if (!running_.exchange(false, std::memory_order_acq_rel)) return;
  LogInfo("route: draining");
  drain_deadline_ =
      Clock::now() + std::chrono::milliseconds(options_.drain_deadline_ms);
  draining_.store(true, std::memory_order_release);

  // 1. Stop accepting connections.
  if (acceptor_.joinable()) acceptor_.join();
  if (listen_fd_ >= 0) {
    ::close(listen_fd_);
    listen_fd_ = -1;
  }
  if (!options_.unix_socket_path.empty()) {
    ::unlink(options_.unix_socket_path.c_str());
  }

  // 2. Half-close connections: no new requests, queued answers still flow.
  {
    std::lock_guard<std::mutex> lock(conns_mu_);
    for (auto& slot : readers_) ::shutdown(slot.conn->fd, SHUT_RD);
  }

  // 3. Drain the queue; workers answer what is in it (their scatter waits
  // are bounded by each request's deadline) and exit on the empty signal.
  queue_.Drain();
  worker_pool_.reset();

  // 4. Join the readers.
  std::vector<ReaderSlot> readers;
  {
    std::lock_guard<std::mutex> lock(conns_mu_);
    readers.swap(readers_);
  }
  for (auto& slot : readers) {
    if (slot.thread.joinable()) slot.thread.join();
  }

  // 5. Stop the prober (a probe in flight is bounded by its I/O timeout).
  {
    std::lock_guard<std::mutex> lock(probe_mu_);
    probe_stop_ = true;
  }
  probe_cv_.notify_all();
  if (prober_.joinable()) prober_.join();

  window_.Stop();
  IPIN_GAUGE_SET("serve.queue.depth", 0);
  LogInfo("route: drained, all workers stopped");
}

}  // namespace ipin::serve
