#include "ipin/serve/router.h"

#include <algorithm>
#include <unordered_map>

#include "ipin/common/failpoint.h"
#include "ipin/common/logging.h"
#include "ipin/common/string_util.h"
#include "ipin/obs/export.h"
#include "ipin/obs/metrics.h"
#include "ipin/obs/trace_events.h"
#include "ipin/sketch/estimators.h"

namespace ipin::serve {
namespace {

int64_t ToMicros(std::chrono::steady_clock::duration d) {
  return std::chrono::duration_cast<std::chrono::microseconds>(d).count();
}

int64_t MillisUntil(std::chrono::steady_clock::time_point deadline) {
  return std::chrono::duration_cast<std::chrono::milliseconds>(
             deadline - std::chrono::steady_clock::now())
      .count();
}

void Reply(Connection& conn, const Response& response) {
  conn.Send(SerializeResponse(response));
}

// Per-shard endpoint count (primary + replicas) for the health tracker.
std::vector<size_t> EndpointCounts(const ShardMap& map) {
  std::vector<size_t> counts(map.num_shards());
  for (size_t i = 0; i < map.num_shards(); ++i) {
    counts[i] = 1 + map.shard(i).replicas.size();
  }
  return counts;
}

std::string EndpointKey(const ShardEndpoint& endpoint, bool hedged) {
  std::string key = !endpoint.unix_socket_path.empty()
                        ? endpoint.unix_socket_path
                        : StrFormat("%s:%d", endpoint.tcp_host.c_str(),
                                    endpoint.tcp_port);
  // Hedged retries ride a connection of their own, so a straggling stream
  // cannot hold the retry up behind it.
  if (hedged) key += "#hedge";
  return key;
}

}  // namespace

struct RouterServer::Routed {
  struct Leg {
    size_t shard = 0;
    /// Targets the previous-epoch fleet (fallback leg of a double
    /// dispatch).
    bool prev = false;
    /// Positions in request.seeds this leg carries (coverage accounting —
    /// overlapping legs must not double-count a seed).
    std::vector<size_t> seed_idx;
    Request request;

    Clock::time_point start{};
    /// When the current attempt was written, and when it is given up on.
    Clock::time_point written{};
    Clock::time_point deadline{};
    size_t endpoint = 0;
    /// The first attempt is capped at hedge_after_ms; one retry is left.
    bool hedge = false;
    /// Wire id of the attempt in flight; 0 = none.
    int64_t wire_id = 0;
    int64_t wire_us = 0;
    bool done = false;
    /// The usable partial (OK or BAD_REQUEST); empty if the leg failed.
    std::optional<Response> result;
    std::string error;
  };

  std::shared_ptr<Connection> client;
  Request request;
  Clock::time_point received{};
  Clock::time_point deadline{};
  Clock::time_point leg_deadline{};
  Clock::time_point route_start{};
  int64_t admission_us = 0;
  std::shared_ptr<ShardFleet> fleet;
  std::vector<Leg> legs;
  /// topk: legs on the new epoch's fleet (the rest target the previous).
  size_t num_new_legs = 0;
  size_t pending = 0;
  /// Set while a caller walks the legs: Finish waits until it is done.
  bool held = false;
  EventLoop::TimerId timer = 0;
  Clock::time_point timer_at{};
  /// Set when the answer needs no merge (no fleet, no legs, drain cut).
  std::optional<Response> answer;
};

struct RouterServer::LoopState {
  std::shared_ptr<EventLoop> loop;
  /// Persistent pipelined shard connections, by endpoint key.
  std::unordered_map<std::string, std::shared_ptr<Connection>> shards;
  struct Wire {
    Routed* routed;
    size_t leg;
    const Connection* conn;
  };
  /// Leg attempts in flight, by wire id.
  std::unordered_map<int64_t, Wire> wire;
  int64_t next_wire_id = 1;
  std::unordered_map<const Routed*, std::unique_ptr<Routed>> routed;
};

RouterServer::ShardFleet::ShardFleet(std::shared_ptr<const ShardMap> map,
                                     uint64_t epoch,
                                     const RouterOptions& options)
    : map(std::move(map)),
      epoch(epoch),
      options(options),
      health(EndpointCounts(*this->map), options.health) {
  if (this->map->InTransition()) {
    prev_health = std::make_unique<ShardHealthTracker>(
        EndpointCounts(*this->map->previous()), options.health);
  }
}

const ShardEndpoint& RouterServer::ShardFleet::Endpoint(
    bool prev, size_t shard, size_t endpoint, bool prefer_mirror) const {
  const ShardInfo& info = SideMap(prev).shard(shard);
  if (prefer_mirror && info.mirror.valid()) return info.mirror;
  if (endpoint >= 1 && endpoint <= info.replicas.size()) {
    return info.replicas[endpoint - 1];
  }
  return info.endpoint;
}

std::unique_ptr<OracleClient> RouterServer::ShardFleet::NewClient(
    bool prev, size_t shard, size_t endpoint, int64_t io_timeout_ms) const {
  const ShardEndpoint& ep =
      Endpoint(prev, shard, endpoint, /*prefer_mirror=*/false);
  ClientOptions client_options;
  client_options.unix_socket_path = ep.unix_socket_path;
  client_options.tcp_host = ep.tcp_host;
  client_options.tcp_port = ep.tcp_port;
  client_options.connect_timeout_ms = options.connect_timeout_ms;
  client_options.io_timeout_ms = io_timeout_ms;
  // The router owns the retry policy; a probe must fail fast, not add its
  // own backoff loop.
  client_options.max_attempts = 1;
  return std::make_unique<OracleClient>(client_options);
}

RouterServer::RouterServer(ShardMapManager* map, RouterOptions options)
    : map_(map),
      options_(std::move(options)),
      flight_(options_.flight_recorder_size, options_.flight_slow_size,
              options_.slow_query_us),
      window_(obs::WindowedAggregatorOptions{
          /*sample_period_ms=*/1000,
          /*num_buckets=*/std::max<size_t>(
              64, static_cast<size_t>(std::max<int64_t>(
                      0, options_.stats_window_s)) * 2)}) {}

RouterServer::~RouterServer() { Shutdown(); }

bool RouterServer::Start() {
  if (running_.load(std::memory_order_acquire)) return true;
  draining_.store(false, std::memory_order_release);
  const size_t num_loops =
      static_cast<size_t>(std::max(1, options_.num_workers));
  loops_.clear();
  for (size_t i = 0; i < num_loops; ++i) {
    loops_.push_back(std::make_unique<LoopState>());
  }
  EventServerOptions net_options;
  net_options.unix_socket_path = options_.unix_socket_path;
  net_options.tcp_port = options_.tcp_port;
  net_options.num_loops = static_cast<int>(num_loops);
  net_options.max_connections = options_.max_connections;
  net_options.write_timeout_ms = options_.write_timeout_ms;
  net_options.retry_after_ms = options_.retry_after_ms;
  net_options.log_tag = "route";
  net_ = std::make_unique<EventServer>(
      net_options,
      [this](const std::shared_ptr<Connection>& conn, std::string_view line) {
        HandleLine(conn, line);
      });
  if (!net_->Start()) {
    net_.reset();
    return false;
  }
  bound_port_ = net_->bound_port();
  running_.store(true, std::memory_order_release);

#ifndef IPIN_OBS_DISABLED
  window_.Start();
#endif

  {
    std::lock_guard<std::mutex> lock(probe_mu_);
    probe_stop_ = false;
  }
  prober_ = std::thread([this] { ProbeLoop(); });
  LogInfo(StrFormat("route: listening on %s (%zu loops, %zu in flight max)",
                    !options_.unix_socket_path.empty()
                        ? options_.unix_socket_path.c_str()
                        : StrFormat("127.0.0.1:%d", bound_port_).c_str(),
                    num_loops, options_.queue_capacity));
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

RouterServer::LoopState& RouterServer::State(const Connection& conn) {
  LoopState& state = *loops_[conn.loop().index()];
  if (state.loop == nullptr) state.loop = net_->loop(conn.loop().index());
  return state;
}

void RouterServer::HandleLine(const std::shared_ptr<Connection>& conn,
                              std::string_view line) {
  const Clock::time_point received = Clock::now();
  std::string parse_error;
  int64_t id = 0;
  auto request = ParseRequest(line, &parse_error, &id);
  if (!request.has_value()) {
    Response bad;
    bad.id = id;
    bad.status = StatusCode::kBadRequest;
    bad.error = parse_error;
    IPIN_COUNTER_ADD("serve.requests.bad", 1);
    Reply(*conn, bad);
    return;
  }
  HandleRequest(conn, std::move(*request), received);
}

void RouterServer::HandleRequest(const std::shared_ptr<Connection>& conn,
                                 Request&& request,
                                 Clock::time_point received) {
  switch (request.method) {
    case Method::kHealth: {
      IPIN_LATENCY_SCOPE("serve.latency.health_us");
      Response response;
      response.id = request.id;
      response.trace_id = request.trace_id;
      response.epoch = map_->Epoch();
      response.status = response.epoch > 0 ? StatusCode::kOk
                                           : StatusCode::kUnavailable;
      Reply(*conn, response);
      return;
    }
    case Method::kStats: {
      IPIN_LATENCY_SCOPE("serve.latency.stats_us");
      Reply(*conn, StatsResponse(request));
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
      Reply(*conn, response);
      return;
    }
    case Method::kDebug: {
      IPIN_LATENCY_SCOPE("serve.latency.debug_us");
      Response response;
      response.id = request.id;
      response.trace_id = request.trace_id;
      response.status = StatusCode::kOk;
      response.epoch = map_->Epoch();
      response.payload = flight_.DumpJson();
      Reply(*conn, response);
      return;
    }
    case Method::kReload: {
      // The router's reload verb swaps the SHARD MAP, not an index. The map
      // is one small JSON document, so unlike the oracle server's index
      // reload it runs inline on the loop; a corrupt file rolls back
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
      Reply(*conn, response);
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
      Reply(*conn, response);
      return;
    }
    case Method::kQuery:
    case Method::kTopk:
      break;
  }
  Route(conn, std::move(request), received);
}

void RouterServer::Route(const std::shared_ptr<Connection>& conn,
                         Request&& request, Clock::time_point received) {
  if (request.trace_id == 0) {
    request.trace_id = next_trace_id_.fetch_add(1, std::memory_order_relaxed);
  }
  const uint64_t trace_id = request.trace_id;
  const int64_t id = request.id;
  IPIN_TRACE_ASYNC_BEGIN("serve.request", trace_id);

  // Admission: no new work while draining, and at most queue_capacity
  // routed requests in flight across the loops — the excess is shed.
  const bool draining = draining_.load(std::memory_order_acquire);
  if (draining ||
      inflight_.load(std::memory_order_relaxed) >= options_.queue_capacity) {
    Response response;
    response.id = id;
    response.trace_id = trace_id;
    response.status =
        draining ? StatusCode::kUnavailable : StatusCode::kOverloaded;
    if (draining) response.error = "server is draining";
    response.retry_after_ms = options_.retry_after_ms;
    if (!draining) IPIN_COUNTER_ADD("serve.requests.shed", 1);
    RecordRejected(trace_id, id, request.mode, request.seeds.size(),
                   response.status, received);
    Reply(*conn, response);
    IPIN_TRACE_ASYNC_END("serve.request", trace_id);
    return;
  }
  inflight_.fetch_add(1, std::memory_order_relaxed);
  IPIN_COUNTER_ADD("serve.requests.accepted", 1);

  LoopState& state = State(*conn);
  auto owned = std::make_unique<Routed>();
  Routed& routed = *owned;
  state.routed.emplace(&routed, std::move(owned));
  routed.client = conn;
  routed.received = received;
  const int64_t deadline_ms = request.deadline_ms > 0
                                  ? request.deadline_ms
                                  : options_.default_deadline_ms;
  routed.deadline = received + std::chrono::milliseconds(deadline_ms);
  routed.request = std::move(request);
  routed.route_start = Clock::now();
  routed.admission_us = ToMicros(routed.route_start - received);
  IPIN_TRACE_ASYNC_BEGIN("serve.route", trace_id);

  const Request& req = routed.request;
  Response& answer = routed.answer.emplace();
  answer.id = id;
  answer.trace_id = trace_id;
  routed.fleet = Fleet();
  if (routed.fleet == nullptr) {
    answer.status = StatusCode::kUnavailable;
    answer.error = "no shard map loaded";
    answer.retry_after_ms = options_.retry_after_ms;
    Finish(state, routed);
    return;
  }
  const ShardFleet& fleet = *routed.fleet;
  answer.epoch = fleet.epoch;

  // Fan-out plan: for a query, one leg per shard owning >= 1 seed (with its
  // disjoint seed subset, want_ranks=true, sketch mode); for topk, one leg
  // per shard (every shard may own top nodes). During a transition, moved
  // seeds additionally ride a fallback leg to their previous-epoch owner
  // (double-dispatch: the merge is idempotent, so the overlap is free), and
  // topk fans out to the previous fleet as well.
  const bool topk = req.method == Method::kTopk;
  const bool in_transition = fleet.map->InTransition();
  std::vector<Routed::Leg>& legs = routed.legs;
  // Each leg's deadline leaves the router margin to merge and answer; the
  // leg's wire deadline_ms tells the backend the same budget.
  routed.leg_deadline = std::max(
      Clock::now() + std::chrono::milliseconds(1),
      routed.deadline -
          std::chrono::milliseconds(options_.shard_deadline_margin_ms));
  const int64_t leg_deadline_ms =
      std::max<int64_t>(1, MillisUntil(routed.leg_deadline));
  const auto make_leg = [&](size_t shard, bool prev) {
    Routed::Leg leg;
    leg.shard = shard;
    leg.prev = prev;
    leg.request.method = topk ? Method::kTopk : Method::kQuery;
    if (topk) {
      leg.request.k = req.k;
    } else {
      leg.request.mode = QueryMode::kSketch;
      leg.request.want_ranks = true;
    }
    leg.request.deadline_ms = leg_deadline_ms;
    leg.request.trace_id = trace_id;
    leg.request.parent_span = trace_id;
    return leg;
  };
  if (topk) {
    routed.num_new_legs = fleet.map->num_shards();
    legs.reserve(routed.num_new_legs +
                 (in_transition ? fleet.map->previous()->num_shards() : 0));
    for (size_t s = 0; s < routed.num_new_legs; ++s) {
      legs.push_back(make_leg(s, /*prev=*/false));
    }
    if (in_transition) {
      for (size_t s = 0; s < fleet.map->previous()->num_shards(); ++s) {
        legs.push_back(make_leg(s, /*prev=*/true));
      }
    }
  } else {
    // Partition by the NEW map, remembering each seed's position; moved
    // seeds get a second, previous-epoch partition.
    std::vector<std::vector<size_t>> parts(fleet.map->num_shards());
    std::vector<std::vector<size_t>> prev_parts(
        in_transition ? fleet.map->previous()->num_shards() : 0);
    for (size_t i = 0; i < req.seeds.size(); ++i) {
      const NodeId seed = req.seeds[i];
      parts[fleet.map->OwnerOf(seed)].push_back(i);
      if (in_transition && fleet.map->OwnerMoved(seed)) {
        prev_parts[fleet.map->previous()->OwnerOf(seed)].push_back(i);
      }
    }
    const auto emit = [&](std::vector<std::vector<size_t>>& side_parts,
                          bool prev) {
      for (size_t s = 0; s < side_parts.size(); ++s) {
        if (side_parts[s].empty()) continue;
        Routed::Leg leg = make_leg(s, prev);
        leg.seed_idx = std::move(side_parts[s]);
        leg.request.seeds.reserve(leg.seed_idx.size());
        for (const size_t i : leg.seed_idx) {
          leg.request.seeds.push_back(req.seeds[i]);
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
    answer.status = StatusCode::kOk;
    answer.estimate = 0.0;
    IPIN_COUNTER_ADD("serve.requests.ok", 1);
    Finish(state, routed);
    return;
  }

  // Scatter: every leg is written now; replies come back to this loop.
  routed.answer.reset();
  routed.pending = legs.size();
  routed.held = true;
  for (size_t i = 0; i < legs.size(); ++i) LaunchLeg(state, routed, i);
  routed.held = false;
  if (routed.pending == 0) {
    Finish(state, routed);
  } else {
    ArmTimer(state, routed);
  }
}

void RouterServer::LaunchLeg(LoopState& state, Routed& routed, size_t i) {
  Routed::Leg& leg = routed.legs[i];
  leg.start = Clock::now();
  IPIN_COUNTER_ADD("serve.shard.legs", 1);
  if (leg.prev) IPIN_COUNTER_ADD("serve.shard.legs.fallback", 1);
  IPIN_TRACE_ASYNC_BEGIN("serve.shard.leg", leg.request.trace_id);
  ShardHealthTracker& health = routed.fleet->SideHealth(leg.prev);
  if (!health.AllowRequest(leg.shard)) {
    // Circuit open on every endpoint: report the shard missing immediately
    // instead of burning the request's budget on backends known to be
    // down. Never ran, so it says nothing about the shard's health.
    IPIN_COUNTER_ADD("serve.shard.legs.skipped", 1);
    CompleteLeg(state, routed, i, StatusCode::kUnavailable, 0);
    return;
  }
  // Replica failover: dial whatever endpoint the health tracker currently
  // designates (the primary, or a promoted replica while the primary's
  // circuit is open). All outcome bookkeeping is addressed to this endpoint
  // so a replica's failures never count against the primary.
  leg.endpoint = health.ActiveEndpoint(leg.shard);
  const int64_t remaining_ms = MillisUntil(routed.leg_deadline);
  if (remaining_ms < 1) {
    // Never ran: says nothing about the shard's health.
    CompleteLeg(state, routed, i, StatusCode::kDeadlineExceeded, 0);
    return;
  }
  if (IPIN_FAILPOINT("serve.shard.connect").fail) {
    leg.error = "injected serve.shard.connect fault";
    LegDone(state, routed, i, std::nullopt);
    return;
  }
  leg.hedge = options_.hedge_after_ms > 0 &&
              options_.hedge_after_ms < remaining_ms;
  leg.deadline = leg.hedge ? leg.start + std::chrono::milliseconds(
                                             options_.hedge_after_ms)
                           : routed.leg_deadline;
  if (!SendAttempt(state, routed, i, /*hedged=*/false)) {
    AttemptFailed(state, routed, i);
  }
}

bool RouterServer::SendAttempt(LoopState& state, Routed& routed, size_t i,
                               bool hedged) {
  Routed::Leg& leg = routed.legs[i];
  if (IPIN_FAILPOINT("serve.shard.rpc").fail) {
    leg.error = "injected serve.shard.rpc fault";
    return false;
  }
  Connection* conn = ShardConnection(
      state,
      routed.fleet->Endpoint(leg.prev, leg.shard, leg.endpoint,
                             /*prefer_mirror=*/hedged),
      hedged, &leg.error);
  if (conn == nullptr) return false;
  leg.wire_id = state.next_wire_id++;
  leg.request.id = leg.wire_id;
  leg.written = Clock::now();
  state.wire.emplace(leg.wire_id, LoopState::Wire{&routed, i, conn});
  conn->Send(SerializeRequest(leg.request));
  return true;
}

void RouterServer::AttemptFailed(LoopState& state, Routed& routed, size_t i) {
  Routed::Leg& leg = routed.legs[i];
  leg.wire_id = 0;
  if (leg.hedge) {
    // Hedged retry: the first attempt straggled past hedge_after_ms (or
    // failed outright); re-send once on the mirror — or a second
    // connection to the same endpoint when none is configured — with
    // whatever budget is left.
    leg.hedge = false;
    IPIN_COUNTER_ADD("serve.shard.hedged", 1);
    if (MillisUntil(routed.leg_deadline) >= 1) {
      leg.deadline = routed.leg_deadline;
      if (SendAttempt(state, routed, i, /*hedged=*/true)) return;
    }
  }
  LegDone(state, routed, i, std::nullopt);
}

void RouterServer::LegDone(LoopState& state, Routed& routed, size_t i,
                           std::optional<Response> result) {
  Routed::Leg& leg = routed.legs[i];
  IPIN_HISTOGRAM_RECORD("serve.shard.leg_us",
                        ToMicros(Clock::now() - leg.start));
  // A usable partial is OK (merged) or BAD_REQUEST (propagated: the seed
  // range check is deterministic across shards). Everything else — no
  // response, OVERLOADED, UNAVAILABLE, DEADLINE_EXCEEDED, INTERNAL — counts
  // against the endpoint's health and the leg is reported missing.
  const bool usable = result.has_value() &&
                      (result->status == StatusCode::kOk ||
                       result->status == StatusCode::kBadRequest);
  ShardHealthTracker& health = routed.fleet->SideHealth(leg.prev);
  if (usable) {
    health.OnEndpointSuccess(leg.shard, leg.endpoint);
    IPIN_COUNTER_ADD("serve.shard.legs.ok", 1);
  } else {
    health.OnEndpointFailure(leg.shard, leg.endpoint);
    IPIN_COUNTER_ADD("serve.shard.legs.failed", 1);
    if (!result.has_value()) {
      LogDebug(StrFormat("route: shard %zu endpoint %zu leg failed "
                         "trace_id=%s: %s",
                         leg.shard, leg.endpoint,
                         TraceIdToHex(leg.request.trace_id).c_str(),
                         leg.error.c_str()));
    }
  }
  const StatusCode status =
      result.has_value() ? result->status : StatusCode::kUnavailable;
  const uint64_t epoch = result.has_value() ? result->epoch : 0;
  if (usable) leg.result = std::move(result);
  CompleteLeg(state, routed, i, status, epoch);
}

void RouterServer::CompleteLeg(LoopState& state, Routed& routed, size_t i,
                               StatusCode status, uint64_t epoch) {
  Routed::Leg& leg = routed.legs[i];
  leg.wire_id = 0;
  leg.done = true;
  // One flight record per leg, tagged with its shard, under the request's
  // trace id — the dump shows which leg made a request slow or partial.
  // Written before the request's reply (record before respond).
  RequestRecord record;
  record.shard = static_cast<int>(leg.shard);
  record.trace_id = leg.request.trace_id;
  record.id = routed.request.id;
  record.mode = leg.request.mode;
  record.status = status;
  record.num_seeds = leg.request.seeds.size();
  record.epoch = epoch;
  record.eval_us = leg.wire_us;
  record.total_us = ToMicros(Clock::now() - leg.start);
  flight_.Record(record);
  IPIN_TRACE_ASYNC_END("serve.shard.leg", leg.request.trace_id);
  if (--routed.pending == 0 && !routed.held) Finish(state, routed);
}

void RouterServer::ArmTimer(LoopState& state, Routed& routed) {
  Clock::time_point next = Clock::time_point::max();
  for (const Routed::Leg& leg : routed.legs) {
    if (leg.wire_id != 0) next = std::min(next, leg.deadline);
  }
  if (next == Clock::time_point::max()) return;
  if (routed.timer != 0 && routed.timer_at == next) return;
  state.loop->CancelTimer(routed.timer);
  routed.timer_at = next;
  routed.timer = state.loop->AddTimer(next, [this, &state, &routed] {
    routed.timer = 0;
    OnRoutedTimer(state, routed);
  });
}

void RouterServer::OnRoutedTimer(LoopState& state, Routed& routed) {
  const Clock::time_point now = Clock::now();
  routed.held = true;
  for (size_t i = 0; i < routed.legs.size(); ++i) {
    Routed::Leg& leg = routed.legs[i];
    if (leg.wire_id == 0 || leg.deadline > now) continue;
    // The attempt ran out of time: forget its wire id (a late reply is
    // dropped), then hedge or give up on the leg.
    state.wire.erase(leg.wire_id);
    leg.error = "timed out";
    AttemptFailed(state, routed, i);
  }
  routed.held = false;
  if (routed.pending == 0) {
    Finish(state, routed);
  } else {
    ArmTimer(state, routed);
  }
}

Connection* RouterServer::ShardConnection(LoopState& state,
                                          const ShardEndpoint& endpoint,
                                          bool hedged, std::string* error) {
  const std::string key = EndpointKey(endpoint, hedged);
  const auto it = state.shards.find(key);
  if (it != state.shards.end() && !it->second->closed()) {
    return it->second.get();
  }
  std::shared_ptr<Connection> conn = Connection::Dial(
      endpoint.unix_socket_path, endpoint.tcp_host, endpoint.tcp_port,
      options_.connect_timeout_ms, options_.write_timeout_ms, state.loop,
      [this, &state](Connection& c, std::string_view line) {
        return OnShardLine(state, c, line);
      },
      [this, &state](Connection& c) { OnShardReleased(state, c); }, error);
  if (conn == nullptr) return nullptr;
  Connection* raw = conn.get();
  state.shards[key] = std::move(conn);
  return raw;
}

bool RouterServer::OnShardLine(LoopState& state, Connection& conn,
                               std::string_view line) {
  std::optional<Response> response = ParseResponse(line);
  if (!response.has_value()) {
    // A torn or corrupt stream: drop the connection, failing its legs.
    LogWarning("route: malformed shard response; dropping the connection");
    return false;
  }
  const auto it = state.wire.find(response->id);
  // An abandoned attempt's late reply (hedged or timed out): nothing waits.
  if (it == state.wire.end() || it->second.conn != &conn) return true;
  const LoopState::Wire wire = it->second;
  state.wire.erase(it);
  Routed::Leg& leg = wire.routed->legs[wire.leg];
  leg.wire_us = ToMicros(Clock::now() - leg.written);
  LegDone(state, *wire.routed, wire.leg, std::move(response));
  return true;
}

void RouterServer::OnShardReleased(LoopState& state, Connection& conn) {
  for (auto it = state.shards.begin(); it != state.shards.end(); ++it) {
    if (it->second.get() == &conn) {
      state.shards.erase(it);
      break;
    }
  }
  // Every attempt in flight on the connection failed with it. Collected
  // first: failing one may dial (hedge) or finish a request.
  std::vector<int64_t> failed;
  for (const auto& [wire_id, wire] : state.wire) {
    if (wire.conn == &conn) failed.push_back(wire_id);
  }
  for (const int64_t wire_id : failed) {
    const auto it = state.wire.find(wire_id);
    if (it == state.wire.end()) continue;
    const LoopState::Wire wire = it->second;
    state.wire.erase(it);
    wire.routed->legs[wire.leg].error = "connection lost";
    AttemptFailed(state, *wire.routed, wire.leg);
  }
}

void RouterServer::Finish(LoopState& state, Routed& routed) {
  state.loop->CancelTimer(routed.timer);
  for (const Routed::Leg& leg : routed.legs) {
    if (leg.wire_id != 0) state.wire.erase(leg.wire_id);
  }
  const uint64_t trace_id = routed.request.trace_id;
  const Response response =
      routed.answer.has_value() ? *routed.answer : Merge(routed);
  const Clock::time_point write_start = Clock::now();
  const int64_t route_us = ToMicros(write_start - routed.route_start);
  IPIN_HISTOGRAM_RECORD("serve.latency.route_us", route_us);
  IPIN_TRACE_ASYNC_END("serve.route", trace_id);
  IPIN_TRACE_ASYNC_BEGIN("serve.write", trace_id);
  const std::string line = SerializeResponse(response);
  const Clock::time_point done = Clock::now();

  // Record before respond: a client that acts on the reply must find
  // this request in the flight recorder already.
  RequestRecord record;
  record.trace_id = trace_id;
  record.id = routed.request.id;
  record.mode = routed.request.mode;
  record.status = response.status;
  record.degraded = response.degraded;
  record.num_seeds = routed.request.seeds.size();
  record.epoch = response.epoch;
  record.admission_us = routed.admission_us;
  record.eval_us = route_us;
  record.write_us = ToMicros(done - write_start);
  record.total_us = ToMicros(done - routed.received);
  flight_.Record(record);
  routed.client->Send(line);
  IPIN_TRACE_ASYNC_END("serve.write", trace_id);
  IPIN_TRACE_ASYNC_END("serve.request", trace_id);
  if (record.total_us > options_.slow_query_us) {
    LogWarning(StrFormat(
        "route: slow request trace_id=%s id=%lld status=%s total_us=%lld "
        "(admission=%lld route=%lld write=%lld)",
        TraceIdToHex(trace_id).c_str(), static_cast<long long>(record.id),
        StatusCodeName(record.status),
        static_cast<long long>(record.total_us),
        static_cast<long long>(record.admission_us),
        static_cast<long long>(record.eval_us),
        static_cast<long long>(record.write_us)));
  }
  state.routed.erase(&routed);
  if (inflight_.fetch_sub(1, std::memory_order_acq_rel) == 1 &&
      draining_.load(std::memory_order_acquire)) {
    { std::lock_guard<std::mutex> lock(drained_mu_); }
    drained_cv_.notify_all();
  }
}

Response RouterServer::Merge(const Routed& routed) const {
  const Request& request = routed.request;
  const std::vector<Routed::Leg>& legs = routed.legs;
  const bool topk = request.method == Method::kTopk;
  const size_t total_seeds = request.seeds.size();
  const size_t num_new_legs = routed.num_new_legs;
  Response response;
  response.id = request.id;
  response.trace_id = request.trace_id;
  response.epoch = routed.fleet->epoch;

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
    if (!legs[i].result.has_value()) continue;
    const Response& partial = *legs[i].result;
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
        auto client = fleet->NewClient(prev, s, endpoint,
                                       std::max<int64_t>(10, interval_ms));
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
      {"queue_depth",
       static_cast<double>(inflight_.load(std::memory_order_relaxed))},
      {"queue_capacity", static_cast<double>(options_.queue_capacity)},
      {"workers", static_cast<double>(options_.num_workers)},
      {"connections_active",
       static_cast<double>(net_ == nullptr ? 0 : net_->active_connections())},
      {"map_epoch", static_cast<double>(map_->Epoch())},
      {"shards_total", static_cast<double>(shards)},
      {"shards_healthy", static_cast<double>(healthy)},
      {"shards_suspect", static_cast<double>(suspect)},
      {"shards_down", static_cast<double>(down)},
      {"draining", draining_.load(std::memory_order_acquire) ? 1.0 : 0.0},
      {"loops",
       static_cast<double>(net_ == nullptr ? 0 : net_->num_loops())},
      {"inflight",
       static_cast<double>(inflight_.load(std::memory_order_relaxed))},
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
  flight_.Record(record);
}

void RouterServer::Shutdown() {
  if (!running_.exchange(false, std::memory_order_acq_rel)) return;
  LogInfo("route: draining");
  drain_deadline_ =
      Clock::now() + std::chrono::milliseconds(options_.drain_deadline_ms);
  draining_.store(true, std::memory_order_release);

  // 1. Stop accepting connections. 2. Stop reading requests: what already
  // arrived is answered (queries UNAVAILABLE).
  net_->StopAccepting();
  net_->StopReading();

  // 3. Let the requests in flight finish their scatter-gather; each is
  // bounded by its own leg timers, and the drain deadline bounds the wait.
  {
    std::unique_lock<std::mutex> lock(drained_mu_);
    drained_cv_.wait_until(lock, drain_deadline_, [this] {
      return inflight_.load(std::memory_order_acquire) == 0;
    });
  }
  // Past the drain deadline, whatever is still out answers
  // DEADLINE_EXCEEDED instead of waiting for its legs.
  for (size_t i = 0; i < net_->num_loops(); ++i) {
    net_->loop(i)->RunSync([this, i] {
      LoopState& state = *loops_[i];
      std::vector<Routed*> stuck;
      for (const auto& [key, routed] : state.routed) {
        stuck.push_back(routed.get());
      }
      for (Routed* routed : stuck) {
        Response& answer = routed->answer.emplace();
        answer.id = routed->request.id;
        answer.trace_id = routed->request.trace_id;
        answer.status = StatusCode::kDeadlineExceeded;
        answer.epoch = routed->fleet ? routed->fleet->epoch : 0;
        IPIN_COUNTER_ADD("serve.requests.deadline_exceeded", 1);
        Finish(state, *routed);
      }
    });
  }

  // 4. Flush the answers and stop the loops, then drop the shard
  // connections with them.
  net_->Stop();
  loops_.clear();

  // 5. Stop the prober (a probe in flight is bounded by its I/O timeout).
  {
    std::lock_guard<std::mutex> lock(probe_mu_);
    probe_stop_ = true;
  }
  probe_cv_.notify_all();
  if (prober_.joinable()) prober_.join();

  window_.Stop();
  LogInfo("route: drained, all loops stopped");
}

}  // namespace ipin::serve
