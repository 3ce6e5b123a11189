#include "ipin/serve/server.h"

#include <algorithm>
#include <cmath>
#include <condition_variable>
#include <deque>
#include <queue>

#include "ipin/common/failpoint.h"
#include "ipin/common/logging.h"
#include "ipin/common/string_util.h"
#include "ipin/core/influence_oracle.h"
#include "ipin/obs/export.h"
#include "ipin/obs/metrics.h"
#include "ipin/obs/trace_events.h"
#include "ipin/sketch/estimators.h"
#include "ipin/sketch/kernels.h"

namespace ipin::serve {
namespace {

int64_t ToMicros(std::chrono::steady_clock::duration d) {
  return std::chrono::duration_cast<std::chrono::microseconds>(d).count();
}

void Reply(Connection& conn, const Response& response) {
  conn.Send(SerializeResponse(response));
}

// Does this query take the sketch path (see the inline rule in server.h)?
// Mirrors EvaluateQuery's choice between the exact and the sketch oracle.
bool SketchPath(const Request& request, const IndexSnapshot& snapshot) {
  if (request.mode == QueryMode::kSketch || request.want_ranks) return true;
  return request.mode == QueryMode::kAuto &&
         (snapshot.exact == nullptr ||
          snapshot.exact->num_nodes() < snapshot.index->num_nodes());
}

}  // namespace

// Shared with the reload thread via shared_ptr: Shutdown() may detach that
// thread if a reload is wedged inside the loader, so nothing it touches may
// live in the server object itself.
struct OracleServer::ReloadState {
  std::mutex mu;
  std::condition_variable cv;
  struct Job {
    std::shared_ptr<Connection> conn;
    int64_t id = 0;
    uint64_t trace_id = 0;
  };
  std::deque<Job> jobs;
  bool stop = false;
  bool exited = false;
};

OracleServer::OracleServer(IndexManager* index, ServerOptions options)
    : index_(index),
      options_(std::move(options)),
      queue_(options_.queue_capacity),
      flight_(options_.flight_recorder_size, options_.flight_slow_size,
              options_.slow_query_us),
      window_(obs::WindowedAggregatorOptions{
          /*sample_period_ms=*/1000,
          /*num_buckets=*/std::max<size_t>(
              64, static_cast<size_t>(std::max<int64_t>(
                      0, options_.stats_window_s)) * 2)}) {
  if (options_.audit_rate > 0.0) {
    audit_every_ = static_cast<uint64_t>(
        std::max(1.0, std::round(1.0 / std::min(1.0, options_.audit_rate))));
  }
}

OracleServer::~OracleServer() { Shutdown(); }

bool OracleServer::Start() {
  if (running_.load(std::memory_order_acquire)) return true;
  draining_.store(false, std::memory_order_release);

  // Dedicated reload thread: a slow or wedged Reload() blocks only this
  // thread — never an event loop or query worker — and Shutdown() can
  // abandon it (detach) if it outlasts the drain deadline.
  reload_state_ = std::make_shared<ReloadState>();
  reload_thread_ = std::thread([state = reload_state_, index = index_] {
    for (;;) {
      ReloadState::Job job;
      bool draining;
      {
        std::unique_lock<std::mutex> lock(state->mu);
        state->cv.wait(lock,
                       [&] { return state->stop || !state->jobs.empty(); });
        if (state->jobs.empty()) break;  // stop requested, nothing pending
        job = std::move(state->jobs.front());
        state->jobs.pop_front();
        draining = state->stop;
      }
      Response response;
      response.id = job.id;
      response.trace_id = job.trace_id;
      if (draining) {
        // Answer rather than reload: a fresh epoch is useless to a server
        // that is shutting down, and this keeps the drain bounded.
        response.status = StatusCode::kUnavailable;
        response.error = "server is draining";
      } else {
        IPIN_LATENCY_SCOPE("serve.latency.reload_us");
        const ReloadStatus status = index->Reload();
        response.status = StatusCode::kOk;
        response.epoch = index->Epoch();
        response.info.emplace_back(
            "rolled_back", status == ReloadStatus::kRolledBack ? 1.0 : 0.0);
      }
      Reply(*job.conn, response);
    }
    {
      std::lock_guard<std::mutex> lock(state->mu);
      state->exited = true;
    }
    state->cv.notify_all();
  });
  worker_pool_ =
      std::make_unique<ThreadPool>(static_cast<size_t>(options_.num_workers));
  for (int i = 0; i < options_.num_workers; ++i) {
    worker_pool_->Submit([this] { WorkerLoop(); });
  }

  EventServerOptions net_options;
  net_options.unix_socket_path = options_.unix_socket_path;
  net_options.tcp_port = options_.tcp_port;
  net_options.num_loops = options_.num_workers;
  net_options.max_connections = options_.max_connections;
  net_options.write_timeout_ms = options_.write_timeout_ms;
  net_options.retry_after_ms = options_.retry_after_ms;
  net_options.log_tag = "serve";
  net_ = std::make_unique<EventServer>(
      net_options,
      [this](const std::shared_ptr<Connection>& conn, std::string_view line) {
        HandleLine(conn, line);
      });
  if (!net_->Start()) {
    net_.reset();
    queue_.Drain();
    worker_pool_.reset();
    StopReloadThread();
    return false;
  }
  bound_port_ = net_->bound_port();
  running_.store(true, std::memory_order_release);

#ifndef IPIN_OBS_DISABLED
  // One registry sample per second backs the stats verb's win_* fields and
  // ipin_top. Not started in obs-disabled builds: the macros record
  // nothing, so the ring would only ever hold empty snapshots.
  window_.Start();
#endif
  LogInfo(StrFormat(
      "serve: listening on %s (%d loops + %d workers, queue %zu)",
      !options_.unix_socket_path.empty()
          ? options_.unix_socket_path.c_str()
          : StrFormat("127.0.0.1:%d", bound_port_).c_str(),
      options_.num_workers, options_.num_workers, options_.queue_capacity));
  return true;
}

void OracleServer::HandleLine(const std::shared_ptr<Connection>& conn,
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

void OracleServer::HandleRequest(const std::shared_ptr<Connection>& conn,
                                 Request&& request,
                                 Clock::time_point received) {
  switch (request.method) {
    case Method::kHealth: {
      // Answered inline so liveness probes work even with a full queue.
      IPIN_LATENCY_SCOPE("serve.latency.health_us");
      const IndexSnapshot snapshot = index_->Snapshot();
      Response response;
      response.id = request.id;
      response.trace_id = request.trace_id;
      response.status = snapshot.epoch > 0 ? StatusCode::kOk
                                           : StatusCode::kUnavailable;
      response.epoch = snapshot.epoch;
      Reply(*conn, response);
      return;
    }
    case Method::kStats: {
      IPIN_LATENCY_SCOPE("serve.latency.stats_us");
      Reply(*conn, StatsResponse(request));
      return;
    }
    case Method::kMetrics: {
      // The scrape endpoint: answered inline (like health) so a dashboard
      // keeps seeing metrics precisely when the queue is full and they
      // matter most. The registry classes exist in every build, so this
      // answers (with an empty-ish registry) even under IPIN_OBS_DISABLED.
      IPIN_LATENCY_SCOPE("serve.latency.metrics_us");
      Response response;
      response.id = request.id;
      response.trace_id = request.trace_id;
      response.status = StatusCode::kOk;
      response.epoch = index_->Epoch();
      response.payload =
          request.format == MetricsFormat::kJson
              ? obs::GlobalMetricsReportJson()
              : obs::MetricsPrometheusText(
                    obs::MetricsRegistry::Global().Snapshot());
      Reply(*conn, response);
      return;
    }
    case Method::kDebug: {
      // Flight-recorder dump, inline for the same reason as metrics: the
      // slow queries it explains are exactly when workers are busy.
      IPIN_LATENCY_SCOPE("serve.latency.debug_us");
      Response response;
      response.id = request.id;
      response.trace_id = request.trace_id;
      response.status = StatusCode::kOk;
      response.epoch = index_->Epoch();
      response.payload = flight_.DumpJson();
      Reply(*conn, response);
      return;
    }
    case Method::kReload: {
      // Handed to the dedicated reload thread (which also writes the
      // response): a slow or wedged reload never occupies a query worker
      // or this loop, and queries keep flowing from the old epoch while
      // it runs.
      Response response;
      response.id = request.id;
      response.trace_id = request.trace_id;
      if (draining_.load(std::memory_order_acquire)) {
        response.status = StatusCode::kUnavailable;
        response.error = "server is draining";
        Reply(*conn, response);
        return;
      }
      constexpr size_t kMaxPendingReloads = 4;
      {
        std::lock_guard<std::mutex> lock(reload_state_->mu);
        if (reload_state_->jobs.size() >= kMaxPendingReloads) {
          response.status = StatusCode::kOverloaded;
          response.retry_after_ms = options_.retry_after_ms;
        } else {
          reload_state_->jobs.push_back(
              ReloadState::Job{conn, request.id, request.trace_id});
          reload_state_->cv.notify_one();
        }
      }
      if (response.status == StatusCode::kOverloaded) {
        IPIN_COUNTER_ADD("serve.requests.shed", 1);
        Reply(*conn, response);
      }
      return;
    }
    case Method::kReshardStatus: {
      // Router-only admin verb: an oracle backend has no shard map to
      // report on, and answering OK here would make a misconfigured client
      // believe it is talking to a router.
      Response response;
      response.id = request.id;
      response.trace_id = request.trace_id;
      response.status = StatusCode::kBadRequest;
      response.error = "reshard_status is a router verb";
      IPIN_COUNTER_ADD("serve.requests.bad", 1);
      Reply(*conn, response);
      return;
    }
    case Method::kQuery:
    case Method::kTopk:
      break;
  }

  // Admission control for queries. A query without a trace id gets one
  // here, so every path below (responses, spans, flight records, logs) can
  // refer to the request by it.
  if (request.trace_id == 0) {
    request.trace_id = next_trace_id_.fetch_add(1, std::memory_order_relaxed);
  }
  const uint64_t trace_id = request.trace_id;
  IPIN_TRACE_ASYNC_BEGIN("serve.request", trace_id);

  const int64_t deadline_ms = request.deadline_ms > 0
                                  ? request.deadline_ms
                                  : options_.default_deadline_ms;
  Task task;
  task.deadline = received + std::chrono::milliseconds(deadline_ms);
  task.enqueued = received;
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
                   StatusCode::kUnavailable, received);
    Reply(*conn, response);
    IPIN_TRACE_ASYNC_END("serve.request", trace_id);
    return;
  }

  // Small sketch-path queries are answered right here on the loop: the
  // cellwise max costs less than a hand-off to a worker would.
  const IndexSnapshot snapshot = index_->Snapshot();
  if (request.method == Method::kQuery &&
      (snapshot.index == nullptr ||
       (SketchPath(request, snapshot) &&
        request.seeds.size() << snapshot.index->options().precision <=
            kInlineEvalBytes))) {
    task.admission_us = ToMicros(Clock::now() - received);
    task.request = std::move(request);
    IPIN_COUNTER_ADD("serve.requests.accepted", 1);
    IPIN_COUNTER_ADD("serve.requests.inline", 1);
    inflight_.fetch_add(1, std::memory_order_relaxed);
    Answer(task, /*queue_us=*/0, snapshot);
    return;
  }

  task.admission_us = ToMicros(Clock::now() - received);
  // TryPush takes the task by value, so the request is gone either way:
  // snapshot what the rejection paths need first.
  const QueryMode mode = request.mode;
  const size_t num_seeds = request.seeds.size();
  task.request = std::move(request);
  inflight_.fetch_add(1, std::memory_order_relaxed);
  if (!queue_.TryPush(std::move(task))) {
    inflight_.fetch_sub(1, std::memory_order_relaxed);
    // Load shedding: reject now with a backoff hint rather than queueing
    // beyond capacity.
    Response response;
    response.id = id;
    response.trace_id = trace_id;
    response.status = StatusCode::kOverloaded;
    response.retry_after_ms = options_.retry_after_ms;
    IPIN_COUNTER_ADD("serve.requests.shed", 1);
    RecordRejected(trace_id, id, mode, num_seeds, StatusCode::kOverloaded,
                   received);
    Reply(*conn, response);
    IPIN_TRACE_ASYNC_END("serve.request", trace_id);
    return;
  }
  IPIN_TRACE_ASYNC_BEGIN("serve.queue", trace_id);
  IPIN_COUNTER_ADD("serve.requests.accepted", 1);
  IPIN_GAUGE_SET("serve.queue.depth", queue_.Depth());
}

void OracleServer::RecordRejected(uint64_t trace_id, int64_t id,
                                  QueryMode mode, size_t num_seeds,
                                  StatusCode status,
                                  Clock::time_point received) {
  RequestRecord record;
  record.trace_id = trace_id;
  record.id = id;
  record.mode = mode;
  record.status = status;
  record.num_seeds = num_seeds;
  record.epoch = index_->Epoch();
  record.total_us = ToMicros(Clock::now() - received);
  record.admission_us = record.total_us;
  flight_.Record(record);
}

void OracleServer::WorkerLoop() {
  while (true) {
    auto task = queue_.Pop();
    if (!task.has_value()) return;  // drained and empty
    IPIN_GAUGE_SET("serve.queue.depth", queue_.Depth());
    const int64_t queue_us = ToMicros(Clock::now() - task->enqueued);
    IPIN_HISTOGRAM_RECORD("serve.queue.wait_us", queue_us);
    IPIN_TRACE_ASYNC_END("serve.queue", task->request.trace_id);
    Answer(*task, queue_us, index_->Snapshot());
  }
}

void OracleServer::Answer(const Task& task, int64_t queue_us,
                          const IndexSnapshot& snapshot) {
  const Clock::time_point now = Clock::now();
  const uint64_t trace_id = task.request.trace_id;
  // During drain, requests older than the drain deadline are answered
  // immediately; the rest still get evaluated.
  const bool past_drain =
      draining_.load(std::memory_order_acquire) && now >= drain_deadline_;

  Response response;
  int64_t eval_us = 0;
  if (now >= task.deadline || past_drain) {
    // Early drop at dequeue: an expired request never occupies a worker
    // for evaluation.
    response.id = task.request.id;
    response.trace_id = trace_id;
    response.status = StatusCode::kDeadlineExceeded;
    response.epoch = snapshot.epoch;
    IPIN_COUNTER_ADD("serve.requests.deadline_exceeded", 1);
  } else {
    IPIN_LATENCY_SCOPE("serve.latency.query_us");
    IPIN_TRACE_ASYNC_BEGIN("serve.eval", trace_id);
    response = EvaluateQuery(task.request, task.deadline, snapshot);
    eval_us = ToMicros(Clock::now() - now);
    IPIN_TRACE_ASYNC_END("serve.eval", trace_id);
  }
  IPIN_TRACE_ASYNC_BEGIN("serve.write", trace_id);
  const Clock::time_point write_start = Clock::now();
  const std::string line = SerializeResponse(response);
  const Clock::time_point done = Clock::now();

  // Record before respond: a client that acts on the reply must find
  // this request in the flight recorder already.
  RequestRecord record;
  record.trace_id = trace_id;
  record.id = task.request.id;
  record.mode = task.request.mode;
  record.status = response.status;
  record.degraded = response.degraded;
  record.num_seeds = task.request.seeds.size();
  record.epoch = response.epoch;
  record.admission_us = task.admission_us;
  record.queue_us = queue_us;
  record.eval_us = eval_us;
  record.write_us = ToMicros(done - write_start);
  record.total_us = ToMicros(done - task.enqueued);
  flight_.Record(record);
  task.conn->Send(line);
  inflight_.fetch_sub(1, std::memory_order_relaxed);
  IPIN_TRACE_ASYNC_END("serve.write", trace_id);
  IPIN_TRACE_ASYNC_END("serve.request", trace_id);
  if (record.total_us > options_.slow_query_us) {
    LogWarning(StrFormat(
        "serve: slow query trace_id=%s id=%lld status=%s total_us=%lld "
        "(admission=%lld queue=%lld eval=%lld write=%lld)",
        TraceIdToHex(trace_id).c_str(), static_cast<long long>(record.id),
        StatusCodeName(record.status),
        static_cast<long long>(record.total_us),
        static_cast<long long>(record.admission_us),
        static_cast<long long>(record.queue_us),
        static_cast<long long>(record.eval_us),
        static_cast<long long>(record.write_us)));
  }
}

Response OracleServer::EvaluateQuery(const Request& request,
                                     Clock::time_point deadline,
                                     const IndexSnapshot& snapshot) {
  Response response;
  response.id = request.id;
  response.trace_id = request.trace_id;

  // One-lock snapshot (taken by the caller): the whole evaluation runs on
  // this index (and exact map), and the reported epoch is the one these
  // pointers were installed at — a reload swapping the manager mid-query
  // can skew neither.
  const std::shared_ptr<const IrsApprox>& index = snapshot.index;
  response.epoch = snapshot.epoch;
  if (index == nullptr) {
    response.status = StatusCode::kUnavailable;
    response.error = "no index loaded";
    response.retry_after_ms = options_.retry_after_ms;
    return response;
  }

  if (request.method == Method::kTopk) {
    // The k individually most influential SKETCHED nodes (a node without a
    // sketch never sent inside the window; its IRS is empty and it is never
    // ranked — this also keeps shard partials disjoint, since a shard index
    // holds sketches only for the nodes it owns). Bounded worst-on-top
    // heap: O(n log k), ties broken by ascending node id so the order — and
    // the router's merge of shard partials — is deterministic.
    const size_t k = std::min<size_t>(
        static_cast<size_t>(std::max<int64_t>(1, request.k)),
        index->num_nodes());
    const auto better = [](const std::pair<NodeId, double>& a,
                           const std::pair<NodeId, double>& b) {
      if (a.second != b.second) return a.second > b.second;
      return a.first < b.first;
    };
    // priority_queue treats its comparator as less-than, so comparing with
    // `better` keeps the WORST kept entry on top, ready to evict.
    std::priority_queue<std::pair<NodeId, double>,
                        std::vector<std::pair<NodeId, double>>,
                        decltype(better)>
        worst_first(better);
    QueryBudget budget;
    budget.deadline = deadline;
    for (NodeId u = 0; u < index->num_nodes(); ++u) {
      if (u % 4096 == 0 && budget.Expired()) {
        response.status = StatusCode::kDeadlineExceeded;
        IPIN_COUNTER_ADD("serve.requests.deadline_exceeded", 1);
        return response;
      }
      const SketchView sketch = index->Sketch(u);
      if (!sketch) continue;
      worst_first.emplace(u, sketch.Estimate());
      if (worst_first.size() > k) worst_first.pop();
    }
    response.topk.resize(worst_first.size());
    for (size_t i = worst_first.size(); i-- > 0;) {
      response.topk[i] = worst_first.top();
      worst_first.pop();
    }
    response.status = StatusCode::kOk;
    IPIN_COUNTER_ADD("serve.requests.ok", 1);
    return response;
  }

  for (const NodeId seed : request.seeds) {
    if (static_cast<size_t>(seed) >= index->num_nodes()) {
      response.status = StatusCode::kBadRequest;
      response.error = "seed out of range";
      IPIN_COUNTER_ADD("serve.requests.bad", 1);
      return response;
    }
  }

  bool answered = false;
  bool degraded = false;
  double estimate = 0.0;

  // Exact attempt: bounded by both the request deadline and the server's
  // exact-latency budget, so a miss leaves time for the sketch fallback.
  // want_ranks forces the sketch path — the rank vector only exists there —
  // so an explicit "exact" + want_ranks request is answered degraded.
  const bool want_exact =
      request.mode != QueryMode::kSketch && !request.want_ranks;
  if (request.want_ranks && request.mode == QueryMode::kExact) degraded = true;
  if (want_exact) {
    const std::shared_ptr<const IrsExact>& exact = snapshot.exact;
    if (exact == nullptr || exact->num_nodes() < index->num_nodes()) {
      // Exact map unloaded (or stale vs. the serving index): "exact"
      // explicitly asked for it, so its answer is degraded; "auto" treats
      // sketch-only service as the normal case.
      degraded = request.mode == QueryMode::kExact;
    } else {
      QueryBudget budget;
      budget.deadline = std::min(
          deadline, Clock::now() + std::chrono::milliseconds(
                                       options_.exact_budget_ms));
      // serve.eval: delay mode burns the exact budget (a slow evaluation),
      // error mode fails the attempt outright — both degrade to sketch.
      const bool eval_fault = IPIN_FAILPOINT("serve.eval").fail;
      if (!eval_fault) {
        const ExactInfluenceOracle oracle(exact.get());
        const BudgetedValue result =
            oracle.InfluenceOfSetBudgeted(request.seeds, budget);
        if (!result.exceeded) {
          estimate = result.value;
          answered = true;
        }
      }
      if (!answered) degraded = true;
    }
  }

  bool answered_by_sketch = false;
  if (!answered && request.want_ranks) {
    // Rank-vector variant of IrsApprox::EstimateUnionSize, mirrored here so
    // the estimate is bit-identical to the plain sketch path AND the union's
    // per-cell max ranks travel back in the response — the partial a
    // scatter-gather router folds (cellwise max) into an exact global
    // answer. An all-zero vector (no seed has a sketch) is both the merge
    // identity and EstimateFromRanks == 0.0, matching the plain path.
    const size_t beta = static_cast<size_t>(1)
                        << index->options().precision;
    std::vector<uint8_t> ranks(beta, 0);
    bool any = false;
    QueryBudget budget;
    budget.deadline = deadline;
    size_t scanned = 0;
    for (const NodeId u : request.seeds) {
      if (++scanned % 64 == 0 && budget.Expired()) {
        response.status = StatusCode::kDeadlineExceeded;
        IPIN_COUNTER_ADD("serve.requests.deadline_exceeded", 1);
        return response;
      }
      const SketchView sketch = index->Sketch(u);
      if (!sketch) continue;
      any = true;
      kernels::CellwiseMaxU8(ranks.data(), sketch.max_ranks().data(), beta);
    }
    estimate = any ? EstimateFromRanks(ranks) : 0.0;
    response.ranks = std::move(ranks);
    answered = true;
    answered_by_sketch = true;
  }
  if (!answered) {
    const SketchInfluenceOracle oracle(index.get());
    QueryBudget budget;
    budget.deadline = deadline;
    const BudgetedValue result =
        oracle.InfluenceOfSetBudgeted(request.seeds, budget);
    if (result.exceeded) {
      response.status = StatusCode::kDeadlineExceeded;
      IPIN_COUNTER_ADD("serve.requests.deadline_exceeded", 1);
      return response;
    }
    estimate = result.value;
    answered_by_sketch = true;
  }

  if (Clock::now() >= deadline) {
    // The answer exists but arrived too late to be truthful about.
    response.status = StatusCode::kDeadlineExceeded;
    IPIN_COUNTER_ADD("serve.requests.deadline_exceeded", 1);
    return response;
  }
  response.status = StatusCode::kOk;
  response.estimate = estimate;
  response.degraded = degraded;
  IPIN_COUNTER_ADD("serve.requests.ok", 1);
  if (degraded) {
    IPIN_COUNTER_ADD("serve.requests.degraded", 1);
    LogDebug(StrFormat("serve: degraded answer trace_id=%s id=%lld",
                       TraceIdToHex(request.trace_id).c_str(),
                       static_cast<long long>(request.id)));
  }
#ifndef IPIN_OBS_DISABLED
  if (answered_by_sketch) MaybeAudit(snapshot, request.seeds, estimate);
#else
  (void)answered_by_sketch;
#endif
  return response;
}

#ifndef IPIN_OBS_DISABLED
void OracleServer::MaybeAudit(const IndexSnapshot& snapshot,
                              const std::vector<NodeId>& seeds,
                              double estimate) {
  if (audit_every_ == 0 || seeds.empty()) return;
  const std::shared_ptr<const IrsExact>& exact = snapshot.exact;
  // Same coverage condition as the exact serving path: auditing against a
  // stale exact map would measure reload skew, not sketch error.
  if (exact == nullptr || exact->num_nodes() < snapshot.index->num_nodes()) {
    return;
  }
  if (audit_tick_.fetch_add(1, std::memory_order_relaxed) % audit_every_ !=
      0) {
    return;
  }
  IPIN_COUNTER_ADD("serve.audit.sampled", 1);
  // Fire-and-forget on the shared global pool (NOT the serve worker pool):
  // the exact re-evaluation never holds a serving worker, and the captured
  // shared_ptr keeps the audited epoch's exact map alive even across a
  // reload or server shutdown.
  GlobalPool().Submit([exact, seeds, estimate] {
    const ExactInfluenceOracle oracle(exact.get());
    const double truth = oracle.InfluenceOfSet(seeds);
    if (truth <= 0.0) {
      IPIN_COUNTER_ADD("serve.audit.zero_truth", 1);
      IPIN_COUNTER_ADD("serve.audit.completed", 1);
      return;
    }
    // Histograms hold non-negative integers, so the signed relative error
    // is split into over/under histograms, scaled to per-mille.
    const double rel = (estimate - truth) / truth;
    const uint64_t abs_pm =
        static_cast<uint64_t>(std::fabs(rel) * 1000.0 + 0.5);
    IPIN_HISTOGRAM_RECORD("serve.audit.rel_error_abs_pm", abs_pm);
    if (rel >= 0.0) {
      IPIN_HISTOGRAM_RECORD("serve.audit.rel_error_over_pm", abs_pm);
    } else {
      IPIN_HISTOGRAM_RECORD("serve.audit.rel_error_under_pm", abs_pm);
    }
    IPIN_COUNTER_ADD("serve.audit.completed", 1);
  });
}
#endif  // IPIN_OBS_DISABLED

Response OracleServer::StatsResponse(const Request& request) {
  Response response;
  response.id = request.id;
  response.trace_id = request.trace_id;
  response.status = StatusCode::kOk;
  const IndexSnapshot snapshot = index_->Snapshot();
  const std::shared_ptr<const IrsApprox>& index = snapshot.index;
  response.epoch = snapshot.epoch;
  response.info = {
      {"queue_depth", static_cast<double>(queue_.Depth())},
      {"queue_capacity", static_cast<double>(options_.queue_capacity)},
      {"workers", static_cast<double>(options_.num_workers)},
      {"connections_active",
       static_cast<double>(net_ == nullptr ? 0 : net_->active_connections())},
      {"num_nodes",
       index == nullptr ? 0.0 : static_cast<double>(index->num_nodes())},
      {"exact_loaded", snapshot.exact != nullptr ? 1.0 : 0.0},
      {"draining", draining_.load(std::memory_order_acquire) ? 1.0 : 0.0},
      {"loops",
       static_cast<double>(net_ == nullptr ? 0 : net_->num_loops())},
      {"inflight",
       static_cast<double>(inflight_.load(std::memory_order_relaxed))},
  };
  if (options_.shard_count > 0) {
    response.info.emplace_back("shard_id",
                               static_cast<double>(options_.shard_id));
    response.info.emplace_back("shard_count",
                               static_cast<double>(options_.shard_count));
  }
#ifndef IPIN_OBS_DISABLED
  // Trailing-window view from the per-second sampler: rates per second and
  // query-latency percentiles over the last stats_window_s seconds. All 0
  // until the sampler has at least two samples.
  const double win_s = static_cast<double>(options_.stats_window_s);
  const obs::HistogramSnapshot latency =
      window_.WindowedHistogram("serve.latency.query_us", win_s);
  response.info.emplace_back("win_s", win_s);
  response.info.emplace_back("win_qps",
                             window_.Rate("serve.requests.accepted", win_s));
  response.info.emplace_back("win_ok_per_s",
                             window_.Rate("serve.requests.ok", win_s));
  response.info.emplace_back("win_shed_per_s",
                             window_.Rate("serve.requests.shed", win_s));
  response.info.emplace_back(
      "win_degraded_per_s", window_.Rate("serve.requests.degraded", win_s));
  response.info.emplace_back(
      "win_deadline_per_s",
      window_.Rate("serve.requests.deadline_exceeded", win_s));
  response.info.emplace_back("win_query_count",
                             static_cast<double>(latency.count));
  response.info.emplace_back("win_p50_us", latency.P50());
  response.info.emplace_back("win_p95_us", latency.P95());
  response.info.emplace_back("win_p99_us", latency.P99());
#endif
  return response;
}

void OracleServer::Shutdown() {
  if (!running_.exchange(false, std::memory_order_acq_rel)) return;
  LogInfo("serve: draining");
  drain_deadline_ =
      Clock::now() + std::chrono::milliseconds(options_.drain_deadline_ms);
  draining_.store(true, std::memory_order_release);

  // 1. Stop accepting connections. 2. Stop reading requests: what already
  // arrived is answered (queries UNAVAILABLE), responses still go out.
  net_->StopAccepting();
  net_->StopReading();

  // 3. Drain the queue: workers answer everything still in it (evaluating
  // while the drain deadline allows), then exit on the empty signal.
  queue_.Drain();
  worker_pool_.reset();  // ThreadPool dtor joins once every WorkerLoop exits

  // 4. Flush every connection's answers (bounded by the write timeout) and
  // stop the loops. A connection closes once its last in-flight response
  // holder is gone.
  net_->Stop();

  // 5. No loop reads requests any more, so no new reload jobs can arrive:
  // stop the reload thread, bounded by the drain deadline.
  StopReloadThread();
  window_.Stop();
  IPIN_GAUGE_SET("serve.queue.depth", 0);
  LogInfo("serve: drained, all workers stopped");
}

void OracleServer::StopReloadThread() {
  if (reload_state_ == nullptr) return;
  bool exited;
  {
    std::unique_lock<std::mutex> lock(reload_state_->mu);
    reload_state_->stop = true;
    reload_state_->cv.notify_all();
    // A healthy thread exits in microseconds; give a busy one until the
    // drain deadline (but at least a small grace period).
    const auto wait_until = std::max(
        drain_deadline_, Clock::now() + std::chrono::milliseconds(100));
    exited = reload_state_->cv.wait_until(
        lock, wait_until, [this] { return reload_state_->exited; });
  }
  if (exited) {
    if (reload_thread_.joinable()) reload_thread_.join();
  } else if (reload_thread_.joinable()) {
    // Wedged inside the index loader (hung disk/NFS, delay failpoint):
    // abandon it rather than blocking shutdown forever. It only touches
    // its refcounted state, the IndexManager (which outlives the server by
    // contract), and refcounted connections.
    LogWarning(
        "serve: reload thread still busy past the drain deadline; detaching");
    reload_thread_.detach();
  }
  reload_state_.reset();
}

}  // namespace ipin::serve
