#ifndef IPIN_SERVE_SERVER_H_
#define IPIN_SERVE_SERVER_H_

#include <atomic>
#include <chrono>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <string_view>
#include <thread>
#include <vector>

#include "ipin/common/thread_pool.h"
#include "ipin/obs/window.h"
#include "ipin/serve/event_loop.h"
#include "ipin/serve/flight_recorder.h"
#include "ipin/serve/index_manager.h"
#include "ipin/serve/protocol.h"
#include "ipin/serve/queue.h"

// The influence-oracle daemon core: a server speaking the newline-delimited
// JSON protocol of protocol.h over a Unix-domain or localhost-TCP socket.
// Data plane (DESIGN.md §9): the connections live on num_workers epoll loops
// (event_loop.h). A loop answers health/stats/metrics/debug and small
// sketch-path queries itself, inline, as it reads them; only exact, topk
// and large-|S| queries cross a thread boundary, to the offload pool.
// Robustness model:
//
//   * Inline evaluation. A query is evaluated on its loop when it takes the
//     sketch path (mode "sketch", want_ranks, or "auto" with no exact map
//     loaded) and |S| * beta, the bytes its cellwise max reads, is at most
//     kInlineEvalBytes. It never waits in the queue, so it is never shed.
//   * Admission control. Every other query goes through a bounded queue
//     (BoundedQueue, capacity queue_capacity) to num_workers offload
//     threads; when it is full the loop answers OVERLOADED with a
//     retry_after_ms hint instead of queueing — offered load beyond
//     capacity is shed at the door and the queue-depth gauge stays bounded.
//   * Deadlines. Every query carries a deadline (its own or the server
//     default) fixed at admission. Workers re-check it at dequeue (an
//     expired request is answered DEADLINE_EXCEEDED without evaluation) and
//     evaluation itself runs under a QueryBudget, so one oversized query
//     cannot hold a worker past its deadline.
//   * Graceful degradation. "exact"/"auto" queries run the exact oracle
//     under an exact-latency budget; when the budget trips, the exact map
//     is unloaded, or an eval fault is injected, the worker falls back to
//     the sketch estimate and sets degraded=true.
//   * Hot reload. Queries snapshot the IndexManager epoch; reloads swap it
//     atomically and roll back on any validation failure (old epoch keeps
//     serving). Reload requests are handed to a dedicated reload thread,
//     so a slow or wedged reload never occupies a query worker or a loop.
//   * Slow-consumer protection. Responses go through each connection's
//     bounded output buffer; a client that pipelines requests but never
//     reads its socket stops being read once the buffer holds
//     kMaxLineBytes, and is torn down when the buffer has not drained
//     within write_timeout_ms — it never wedges a loop or a worker.
//   * Graceful shutdown. Shutdown() stops accepting, stops reading (lines
//     already received are still answered, queries UNAVAILABLE), answers
//     everything already queued (evaluated if the drain deadline allows,
//     DEADLINE_EXCEEDED otherwise), flushes the responses, then joins every
//     thread. The write timeout and the drain deadline bound every join
//     except a reload wedged inside the index loader, which is detached
//     (and logged) rather than waited on forever.
//
// Failpoint sites: serve.accept (drop fresh connections), serve.read
// (connection read errors), serve.eval (slow/failed exact evaluation,
// forcing degradation), serve.reload (see IndexManager).
//
// Observability (all under serve.*): requests.{accepted,inline,ok,shed,
// deadline_exceeded,degraded,bad}, queue.depth, queue.wait_us (offloaded
// queries only; inline ones record queue_us = 0 in the flight recorder),
// connections.active, latency.{query,health,stats,reload}_us, index.epoch,
// reload.{ok,rollback}, audit.{sampled,completed,zero_truth},
// audit.rel_error_{abs,over,under}_pm.
//
// Request observability (the tentpole of DESIGN.md §7):
//
//   * Trace context. Every query carries a 64-bit trace id — the client's,
//     or one the server assigns at admission. The id links the request's
//     stages (serve.request / serve.queue / serve.eval / serve.write) as
//     Chrome-trace async events on one lane, tags slow-query and
//     degradation log lines, and is echoed in the response.
//   * Live introspection. A WindowedAggregator samples the metrics
//     registry once a second; "stats" answers carry trailing-window rates
//     and percentiles (win_qps, win_p99_us, ...) and the "metrics" verb
//     returns the full registry (Prometheus text or JSON) inline — both
//     work under a full queue.
//   * Flight recorder. Every completed query (including shed and expired
//     ones) lands in a bounded ring with per-stage timings; queries over
//     slow_query_us additionally land in a separate slow ring and log a
//     warning. The "debug" verb (and SIGUSR1 in ipin_oracled) dumps both.
//   * Accuracy audit. A deterministic 1-in-N sample of sketch-served
//     answers is re-evaluated exactly off the hot path (on the shared
//     global pool) when the exact map is loaded; signed relative error
//     lands in the serve.audit.rel_error_* histograms, so sketch drift is
//     visible in production without a benchmark run.
//
// Under -DIPIN_OBS_DISABLED the trace events, windowed stats, and audit
// compile out / stay off; the flight recorder and the metrics/debug verbs
// keep answering (with whatever the registry holds) so the wire protocol
// keeps its shape in every build.

namespace ipin::serve {

/// A sketch-path query is evaluated inline on its event loop when |S| * beta
/// (the rank bytes its cellwise max reads) is at most this; larger ones go
/// through the offload queue. 2^20 bytes is tens of microseconds of kernel
/// time: short enough that the loop's other connections do not notice.
inline constexpr size_t kInlineEvalBytes = size_t{1} << 20;

struct ServerOptions {
  /// Exactly one of the two endpoints must be set: a Unix-domain socket
  /// path, or a TCP port on 127.0.0.1 (0 = pick an ephemeral port, see
  /// bound_port()).
  std::string unix_socket_path;
  int tcp_port = -1;

  /// Event loops, and threads of the offload pool.
  int num_workers = 4;
  /// Bound of the offload queue (queries that are not evaluated inline).
  size_t queue_capacity = 64;
  size_t max_connections = 64;

  /// Deadline applied when a request does not carry its own.
  int64_t default_deadline_ms = 1000;
  /// Budget for the exact evaluation attempt before degrading to sketch.
  int64_t exact_budget_ms = 50;
  /// Backoff hint attached to OVERLOADED / UNAVAILABLE responses.
  int64_t retry_after_ms = 50;
  /// During Shutdown(), queued requests older than this are answered
  /// DEADLINE_EXCEEDED instead of evaluated.
  int64_t drain_deadline_ms = 2000;
  /// Bound on a connection's output buffer draining. A peer that stops
  /// reading (full socket buffer) past this is treated as broken and its
  /// connection is torn down.
  int64_t write_timeout_ms = 2000;

  /// Flight recorder: last N completed queries, last M slow ones, and the
  /// total-latency threshold (microseconds) that makes a query "slow".
  size_t flight_recorder_size = 256;
  size_t flight_slow_size = 64;
  int64_t slow_query_us = 100000;
  /// Fraction of sketch-served answers re-evaluated exactly off the hot
  /// path (0 disables the audit; 0.01 = every ~100th answer). Requires the
  /// exact map to be loaded; no-op under -DIPIN_OBS_DISABLED.
  double audit_rate = 0.0;
  /// Trailing window (seconds) for the win_* fields of the stats verb.
  int64_t stats_window_s = 10;

  /// Identity of this daemon inside a sharded deployment (ipin_oracled
  /// --shard_id/--shard_count), echoed by the stats verb so operators and
  /// drills can tell shards apart. -1/0 = not a shard.
  int shard_id = -1;
  int shard_count = 0;
};

class OracleServer {
 public:
  /// `index` must outlive the server.
  OracleServer(IndexManager* index, ServerOptions options);
  ~OracleServer();

  OracleServer(const OracleServer&) = delete;
  OracleServer& operator=(const OracleServer&) = delete;

  /// Binds, listens, and spawns the event loops, the offload workers and
  /// the reload thread. False (with a logged reason) on bind/listen
  /// failure.
  bool Start();

  /// Graceful drain as described above. Idempotent.
  void Shutdown();

  bool running() const { return running_.load(std::memory_order_acquire); }

  /// Port actually bound (TCP mode; useful with tcp_port = 0).
  int bound_port() const { return bound_port_; }

  /// Current queue depth (bounded by options().queue_capacity).
  size_t queue_depth() const { return queue_.Depth(); }

  /// The flight recorder's "ipin.debug.v1" dump (same document the "debug"
  /// verb returns) — for SIGUSR1 handlers and tests.
  std::string DebugDump() const { return flight_.DumpJson(); }

  const FlightRecorder& flight_recorder() const { return flight_; }

  const ServerOptions& options() const { return options_; }

 private:
  using Clock = std::chrono::steady_clock;

  struct Task {
    Request request;
    Clock::time_point deadline;
    Clock::time_point enqueued;
    /// Time spent in parse + admission before evaluation or the queue push.
    int64_t admission_us = 0;
    std::shared_ptr<Connection> conn;
  };

  // Reload requests run on a dedicated thread; the state it shares with
  // the server is refcounted so a wedged reload can be detached at
  // shutdown without dangling anything.
  struct ReloadState;

  void WorkerLoop();
  void StopReloadThread();

  /// One request line, on its connection's loop thread.
  void HandleLine(const std::shared_ptr<Connection>& conn,
                  std::string_view line);
  /// Admission decision for one parsed request: answers health/stats/
  /// metrics/debug and inline queries on the spot, queues the rest, and
  /// hands reloads to the reload thread.
  void HandleRequest(const std::shared_ptr<Connection>& conn,
                     Request&& request, Clock::time_point received);
  /// Evaluates (unless expired) and answers one admitted query: record
  /// first, then the reply.
  void Answer(const Task& task, int64_t queue_us,
              const IndexSnapshot& snapshot);
  Response EvaluateQuery(const Request& request, Clock::time_point deadline,
                         const IndexSnapshot& snapshot);
  Response StatsResponse(const Request& request);
  /// Records a query rejected before it reached a worker (shed / drain).
  void RecordRejected(uint64_t trace_id, int64_t id, QueryMode mode,
                      size_t num_seeds, StatusCode status,
                      Clock::time_point received);
#ifndef IPIN_OBS_DISABLED
  /// Maybe re-evaluates a sketch-served answer exactly, off the hot path.
  void MaybeAudit(const IndexSnapshot& snapshot,
                  const std::vector<NodeId>& seeds, double estimate);
#endif

  IndexManager* const index_;
  const ServerOptions options_;

  int bound_port_ = -1;
  std::atomic<bool> running_{false};
  std::atomic<bool> draining_{false};
  Clock::time_point drain_deadline_{};

  std::unique_ptr<EventServer> net_;
  BoundedQueue<Task> queue_;
  // Offload workers run as num_workers long-lived WorkerLoop tasks on the
  // shared pool abstraction (common/thread_pool.h); Shutdown drains the
  // queue (WorkerLoop exits on the empty signal) and resets the pool,
  // whose destructor joins.
  std::unique_ptr<ThreadPool> worker_pool_;
  std::shared_ptr<ReloadState> reload_state_;
  std::thread reload_thread_;
  /// Admitted queries not yet answered (inline and offloaded).
  std::atomic<size_t> inflight_{0};

  FlightRecorder flight_;
  obs::WindowedAggregator window_;
  /// Server-assigned trace ids for requests that arrive without one.
  std::atomic<uint64_t> next_trace_id_{1};
  /// Deterministic 1-in-audit_every_ sampling (0 = audit disabled).
  uint64_t audit_every_ = 0;
  std::atomic<uint64_t> audit_tick_{0};
};

}  // namespace ipin::serve

#endif  // IPIN_SERVE_SERVER_H_
