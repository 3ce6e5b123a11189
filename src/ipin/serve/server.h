#ifndef IPIN_SERVE_SERVER_H_
#define IPIN_SERVE_SERVER_H_

#include <atomic>
#include <chrono>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "ipin/common/thread_pool.h"
#include "ipin/obs/window.h"
#include "ipin/serve/flight_recorder.h"
#include "ipin/serve/index_manager.h"
#include "ipin/serve/protocol.h"
#include "ipin/serve/queue.h"

// The influence-oracle daemon core: a multi-threaded server speaking the
// newline-delimited JSON protocol of protocol.h over a Unix-domain or
// localhost-TCP socket. Robustness model (DESIGN.md §9):
//
//   * Admission control. Parsed query requests go through a bounded queue
//     (BoundedQueue); when it is full the reader answers OVERLOADED with a
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
//     so a slow or wedged reload never occupies a query worker or a
//     connection reader.
//   * Slow-consumer protection. Response writes carry a send timeout
//     (write_timeout_ms); a client that pipelines requests but never reads
//     its socket gets its connection marked broken and torn down instead
//     of wedging the reader or a worker in a blocking send forever.
//   * Graceful shutdown. Shutdown() stops accepting, rejects new requests,
//     answers everything already queued (evaluated if the drain deadline
//     allows, DEADLINE_EXCEEDED otherwise), flushes the responses, then
//     joins every thread. The write timeout and the drain deadline bound
//     every join except a reload wedged inside the index loader, which is
//     detached (and logged) rather than waited on forever.
//
// Failpoint sites: serve.accept (drop fresh connections), serve.read
// (connection read errors), serve.eval (slow/failed exact evaluation,
// forcing degradation), serve.reload (see IndexManager).
//
// Observability (all under serve.*): requests.{accepted,ok,shed,
// deadline_exceeded,degraded,bad}, queue.depth, queue.wait_us,
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

struct ServerOptions {
  /// Exactly one of the two endpoints must be set: a Unix-domain socket
  /// path, or a TCP port on 127.0.0.1 (0 = pick an ephemeral port, see
  /// bound_port()).
  std::string unix_socket_path;
  int tcp_port = -1;

  int num_workers = 4;
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
  /// Bound on writing one response to a connection. A peer that stops
  /// reading (full socket buffer) past this is treated as broken and its
  /// connection is torn down — a blocking send never wedges a reader or
  /// worker thread indefinitely.
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

  /// Binds, listens, and spawns the acceptor + worker threads. False (with
  /// a logged reason) on bind/listen failure.
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

  struct Connection;

  struct Task {
    Request request;
    Clock::time_point deadline;
    Clock::time_point enqueued;
    /// Time spent in parse + admission before the queue push.
    int64_t admission_us = 0;
    std::shared_ptr<Connection> conn;
  };

  // Reload requests run on a dedicated thread; the state it shares with
  // the server is refcounted so a wedged reload can be detached at
  // shutdown without dangling anything.
  struct ReloadState;

  void AcceptLoop();
  void ReadLoop(std::shared_ptr<Connection> conn);
  void WorkerLoop();
  void ReapFinishedReaders();
  void StopReloadThread();

  /// Admission decision + queueing for one parsed request; answers
  /// health/stats/metrics/debug inline and hands reloads to the reload
  /// thread.
  void HandleRequest(const std::shared_ptr<Connection>& conn,
                     Request&& request);
  Response EvaluateQuery(const Request& request, Clock::time_point deadline);
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

  /// Static (no `this`): also called from the reload thread, which may
  /// outlive the server if a wedged reload forces a detach.
  static void WriteResponse(const std::shared_ptr<Connection>& conn,
                            const Response& response,
                            int64_t write_timeout_ms);
  /// Sends one serialized response line.
  static void WriteLine(const std::shared_ptr<Connection>& conn,
                        const std::string& line, int64_t write_timeout_ms);

  IndexManager* const index_;
  const ServerOptions options_;

  int listen_fd_ = -1;
  int bound_port_ = -1;
  std::atomic<bool> running_{false};
  std::atomic<bool> draining_{false};
  Clock::time_point drain_deadline_{};

  BoundedQueue<Task> queue_;
  std::thread acceptor_;
  // Query workers run as num_workers long-lived WorkerLoop tasks on the
  // shared pool abstraction (common/thread_pool.h); Shutdown drains the
  // queue (WorkerLoop exits on the empty signal) and resets the pool,
  // whose destructor joins.
  std::unique_ptr<ThreadPool> worker_pool_;
  std::shared_ptr<ReloadState> reload_state_;
  std::thread reload_thread_;

  std::mutex conns_mu_;
  struct ReaderSlot {
    std::thread thread;
    std::shared_ptr<Connection> conn;
  };
  std::vector<ReaderSlot> readers_;
  size_t active_connections_ = 0;

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
