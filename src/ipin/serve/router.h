#ifndef IPIN_SERVE_ROUTER_H_
#define IPIN_SERVE_ROUTER_H_

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <string_view>
#include <thread>
#include <vector>

#include "ipin/obs/window.h"
#include "ipin/serve/client.h"
#include "ipin/serve/event_loop.h"
#include "ipin/serve/flight_recorder.h"
#include "ipin/serve/health.h"
#include "ipin/serve/protocol.h"
#include "ipin/serve/shard_map.h"

// The scatter-gather router of the sharded serving tier (DESIGN.md §11): a
// daemon core speaking the same newline-JSON protocol as OracleServer, but
// answering each query by fanning it out to per-shard ipin_oracled backends
// and merging their partials.
//
//   * Data plane. The router runs on the same event loops as OracleServer
//     (event_loop.h; num_workers loops). A query is planned, scattered and
//     merged on the loop that read it, without a thread hop: each leg is
//     one line written, under a loop-unique id, on a persistent pipelined
//     connection that the loop keeps per shard endpoint; the loop goes back
//     to epoll_wait and matches replies by id as they arrive (protocol.h
//     makes replies unordered and id-correlated). The merge runs when the
//     last leg lands or a loop timer (leg deadline, hedge, connect timeout)
//     gives up on it. queue_capacity bounds the routed requests in flight;
//     the excess is answered OVERLOADED.
//
//   * Exact merge. Shard legs are sent with want_ranks=true; each backend
//     returns the per-cell max-rank vector of its seed subset. Seeds
//     partition disjointly by shard-map ownership and cellwise max is
//     associative/commutative, so folding the shard vectors cellwise and
//     estimating once reproduces the single-process answer bit for bit (the
//     argument lives in shard_map.h). topk merges per-shard top-k lists the
//     same way: ownership is disjoint, so the global top-k is a subset of
//     the union of local top-k lists.
//   * Shard health. A per-shard circuit breaker (health.h) turns
//     consecutive leg failures into suspect then down; down shards are
//     skipped outright (their seeds are reported missing immediately
//     instead of burning the deadline) and recovered by a background prober
//     sending cheap health RPCs.
//   * Deadlines and hedging. Each leg gets the request's remaining budget
//     minus shard_deadline_margin_ms (so the router always has time left to
//     merge and answer). With hedge_after_ms > 0 a leg's first attempt is
//     capped at that much; a straggler or failure is then retried once on
//     the shard's mirror endpoint (or, on a second connection, the same
//     endpoint) with the remaining budget — one slow replica no longer sets
//     the request's latency. The abandoned attempt's late reply is ignored.
//   * Partial results. If at least one owning shard answers, the router
//     answers OK with degraded=true when any shard is missing, plus
//     shards_total / shards_answered and a conservative coverage bound
//     (fraction of requested seeds whose owner answered). Only when NO
//     shard answers does the client see UNAVAILABLE (with retry_after_ms).
//     BAD_REQUEST from a shard (seed out of range — deterministic, since
//     every shard keeps the full node space) is propagated as BAD_REQUEST.
//   * Resharding. The shard map hot-reloads through ShardMapManager ("reload"
//     verb or SIGHUP in ipin_routerd): epoch-swapped pickup, rollback on a
//     corrupt map. In-flight requests finish their fan-out on the map (and
//     client fleet) they started with. Router responses report the
//     shard-map epoch. While the map carries a transition block (a live
//     reshard, see shard_map.h), the router DOUBLE-DISPATCHES every seed
//     whose owner differs between the epochs: the seed rides its new
//     owner's leg AND a fallback leg to its old owner, concurrently. The
//     merge is cellwise max — idempotent — so the overlap cannot double-
//     count, and the answer stays bit-identical to the single-index answer
//     as long as either owner is up. A seed counts as covered when ANY leg
//     carrying it answers; coverage/degraded are computed per seed, so a
//     SIGKILLed new owner mid-migration costs nothing while the old owner
//     still answers. topk fans out to both epochs' fleets and dedupes
//     candidates by node id (estimates agree — same sketches).
//   * Replica failover. Each shard may list R replicas in the map (v2),
//     each serving the same shard file. The health tracker runs its state
//     machine per endpoint and keeps an active endpoint per shard: when the
//     active endpoint's circuit opens a replica is PROMOTED (all subsequent
//     legs dial it, not just hedged retries), and a probe healing the
//     primary demotes the replica. The shard only reports down when every
//     endpoint is down. The "reshard_status" admin verb reports transition
//     state and per-epoch down counts.
//
// Failpoint sites: serve.shard.connect (leg fails before dialing; one draw
// per leg), serve.shard.rpc (each RPC attempt fails — error_prob(p) gives
// seeded random shard faults; one draw per attempt), serve.shard.merge (the
// merge step fails → INTERNAL), serve.shard.map (reload rollback, see
// shard_map.h). A delay(...) action on the serve.shard.* sites stalls the
// loop that draws it.
//
// Observability (on top of the serve.* request metrics, which the router
// shares so ipin_top works unchanged): serve.shard.legs{,.ok,.failed,
// .skipped}, serve.shard.hedged, serve.shard.leg_us, serve.shard.probe{,.ok},
// serve.shard.health.* and serve.shard.down_count (health.h),
// serve.shard.map.{ok,rollback}, serve.requests.partial,
// serve.latency.route_us. The client's trace_id rides every shard leg
// (parent_span = trace_id), so one id spans the router lane and each
// backend's lanes; the flight recorder keeps one record per leg (with its
// shard number; eval_us is the wire time from the leg's write to its parsed
// reply) plus one per request.

namespace ipin::serve {

struct RouterOptions {
  /// Exactly one of the two endpoints, as in ServerOptions.
  std::string unix_socket_path;
  int tcp_port = -1;

  /// Event loops.
  int num_workers = 4;
  /// Bound on routed requests in flight; the excess is answered OVERLOADED.
  size_t queue_capacity = 64;
  size_t max_connections = 64;

  int64_t default_deadline_ms = 1000;
  int64_t retry_after_ms = 50;
  int64_t drain_deadline_ms = 2000;
  int64_t write_timeout_ms = 2000;

  /// Connect budget of a loop's connection to a shard backend.
  int64_t connect_timeout_ms = 250;
  /// Carved off the request's remaining budget to form each leg's deadline,
  /// reserving time for the merge + response write.
  int64_t shard_deadline_margin_ms = 20;
  /// > 0: cap a leg's first attempt here and retry a straggler once on the
  /// mirror (or primary) with the remaining budget. 0 disables hedging.
  int64_t hedge_after_ms = 0;

  ShardHealthOptions health;

  size_t flight_recorder_size = 256;
  size_t flight_slow_size = 64;
  int64_t slow_query_us = 100000;
  int64_t stats_window_s = 10;
};

class RouterServer {
 public:
  /// `map` must outlive the server (and should usually have a map installed
  /// before Start, though the router answers UNAVAILABLE until one is).
  RouterServer(ShardMapManager* map, RouterOptions options);
  ~RouterServer();

  RouterServer(const RouterServer&) = delete;
  RouterServer& operator=(const RouterServer&) = delete;

  /// Binds, listens, and spawns the event loops + the shard prober.
  bool Start();

  /// Graceful drain, mirroring OracleServer::Shutdown. Idempotent.
  void Shutdown();

  bool running() const { return running_.load(std::memory_order_acquire); }
  int bound_port() const { return bound_port_; }
  /// Routed requests in flight (bounded by options().queue_capacity).
  size_t queue_depth() const {
    return inflight_.load(std::memory_order_relaxed);
  }

  std::string DebugDump() const { return flight_.DumpJson(); }
  const FlightRecorder& flight_recorder() const { return flight_; }

  /// Health states of the current fleet's shards (empty before the first
  /// query/probe touched a fleet). Test/introspection hook.
  std::vector<ShardState> ShardHealth() const;

  const RouterOptions& options() const { return options_; }

 private:
  using Clock = std::chrono::steady_clock;

  // One shard-map epoch's worth of backends: the map and its health
  // tracker. Routed requests hold the fleet via shared_ptr, so a reshard
  // builds a fresh fleet while in-flight requests finish on the old one
  // (health state starts clean after a reshard — the prober re-discovers a
  // down backend within one failure round). When the map is in transition
  // the fleet also carries the PREVIOUS epoch's health tracker (`prev` =
  // true selects it) so double-dispatch fallback legs can dial the old
  // owners.
  struct ShardFleet {
    ShardFleet(std::shared_ptr<const ShardMap> map, uint64_t epoch,
               const RouterOptions& options);

    const ShardMap& SideMap(bool prev) const {
      return prev ? *map->previous() : *map;
    }
    ShardHealthTracker& SideHealth(bool prev) {
      return prev ? *prev_health : health;
    }

    /// The endpoint to dial (0 = primary, i = replicas[i-1]);
    /// prefer_mirror picks the mirror endpoint when the shard has one
    /// (hedged retries only — mirrors are not replicas).
    const ShardEndpoint& Endpoint(bool prev, size_t shard, size_t endpoint,
                                  bool prefer_mirror) const;
    /// A blocking client for the prober.
    std::unique_ptr<OracleClient> NewClient(bool prev, size_t shard,
                                            size_t endpoint,
                                            int64_t io_timeout_ms) const;

    const std::shared_ptr<const ShardMap> map;
    const uint64_t epoch;
    const RouterOptions options;
    ShardHealthTracker health;
    /// Previous-epoch health; non-null iff map->InTransition().
    std::unique_ptr<ShardHealthTracker> prev_health;
  };

  // One routed request in flight, and the shard connections and in-flight
  // requests of one loop (that loop's thread only).
  struct Routed;
  struct LoopState;

  void ProbeLoop();

  void HandleLine(const std::shared_ptr<Connection>& conn,
                  std::string_view line);
  void HandleRequest(const std::shared_ptr<Connection>& conn,
                     Request&& request, Clock::time_point received);
  /// Admits one query/topk request and scatters its legs.
  void Route(const std::shared_ptr<Connection>& conn, Request&& request,
             Clock::time_point received);
  LoopState& State(const Connection& conn);

  // The leg state machine. A call that completes the request's last leg
  // runs Finish, which destroys the Routed: callers touch it no further.
  void LaunchLeg(LoopState& state, Routed& routed, size_t leg);
  /// Writes one attempt of a leg; false (leg.error set) if it failed at
  /// once.
  bool SendAttempt(LoopState& state, Routed& routed, size_t leg,
                   bool hedged);
  void AttemptFailed(LoopState& state, Routed& routed, size_t leg);
  /// A leg attempt's outcome: health bookkeeping, then CompleteLeg.
  void LegDone(LoopState& state, Routed& routed, size_t leg,
               std::optional<Response> result);
  /// Records the leg and counts it landed.
  void CompleteLeg(LoopState& state, Routed& routed, size_t leg,
                   StatusCode status, uint64_t epoch);
  void OnRoutedTimer(LoopState& state, Routed& routed);
  void ArmTimer(LoopState& state, Routed& routed);
  /// Merges (unless the answer is already set), records, replies and
  /// forgets the request.
  void Finish(LoopState& state, Routed& routed);
  Response Merge(const Routed& routed) const;

  /// A loop's persistent connection to `endpoint` (a second one when
  /// `hedged`), dialing it if needed; nullptr with `error` on failure.
  Connection* ShardConnection(LoopState& state, const ShardEndpoint& endpoint,
                              bool hedged, std::string* error);
  bool OnShardLine(LoopState& state, Connection& conn, std::string_view line);
  void OnShardReleased(LoopState& state, Connection& conn);

  Response StatsResponse(const Request& request);
  void RecordRejected(uint64_t trace_id, int64_t id, QueryMode mode,
                      size_t num_seeds, StatusCode status,
                      Clock::time_point received);

  /// The fleet for the current shard-map epoch, building one on first use
  /// or after a reshard. nullptr while no map is installed.
  std::shared_ptr<ShardFleet> Fleet();

  ShardMapManager* const map_;
  const RouterOptions options_;

  int bound_port_ = -1;
  std::atomic<bool> running_{false};
  std::atomic<bool> draining_{false};
  Clock::time_point drain_deadline_{};

  std::unique_ptr<EventServer> net_;
  /// One per loop, indexed by EventLoop::index().
  std::vector<std::unique_ptr<LoopState>> loops_;
  std::atomic<size_t> inflight_{0};
  std::mutex drained_mu_;
  std::condition_variable drained_cv_;

  mutable std::mutex fleet_mu_;
  std::shared_ptr<ShardFleet> fleet_;

  std::mutex probe_mu_;
  std::condition_variable probe_cv_;
  std::thread prober_;
  bool probe_stop_ = false;

  FlightRecorder flight_;
  obs::WindowedAggregator window_;
  std::atomic<uint64_t> next_trace_id_{1};
};

}  // namespace ipin::serve

#endif  // IPIN_SERVE_ROUTER_H_
