#ifndef IPIN_SERVE_PROTOCOL_H_
#define IPIN_SERVE_PROTOCOL_H_

#include <cstdint>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "ipin/graph/types.h"

// Wire protocol of the influence-oracle serving layer — THE canonical
// definition; DESIGN.md §9 and the README quickstart reference this header
// rather than restating it.
//
// Transport: a byte stream (Unix-domain or localhost TCP socket). Each
// request and each response is exactly one JSON object on one line,
// terminated by '\n' (newline-delimited JSON). A connection may pipeline
// requests, but responses carry NO ordering guarantee: exact, topk and
// large queries are handed to a worker pool and complete in evaluation
// order, routed queries complete when their last shard leg lands, and
// inline answers (health/stats, small sketch queries, shed/drain
// rejections) jump the queue by design. A client with more than one
// request in flight MUST assign each a unique "id" and correlate responses
// by the echoed id; the ids of concurrent requests on one connection must
// not collide (the default id 0 is only safe for strictly one-at-a-time
// use).
//
// Request object:
//   {"id": 7,                  // echoed back; any int64 (default 0)
//    "method": "query",        // "query" | "topk" | "health" | "stats"
//                              // | "reload" | "metrics" | "debug"
//                              // | "reshard_status" (router only)
//    "seeds": [1, 2, 3],       // query only: node ids
//    "mode": "auto",           // query only: "sketch" | "exact" | "auto"
//    "k": 10,                  // topk only: result count (default 10)
//    "want_ranks": true,       // query only: also return the union's
//                              // per-cell max-rank vector ("ranks" below).
//                              // Forces the sketch path (ranks only exist
//                              // there); the scatter-gather router sets it
//                              // on every shard leg so partials merge
//                              // exactly.
//    "deadline_ms": 50,        // per-request deadline; 0/absent = server
//                              // default
//    "trace_id": "00c0ffee0badf00d",  // optional distributed-trace context:
//    "parent_span": "1"}       // 64-bit ids as lowercase hex strings (hex
//                              // strings, not JSON numbers, because doubles
//                              // cannot carry 64 bits). A request without a
//                              // trace_id is assigned one at admission; the
//                              // id links the request's spans in the
//                              // server's Chrome trace, tags its log lines,
//                              // and is echoed in the response. parent_span
//                              // nests this request under a caller's span
//                              // (ipin_routerd reuses the client's trace_id
//                              // on every shard leg and sets parent_span to
//                              // it, so one id spans router + shard lanes).
//
// Methods:
//   query   estimate |sigma(seeds)|, the paper's Section 4.1 oracle query.
//           mode "sketch" answers from the vHLL index (O(|S| * beta));
//           "exact" answers from the exact IRS summaries when they are
//           loaded and the evaluation fits the server's exact-latency
//           budget, otherwise degrades to the sketch estimate; "auto"
//           (default) is "exact" semantics when the exact map is loaded,
//           "sketch" otherwise — degraded answers carry "degraded": true.
//           With "want_ranks": true the answer is always computed on the
//           sketch path and additionally carries "ranks".
//   topk    the k nodes with the largest individual influence estimates
//           |sigma(u)|, answered from the vHLL index, sorted by estimate
//           descending (ties broken by ascending node id, so shard partials
//           merge deterministically). Response carries "topk".
//   health  cheap liveness probe, answered inline by the event loop
//           (never queued, so it works even when the queue is full).
//   stats   server gauges (queue depth, epoch, workers, loops, inflight,
//           ...) in "info", including windowed rates/latencies (win_qps,
//           win_p99_us, ...) over the server's stats window when
//           observability is compiled in.
//   reload  ask the server to reload its index file now (also triggered by
//           the background reloader); answers after the attempt with
//           "info": {"epoch": ..., "rolled_back": 0|1}.
//   metrics full metrics snapshot in "payload", answered inline — the
//           scrape endpoint. "format": "prom" (default, Prometheus text
//           exposition) or "json" (the ipin.metrics.v1 report document).
//   debug   the slow-query flight recorder dump (ipin.debug.v1 JSON, see
//           flight_recorder.h) in "payload", answered inline.
//   reshard_status
//           router-only admin verb, answered inline: the live-reshard state
//           in "info" — map_epoch, in_transition (0|1), shards /
//           prev_shards (current and previous-epoch shard counts),
//           replicas_total, shards_down / prev_shards_down. A plain
//           ipin_oracled answers BAD_REQUEST (it has no shard map).
//
// Response object:
//   {"id": 7,
//    "status": "OK",           // see StatusCode below
//    "estimate": 123.4,        // query only
//    "degraded": true,         // query only: sketch answer served where
//                              // exact was requested (budget or unload),
//                              // or — through the router — a partial
//                              // answer missing >= 1 shard
//    "ranks": "0a03...",       // query with want_ranks: the union's
//                              // per-cell max-rank vector, hex-encoded two
//                              // digits per cell (beta cells). Cellwise max
//                              // of rank vectors from disjoint seed
//                              // partitions reproduces the single-process
//                              // estimate exactly (see shard_map.h), which
//                              // is how the router merges shard partials.
//    "topk": [[4, 99.5], ...], // topk only: [node, estimate] pairs,
//                              // estimate descending, ties by node id
//    "epoch": 3,               // index epoch the answer was computed on
//                              // (shard-map epoch in router responses)
//    "shards_total": 3,        // router only: shards that own part of the
//                              // answer (shards holding >= 1 requested
//                              // seed; every shard for topk)
//    "shards_answered": 2,     // router only: of those, how many returned
//                              // a usable partial before the deadline.
//                              // shards_answered < shards_total implies
//                              // degraded=true; the estimate is then a
//                              // conservative lower bound.
//    "coverage": 0.66,         // router only: conservative coverage bound —
//                              // fraction of requested seeds whose owning
//                              // shard answered (fraction of shards for
//                              // topk). 1.0 on a complete answer.
//    "retry_after_ms": 50,     // OVERLOADED/UNAVAILABLE: backoff hint
//    "error": "...",           // BAD_REQUEST/INTERNAL: human-readable
//    "trace_id": "00c0ffee0badf00d",  // echo of the request's trace
//                              // context (server-assigned if absent)
//    "info": {"queue_depth": 0.0, ...},  // stats/reload only
//    "payload": "..."}         // metrics/debug only: the document, as one
//                              // JSON string
//
// Statuses:
//   OK                 the request was served.
//   BAD_REQUEST        unparsable JSON, unknown method, seed out of range.
//   DEADLINE_EXCEEDED  the deadline passed before or during evaluation;
//                      expired requests are dropped at dequeue without
//                      occupying a worker for evaluation.
//   OVERLOADED         admission control shed the request (queue full);
//                      retry after retry_after_ms.
//   UNAVAILABLE        no index is loaded, or the server is draining.
//   INTERNAL           unexpected server-side failure (e.g. injected eval
//                      fault with no fallback available).

namespace ipin::serve {

enum class Method {
  kQuery,
  kTopk,
  kHealth,
  kStats,
  kReload,
  kMetrics,
  kDebug,
  kReshardStatus,
};

/// Formats accepted by the "metrics" method.
enum class MetricsFormat { kPrometheus, kJson };

enum class QueryMode { kSketch, kExact, kAuto };

enum class StatusCode {
  kOk,
  kBadRequest,
  kDeadlineExceeded,
  kOverloaded,
  kUnavailable,
  kInternal,
};

/// "OK", "DEADLINE_EXCEEDED", ... (the wire spelling).
const char* StatusCodeName(StatusCode code);
/// Inverse of StatusCodeName; nullopt for an unknown spelling.
std::optional<StatusCode> StatusCodeFromName(std::string_view name);

/// 64-bit trace ids travel as 16 lowercase hex characters ("00c0ffee..."):
/// JSON numbers are doubles and cannot carry 64 bits exactly.
std::string TraceIdToHex(uint64_t id);
/// Inverse of TraceIdToHex; accepts 1-16 hex digits (either case), nullopt
/// otherwise.
std::optional<uint64_t> TraceIdFromHex(std::string_view hex);

/// Rank vectors travel as two lowercase hex digits per cell ("0a03...").
std::string RanksToHex(const std::vector<uint8_t>& ranks);
/// Inverse of RanksToHex; nullopt on odd length or a non-hex digit.
std::optional<std::vector<uint8_t>> RanksFromHex(std::string_view hex);

/// One parsed request line.
struct Request {
  int64_t id = 0;
  Method method = Method::kQuery;
  std::vector<NodeId> seeds;
  QueryMode mode = QueryMode::kAuto;
  /// 0 = use the server default.
  int64_t deadline_ms = 0;
  /// topk only: result count (>= 1; default 10).
  int64_t k = 10;
  /// query only: also return the union's per-cell max-rank vector (forces
  /// the sketch path; see the header comment).
  bool want_ranks = false;
  /// Distributed-trace context; 0 = none carried (the server assigns one).
  uint64_t trace_id = 0;
  uint64_t parent_span = 0;
  /// metrics method only.
  MetricsFormat format = MetricsFormat::kPrometheus;
};

/// One response line, parsed or about to be serialized.
struct Response {
  int64_t id = 0;
  StatusCode status = StatusCode::kOk;
  double estimate = 0.0;
  bool degraded = false;
  /// query with want_ranks: the union's per-cell max ranks (beta cells);
  /// empty otherwise.
  std::vector<uint8_t> ranks;
  /// topk: [node, estimate] pairs, estimate descending, ties by node id.
  std::vector<std::pair<NodeId, double>> topk;
  uint64_t epoch = 0;
  /// Scatter-gather accounting (router responses only; serialized when
  /// shards_total > 0). See the header comment for semantics.
  int64_t shards_total = 0;
  int64_t shards_answered = 0;
  double coverage = 0.0;
  int64_t retry_after_ms = 0;
  std::string error;
  /// Echo of the request's trace context; 0 = none.
  uint64_t trace_id = 0;
  /// stats/reload payload; names are dot-free identifiers.
  std::vector<std::pair<std::string, double>> info;
  /// metrics/debug payload: a whole document as one JSON string.
  std::string payload;
};

/// Parses one request line (without the trailing newline). On failure
/// returns nullopt and, when `error` is non-null, stores the reason; *id_out
/// (when non-null) receives the request id if one could be read, so the
/// server can echo it in the BAD_REQUEST response.
std::optional<Request> ParseRequest(std::string_view line, std::string* error,
                                    int64_t* id_out = nullptr);

/// Serializes a request as one line, with the trailing '\n'.
std::string SerializeRequest(const Request& request);

/// Parses one response line (client side). nullopt on malformed input.
std::optional<Response> ParseResponse(std::string_view line);

/// Serializes a response as one line, with the trailing '\n'.
std::string SerializeResponse(const Response& response);

}  // namespace ipin::serve

#endif  // IPIN_SERVE_PROTOCOL_H_
