#ifndef IPIN_SERVE_CLIENT_H_
#define IPIN_SERVE_CLIENT_H_

#include <cstdint>
#include <optional>
#include <string>

#include "ipin/common/random.h"
#include "ipin/serve/protocol.h"

// Small blocking client for the oracle serving protocol, used by the smoke
// tests, the bench harness, and ipin_oracle_client. One call = one request
// line + one response line. Transport failures (connect refused, read
// timeout, torn connection) are retried on a fresh connection with jittered
// exponential backoff; OVERLOADED responses can opt into the same retry
// loop, honouring the server's retry_after_ms hint. Queries sent without a
// trace_id get a client-generated one (see last_trace_id()), so every
// query is correlatable with its server-side spans and log lines.

namespace ipin::serve {

struct ClientOptions {
  /// One of the two endpoints, mirroring ServerOptions.
  std::string unix_socket_path;
  std::string tcp_host = "127.0.0.1";
  int tcp_port = -1;

  /// Per-attempt socket timeouts.
  int64_t connect_timeout_ms = 1000;
  int64_t io_timeout_ms = 2000;

  /// Retry policy: `max_attempts` total attempts, sleeping
  /// backoff_initial_ms * multiplier^i, each sleep jittered uniformly in
  /// [1 - jitter, 1 + jitter] so a retrying fleet does not stampede.
  int max_attempts = 4;
  int64_t backoff_initial_ms = 10;
  double backoff_multiplier = 2.0;
  double backoff_jitter = 0.5;
  /// Also retry OVERLOADED responses (waiting max(backoff, retry_after_ms)).
  bool retry_overloaded = false;
  /// Seed for the jitter PRNG (deterministic tests).
  uint64_t jitter_seed = 0x5eedULL;
};

class OracleClient {
 public:
  explicit OracleClient(ClientOptions options);
  ~OracleClient();

  OracleClient(const OracleClient&) = delete;
  OracleClient& operator=(const OracleClient&) = delete;

  /// Sends `request` and waits for its response, reconnecting and retrying
  /// per the options. nullopt (with `error` filled when non-null) once the
  /// attempts are exhausted.
  std::optional<Response> Call(const Request& request,
                               std::string* error = nullptr);

  /// Convenience: a query request for `seeds`.
  std::optional<Response> Query(const std::vector<NodeId>& seeds,
                                QueryMode mode = QueryMode::kAuto,
                                int64_t deadline_ms = 0,
                                std::string* error = nullptr);

  /// Drops the pooled connection so the next Call dials afresh.
  void Disconnect();

  /// Transport attempts that failed and were retried (observability for
  /// tests and the bench harness).
  size_t retries() const { return retries_; }

  /// Trace id the last Call() went out with (the request's own, or the one
  /// this client generated for a query sent without one); 0 before any
  /// call. Lets callers print/propagate the id for server-side correlation.
  uint64_t last_trace_id() const { return last_trace_id_; }

 private:
  bool EnsureConnected(std::string* error);
  bool SendLine(const std::string& line);
  bool ReadLine(std::string* line);

  const ClientOptions options_;
  Rng rng_;
  int fd_ = -1;
  std::string read_buffer_;
  int64_t next_id_ = 1;
  size_t retries_ = 0;
  int64_t retry_after_hint_ = 0;
  uint64_t last_trace_id_ = 0;
};

}  // namespace ipin::serve

#endif  // IPIN_SERVE_CLIENT_H_
