#ifndef PERFBENCH_GEN_H_
#define PERFBENCH_GEN_H_

// The benchmark's open-loop load generator.
//
// Inputs are a pure function of the workload seed: a SplitMix64 stream
// drives a Poisson arrival schedule and a Zipf key sampler over a seeded
// permutation of node ids. Each rung of a rate ladder is sent over at most
// two connections, one thread each; every thread pipelines its requests on
// schedule regardless of replies (open loop), correlates replies by id, and
// times each request from the moment it was due, so a stall is charged to
// every request queued behind it. The generator also reports how late it
// sent (its own validity) and how many requests it had in flight.

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "ipin/graph/types.h"
#include "ipin/serve/protocol.h"

namespace perfbench {

/// SplitMix64: tiny, seedable, identical on every platform.
class Rng {
 public:
  explicit Rng(uint64_t seed) : state_(seed) {}
  uint64_t Next();
  /// Uniform in [0, 1).
  double Uniform();
  /// Uniform integer in [0, n).
  uint64_t Below(uint64_t n);

 private:
  uint64_t state_;
};

/// Mixes a base seed with a stream tag, so each input stream of a run is
/// independent of the others.
uint64_t StreamSeed(uint64_t seed, uint64_t stream);

/// Arrival offsets (seconds from the rung start) of a Poisson process of
/// `rate` per second over [0, seconds).
std::vector<double> PoissonArrivals(double rate, double seconds, Rng* rng);

/// Zipf(s) over n keys: key rank r (0-based) has weight 1 / (r + 1)^s, and
/// ranks map to node ids through a permutation fixed by `seed`.
class ZipfSampler {
 public:
  ZipfSampler(size_t n, double s, uint64_t seed);
  ipin::NodeId Sample(Rng* rng) const;
  /// The node id of rank r (rank 0 is the hottest key).
  ipin::NodeId NodeOfRank(size_t r) const { return permutation_[r]; }

 private:
  std::vector<double> cdf_;
  std::vector<ipin::NodeId> permutation_;
};

/// One scheduled request.
struct GenRequest {
  int64_t due_ns = 0;  // from the rung start
  std::vector<ipin::NodeId> seeds;
};

/// What became of one request.
struct GenReply {
  bool sent = false;
  bool answered = false;
  ipin::serve::StatusCode status = ipin::serve::StatusCode::kInternal;
  double estimate = 0.0;
  bool degraded = false;
  int64_t late_ns = 0;     // send time minus due time
  int64_t latency_ns = 0;  // reply time minus due time
};

struct GenOutcome {
  std::vector<GenReply> replies;  // indexed like the requests
  /// Steady-clock time (ns) the schedule's offsets count from.
  int64_t base_ns = 0;
  /// Transport failures (connect, write, read, unparsable or unexpected
  /// replies); the affected requests stay unanswered.
  size_t transport_errors = 0;
  /// Largest number of requests one connection had in flight.
  size_t inflight_max = 0;
  /// Requests in flight, summed over connections, when each connection sent
  /// its last request.
  size_t outstanding_at_end = 0;
  /// CPU time the client threads used, to tell the program's own apart.
  double client_cpu_s = 0.0;
};

/// How a reply scores against the in-process reference answer.
enum class Verdict {
  kGood,    // OK, bit-equal to the reference, within the latency limit
  kLate,    // OK and correct, but after the latency limit
  kFailed,  // missing, shed (OVERLOADED), expired, any other error, degraded
  kWrong,   // OK but not bit-equal to the reference: an output check failure
};
Verdict Judge(const GenReply& reply, double expected, double limit_us);

/// Sends `requests` (sketch-mode queries, ids = their index) open-loop on
/// schedule to the server at `unix_socket_path` and collects the replies.
/// Two connections, one thread each, take alternate requests; replies are
/// awaited until 1 s (the server's default deadline) after the last due
/// time. With `max_inflight` > 0 a connection holds a due request back while
/// it has that many unanswered; the wait counts as lateness and latency.
GenOutcome RunOpenLoop(const std::vector<GenRequest>& requests,
                       const std::string& unix_socket_path, size_t max_inflight = 0);

}  // namespace perfbench

#endif  // PERFBENCH_GEN_H_
