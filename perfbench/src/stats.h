#ifndef PERFBENCH_STATS_H_
#define PERFBENCH_STATS_H_

// Summary statistics and pass/fail rules shared by every workload: the
// quantile rule for reported timings, the rung rule behind max_qps, and the
// process resource probes (peak RSS over a phase, CPU time).

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

namespace perfbench {

/// Nearest-rank quantile of `values` (q in [0, 1]); 0 when empty.
double Quantile(std::vector<double> values, double q);
double Median(std::vector<double> values);

/// The highest quantile from {0.9999, 0.999, 0.99, 0.9, 0.5} that has at
/// least ten samples beyond it among `n` samples; 0 when n < 20 (not even the
/// median qualifies).
double HighestSupportedQuantile(size_t n);

/// True when quantile `q` of `n` samples has at least ten samples beyond it.
bool QuantileSupported(double q, size_t n);

/// One sending of a rung of an open-loop rate ladder, as the generator saw
/// it.
struct RungOutcome {
  double rate_qps = 0.0;
  /// Requests scheduled (attempted).
  size_t sent = 0;
  /// Requests answered OK, with a correct estimate, within the latency limit
  /// of their due time. Everything else (transport error, OVERLOADED,
  /// DEADLINE_EXCEEDED, wrong or missing reply, late reply) is a miss.
  size_t good = 0;
  /// Requests still unanswered when the last one was sent.
  size_t outstanding_at_end = 0;
  /// The rung's latency limit in microseconds.
  double limit_us = 1000.0;
  /// 99th percentile of how late the generator sent, in microseconds.
  double late_p99_us = 0.0;
  /// Share of the CPU time wanted during the sending that the hypervisor
  /// gave to someone else (HostMeter).
  double stolen_share = 0.0;
};

/// Share of requests that must be good for a sending to pass.
inline constexpr double kRungGoodShare = 0.99;

/// The most the generator may run late (p99) for a sending to count.
inline constexpr double kMaxLateUs = 200.0;

/// The most CPU the host may steal during a sending (HostMeter) for it to
/// count. Looser than kMaxStolenShare: serving keeps every vCPU busy, and on
/// a shared host some steal is the normal state, not a stall.
inline constexpr double kMaxSendingStolenShare = 0.25;

/// A sending measured the program: the generator kept to its schedule and
/// the host stole little CPU. One that fails this measured the host or the
/// generator, so it cannot pass.
bool SendingValid(const RungOutcome& sending);

/// A backlog grows when more requests are in flight at the end of the
/// sending than the limit allows by Little's law (rate x limit), with a
/// floor of 16.
bool BacklogGrowing(const RungOutcome& sending);

/// A sending passes when it is valid, at least 99% of its requests are good
/// and its backlog does not grow.
bool RungPasses(const RungOutcome& sending);

/// A rung is sent several times and passes when most sendings pass, so one
/// host stall cannot decide it.
bool MajorityPasses(const std::vector<RungOutcome>& sendings);

/// The highest rate among rungs (each a list of sendings at one rate) that
/// pass by majority; 0 when none does.
double MaxPassingRate(const std::vector<std::vector<RungOutcome>>& rungs);

/// Geometric rate ladder: lo, lo*ratio, ... up to and including hi (within
/// rounding).
std::vector<double> RateLadder(double lo, double hi, double ratio);

/// Peak resident set over a phase: ResetPeakRss() at its start, PeakRssMb()
/// at its end (Linux VmHWM; reset through /proc/self/clear_refs).
void ResetPeakRss();
double PeakRssMb();

/// Size of a file in MB (10^6 bytes); 0 when it cannot be read.
double FileMb(const std::string& path);

/// Process CPU time (user + system) in seconds.
double ProcessCpuSeconds();

/// CPU time the hypervisor has stolen from this machine so far, summed over
/// all CPUs, in seconds ("steal" in /proc/stat; 0 where not reported).
double HostStealSeconds();

/// Seconds a fixed integer loop takes on this host now: the benchmark's own
/// code, so no change to the program moves it, only the host's speed does.
double HostProbeSeconds();

/// HostProbeSeconds() on the reference VM (4 vCPUs of an Intel Xeon) when
/// its host is quiet. Time metrics are scaled by this over the run's median
/// probe, which reports them as seconds on that host.
inline constexpr double kReferenceProbeSeconds = 0.060;

/// The largest stolen share at which a measurement still counts as quiet.
inline constexpr double kMaxStolenShare = 0.10;

/// Measures, from construction on, how much of the CPU time this process
/// wanted the hypervisor gave to someone else: steal / (steal + our CPU).
/// On a shared host that share, not the program, decides how long parallel
/// sections take, so measurements above kMaxStolenShare are set aside.
class HostMeter {
 public:
  HostMeter() : steal0_(HostStealSeconds()), cpu0_(ProcessCpuSeconds()) {}
  double StolenShare() const;
  bool Quiet() const { return StolenShare() <= kMaxStolenShare; }

 private:
  double steal0_, cpu0_;
};

/// Repeated measurements of one quantity, each marked quiet or not.
/// Median() is over the quiet ones, or over all when none was quiet.
class Samples {
 public:
  void Add(double value, bool quiet = true);
  double Median() const;
  size_t size() const { return all_.size(); }
  size_t quiet() const { return quiet_.size(); }

 private:
  std::vector<double> all_, quiet_;
};

/// Monotonic clock in seconds / nanoseconds.
double NowSeconds();
int64_t NowNanos();

/// FNV-1a over a byte string, for output digests.
uint64_t Fnv1a(const std::string& bytes);

}  // namespace perfbench

#endif  // PERFBENCH_STATS_H_
