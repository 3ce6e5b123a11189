#include "stats.h"

#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>

namespace perfbench {

double Quantile(std::vector<double> values, double q) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const double rank = std::ceil(q * static_cast<double>(values.size()));
  const size_t index =
      rank < 1.0 ? 0 : std::min(values.size() - 1, static_cast<size_t>(rank) - 1);
  return values[index];
}

double Median(std::vector<double> values) { return Quantile(std::move(values), 0.5); }

bool QuantileSupported(double q, size_t n) {
  // Samples strictly beyond the nearest-rank position.
  const double rank = std::ceil(q * static_cast<double>(n));
  return static_cast<double>(n) - rank >= 10.0;
}

double HighestSupportedQuantile(size_t n) {
  for (const double q : {0.9999, 0.999, 0.99, 0.9, 0.5}) {
    if (QuantileSupported(q, n)) return q;
  }
  return 0.0;
}

bool BacklogGrowing(const RungOutcome& sending) {
  const double allowed =
      std::max(16.0, sending.rate_qps * sending.limit_us * 1e-6);
  return static_cast<double>(sending.outstanding_at_end) > allowed;
}

bool SendingValid(const RungOutcome& sending) {
  return sending.late_p99_us <= kMaxLateUs &&
         sending.stolen_share <= kMaxSendingStolenShare;
}

bool RungPasses(const RungOutcome& sending) {
  if (sending.sent == 0 || !SendingValid(sending)) return false;
  return static_cast<double>(sending.good) >=
             kRungGoodShare * static_cast<double>(sending.sent) &&
         !BacklogGrowing(sending);
}

bool MajorityPasses(const std::vector<RungOutcome>& sendings) {
  size_t passed = 0;
  for (const RungOutcome& s : sendings) passed += RungPasses(s) ? 1 : 0;
  return 2 * passed > sendings.size();
}

double MaxPassingRate(const std::vector<std::vector<RungOutcome>>& rungs) {
  double best = 0.0;
  for (const std::vector<RungOutcome>& sendings : rungs) {
    if (!sendings.empty() && MajorityPasses(sendings)) {
      best = std::max(best, sendings.front().rate_qps);
    }
  }
  return best;
}

std::vector<double> RateLadder(double lo, double hi, double ratio) {
  std::vector<double> rates;
  for (double r = lo; r <= hi * 1.001; r *= ratio) rates.push_back(r);
  return rates;
}

void ResetPeakRss() {
  if (std::FILE* f = std::fopen("/proc/self/clear_refs", "w")) {
    std::fputs("5", f);
    std::fclose(f);
  }
}

double PeakRssMb() {
  std::FILE* f = std::fopen("/proc/self/status", "r");
  if (f == nullptr) return 0.0;
  char line[256];
  double kb = 0.0;
  while (std::fgets(line, sizeof line, f) != nullptr) {
    if (std::strncmp(line, "VmHWM:", 6) == 0) {
      kb = std::strtod(line + 6, nullptr);
      break;
    }
  }
  std::fclose(f);
  return kb / 1024.0;
}

double FileMb(const std::string& path) {
  std::error_code ec;
  const auto bytes = std::filesystem::file_size(path, ec);
  return ec ? 0.0 : static_cast<double>(bytes) / 1e6;
}

double ProcessCpuSeconds() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  auto seconds = [](const timeval& tv) {
    return static_cast<double>(tv.tv_sec) + static_cast<double>(tv.tv_usec) * 1e-6;
  };
  return seconds(usage.ru_utime) + seconds(usage.ru_stime);
}

double HostStealSeconds() {
  std::FILE* f = std::fopen("/proc/stat", "r");
  if (f == nullptr) return 0.0;
  unsigned long long v[8] = {};
  const int n = std::fscanf(f, "cpu %llu %llu %llu %llu %llu %llu %llu %llu", &v[0],
                            &v[1], &v[2], &v[3], &v[4], &v[5], &v[6], &v[7]);
  std::fclose(f);
  const long ticks = ::sysconf(_SC_CLK_TCK);
  return n == 8 && ticks > 0 ? static_cast<double>(v[7]) / static_cast<double>(ticks)
                             : 0.0;
}

double HostProbeSeconds() {
  const double t0 = NowSeconds();
  uint64_t x = 1, sum = 0;
  for (int i = 0; i < 20'000'000; ++i) {
    x ^= x << 13;
    x ^= x >> 7;
    x ^= x << 17;
    sum += x % 1'000'003;
  }
  const double seconds = NowSeconds() - t0;
  // Keeps the loop from being optimized away.
  volatile uint64_t sink = sum;
  (void)sink;
  return seconds;
}

double HostMeter::StolenShare() const {
  const double steal = HostStealSeconds() - steal0_;
  const double cpu = ProcessCpuSeconds() - cpu0_;
  return steal + cpu <= 0.0 ? 0.0 : steal / (steal + cpu);
}

void Samples::Add(double value, bool quiet) {
  all_.push_back(value);
  if (quiet) quiet_.push_back(value);
}

double Samples::Median() const {
  return perfbench::Median(quiet_.empty() ? all_ : quiet_);
}

int64_t NowNanos() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

double NowSeconds() { return static_cast<double>(NowNanos()) * 1e-9; }

uint64_t Fnv1a(const std::string& bytes) {
  uint64_t h = 1469598103934665603ull;
  for (const unsigned char c : bytes) {
    h ^= c;
    h *= 1099511628211ull;
  }
  return h;
}

}  // namespace perfbench
