#include "gen.h"

#include <fcntl.h>
#include <poll.h>
#include <sched.h>
#include <sys/prctl.h>
#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cmath>
#include <cstring>
#include <ctime>
#include <numeric>
#include <thread>

#include "stats.h"

namespace perfbench {

using ipin::NodeId;
namespace serve = ipin::serve;

uint64_t Rng::Next() {
  uint64_t z = (state_ += 0x9e3779b97f4a7c15ull);
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
  return z ^ (z >> 31);
}

double Rng::Uniform() { return static_cast<double>(Next() >> 11) * 0x1.0p-53; }

uint64_t Rng::Below(uint64_t n) { return n == 0 ? 0 : Next() % n; }

uint64_t StreamSeed(uint64_t seed, uint64_t stream) {
  Rng rng(seed * 0x100000001b3ull + stream);
  return rng.Next();
}

std::vector<double> PoissonArrivals(double rate, double seconds, Rng* rng) {
  std::vector<double> arrivals;
  if (rate <= 0.0) return arrivals;
  arrivals.reserve(static_cast<size_t>(rate * seconds * 1.1) + 16);
  double t = 0.0;
  while (true) {
    t += -std::log1p(-rng->Uniform()) / rate;
    if (t >= seconds) break;
    arrivals.push_back(t);
  }
  return arrivals;
}

ZipfSampler::ZipfSampler(size_t n, double s, uint64_t seed)
    : cdf_(n), permutation_(n) {
  double total = 0.0;
  for (size_t r = 0; r < n; ++r) {
    total += 1.0 / std::pow(static_cast<double>(r + 1), s);
    cdf_[r] = total;
  }
  for (double& c : cdf_) c /= total;
  std::iota(permutation_.begin(), permutation_.end(), NodeId{0});
  Rng rng(seed);
  for (size_t i = n; i > 1; --i) {
    std::swap(permutation_[i - 1], permutation_[rng.Below(i)]);
  }
}

NodeId ZipfSampler::Sample(Rng* rng) const {
  const double u = rng->Uniform();
  const size_t r = static_cast<size_t>(
      std::upper_bound(cdf_.begin(), cdf_.end(), u) - cdf_.begin());
  return permutation_[std::min(r, permutation_.size() - 1)];
}

Verdict Judge(const GenReply& reply, double expected, double limit_us) {
  if (!reply.answered || reply.status != serve::StatusCode::kOk || reply.degraded) {
    return Verdict::kFailed;
  }
  if (reply.estimate != expected) return Verdict::kWrong;
  return static_cast<double>(reply.latency_ns) * 1e-3 <= limit_us ? Verdict::kGood
                                                                   : Verdict::kLate;
}

namespace {

// The wire line of request `id` (newline-terminated).
std::string QueryLine(int64_t id, const std::vector<NodeId>& seeds) {
  serve::Request request;
  request.id = id;
  request.method = serve::Method::kQuery;
  request.mode = serve::QueryMode::kSketch;
  request.seeds = seeds;
  return serve::SerializeRequest(request);
}

int ConnectUnix(const std::string& path) {
  const int fd = ::socket(AF_UNIX, SOCK_STREAM | SOCK_CLOEXEC, 0);
  if (fd < 0) return -1;
  sockaddr_un addr{};
  addr.sun_family = AF_UNIX;
  if (path.size() >= sizeof(addr.sun_path)) {
    ::close(fd);
    return -1;
  }
  std::memcpy(addr.sun_path, path.c_str(), path.size() + 1);
  if (::connect(fd, reinterpret_cast<const sockaddr*>(&addr), sizeof addr) != 0) {
    ::close(fd);
    return -1;
  }
  ::fcntl(fd, F_SETFL, ::fcntl(fd, F_GETFL) | O_NONBLOCK);
  return fd;
}

constexpr int kConnections = 2;
constexpr int64_t kDrainNs = 1'000'000'000;
constexpr int64_t kWakeMarginNs = 1'000'000;

struct ConnResult {
  size_t transport_errors = 0;
  size_t inflight_max = 0;
  size_t outstanding_at_end = 0;
  double cpu_s = 0.0;
};

double ThreadCpuSeconds() {
  timespec ts{};
  ::clock_gettime(CLOCK_THREAD_CPUTIME_ID, &ts);
  return static_cast<double>(ts.tv_sec) + static_cast<double>(ts.tv_nsec) * 1e-9;
}

// One connection's event loop: send what is due, flush, wait for replies or
// the next due time, parse whole reply lines.
ConnResult RunConnection(const std::vector<GenRequest>& requests,
                         const std::vector<size_t>& mine, int64_t base_ns,
                         const std::string& unix_socket_path, size_t max_inflight,
                         std::vector<GenReply>* replies) {
  ConnResult result;
  // Wake up on time: the default 50 us timer slack would show as lateness.
  ::prctl(PR_SET_TIMERSLACK, 1UL, 0, 0, 0);
  const int fd = ConnectUnix(unix_socket_path);
  if (fd < 0) {
    result.transport_errors = 1;
    return result;
  }
  const int64_t last_due =
      mine.empty() ? base_ns : base_ns + requests[mine.back()].due_ns;
  const int64_t give_up = last_due + kDrainNs;
  std::string out;
  size_t out_pos = 0;
  std::string in;
  size_t next = 0;
  size_t inflight = 0;
  bool broken = false;
  bool recorded_end = false;
  while (!broken) {
    int64_t now = NowNanos();
    while (next < mine.size() && base_ns + requests[mine[next]].due_ns <= now &&
           (max_inflight == 0 || inflight < max_inflight)) {
      const size_t id = mine[next];
      out += QueryLine(static_cast<int64_t>(id), requests[id].seeds);
      GenReply& reply = (*replies)[id];
      reply.sent = true;
      reply.late_ns = now - (base_ns + requests[id].due_ns);
      ++inflight;
      result.inflight_max = std::max(result.inflight_max, inflight);
      ++next;
    }
    if (next == mine.size() && !recorded_end) {
      result.outstanding_at_end = inflight;
      recorded_end = true;
    }
    while (out_pos < out.size()) {
      const ssize_t n = ::send(fd, out.data() + out_pos, out.size() - out_pos,
                               MSG_NOSIGNAL);
      if (n > 0) {
        out_pos += static_cast<size_t>(n);
      } else if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) {
        break;
      } else if (n < 0 && errno == EINTR) {
        continue;
      } else {
        broken = true;
        break;
      }
    }
    if (out_pos == out.size()) {
      out.clear();
      out_pos = 0;
    }
    if (broken) break;
    if (next == mine.size() && inflight == 0) break;
    now = NowNanos();
    if (now >= give_up) break;
    const int64_t wake =
        next < mine.size() ? base_ns + requests[mine[next]].due_ns : give_up;
    // Poll without blocking and yield the core between polls: a vCPU that
    // halts when idle can take milliseconds to wake, which would show as
    // lateness. Only a long gap (the drain, very low rates) is slept through,
    // less kWakeMarginNs.
    const int64_t gap_ns = wake - now;
    const int64_t wait_ns = gap_ns > 2 * kWakeMarginNs ? gap_ns - kWakeMarginNs : 0;
    pollfd pfd{fd, static_cast<short>(POLLIN | (out.empty() ? 0 : POLLOUT)), 0};
    const timespec timeout{static_cast<time_t>(wait_ns / 1'000'000'000),
                           static_cast<long>(wait_ns % 1'000'000'000)};
    const int ready = ::ppoll(&pfd, 1, &timeout, nullptr);
    if (ready < 0 && errno != EINTR) {
      broken = true;
      break;
    }
    if (ready <= 0 || (pfd.revents & (POLLIN | POLLHUP | POLLERR)) == 0) {
      if (wait_ns == 0) ::sched_yield();
      continue;
    }
    char buf[65536];
    while (true) {
      const ssize_t n = ::recv(fd, buf, sizeof buf, 0);
      if (n > 0) {
        in.append(buf, static_cast<size_t>(n));
        continue;
      }
      if (n < 0 && errno == EINTR) continue;
      if (n == 0 || (errno != EAGAIN && errno != EWOULDBLOCK)) broken = true;
      break;
    }
    const int64_t received = NowNanos();
    size_t start = 0;
    for (size_t nl; (nl = in.find('\n', start)) != std::string::npos;
         start = nl + 1) {
      const auto response =
          serve::ParseResponse(std::string_view(in).substr(start, nl - start));
      if (!response.has_value() || response->id < 0 ||
          static_cast<size_t>(response->id) >= requests.size() ||
          !(*replies)[response->id].sent || (*replies)[response->id].answered) {
        ++result.transport_errors;
        continue;
      }
      GenReply& reply = (*replies)[response->id];
      reply.answered = true;
      reply.status = response->status;
      reply.estimate = response->estimate;
      reply.degraded = response->degraded;
      reply.latency_ns = received - (base_ns + requests[response->id].due_ns);
      --inflight;
    }
    in.erase(0, start);
  }
  if (broken) ++result.transport_errors;
  if (!recorded_end) result.outstanding_at_end = inflight + mine.size() - next;
  ::close(fd);
  return result;
}

}  // namespace

GenOutcome RunOpenLoop(const std::vector<GenRequest>& requests,
                       const std::string& unix_socket_path, size_t max_inflight) {
  GenOutcome outcome;
  outcome.replies.assign(requests.size(), GenReply{});
  std::vector<std::vector<size_t>> mine(kConnections);
  for (size_t i = 0; i < requests.size(); ++i) mine[i % kConnections].push_back(i);
  std::vector<ConnResult> results(kConnections);
  // A common start a little ahead, so every thread is ready for request 0.
  const int64_t base_ns = NowNanos() + 2'000'000;
  outcome.base_ns = base_ns;
  std::vector<std::thread> threads;
  for (int c = 0; c < kConnections; ++c) {
    threads.emplace_back([&, c] {
      results[c] = RunConnection(requests, mine[c], base_ns, unix_socket_path,
                                 max_inflight, &outcome.replies);
      results[c].cpu_s = ThreadCpuSeconds();
    });
  }
  for (std::thread& t : threads) t.join();
  for (const ConnResult& r : results) {
    outcome.transport_errors += r.transport_errors;
    outcome.inflight_max = std::max(outcome.inflight_max, r.inflight_max);
    outcome.outstanding_at_end += r.outstanding_at_end;
    outcome.client_cpu_s += r.cpu_s;
  }
  return outcome;
}

}  // namespace perfbench
