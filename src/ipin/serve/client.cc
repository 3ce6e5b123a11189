#include "ipin/serve/client.h"

#include <arpa/inet.h>
#include <fcntl.h>
#include <netinet/in.h>
#include <poll.h>
#include <sys/socket.h>
#include <sys/time.h>
#include <sys/un.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <cstring>
#include <thread>

#include "ipin/common/logging.h"
#include "ipin/common/string_util.h"

namespace ipin::serve {
namespace {

void ApplyIoTimeout(int fd, int64_t timeout_ms) {
  timeval tv{};
  tv.tv_sec = timeout_ms / 1000;
  tv.tv_usec = (timeout_ms % 1000) * 1000;
  ::setsockopt(fd, SOL_SOCKET, SO_RCVTIMEO, &tv, sizeof(tv));
  ::setsockopt(fd, SOL_SOCKET, SO_SNDTIMEO, &tv, sizeof(tv));
}

// Non-blocking connect with a poll deadline, restored to blocking after.
bool ConnectWithTimeout(int fd, const sockaddr* addr, socklen_t len,
                        int64_t timeout_ms) {
  const int flags = ::fcntl(fd, F_GETFL, 0);
  ::fcntl(fd, F_SETFL, flags | O_NONBLOCK);
  int rc = ::connect(fd, addr, len);
  if (rc != 0 && errno == EINPROGRESS) {
    pollfd pfd{fd, POLLOUT, 0};
    if (::poll(&pfd, 1, static_cast<int>(timeout_ms)) <= 0) return false;
    int err = 0;
    socklen_t err_len = sizeof(err);
    if (::getsockopt(fd, SOL_SOCKET, SO_ERROR, &err, &err_len) != 0 ||
        err != 0) {
      return false;
    }
    rc = 0;
  }
  ::fcntl(fd, F_SETFL, flags);
  return rc == 0;
}

}  // namespace

OracleClient::OracleClient(ClientOptions options)
    : options_(std::move(options)),
      rng_(options_.jitter_seed) {}

OracleClient::~OracleClient() { Disconnect(); }

void OracleClient::Disconnect() {
  if (fd_ >= 0) {
    ::close(fd_);
    fd_ = -1;
  }
  read_buffer_.clear();
}

bool OracleClient::EnsureConnected(std::string* error) {
  if (fd_ >= 0) return true;
  const bool unix_mode = !options_.unix_socket_path.empty();
  int fd = -1;
  bool ok = false;
  if (unix_mode) {
    sockaddr_un addr{};
    addr.sun_family = AF_UNIX;
    if (options_.unix_socket_path.size() >= sizeof(addr.sun_path)) {
      if (error != nullptr) *error = "socket path too long";
      return false;
    }
    std::strncpy(addr.sun_path, options_.unix_socket_path.c_str(),
                 sizeof(addr.sun_path) - 1);
    fd = ::socket(AF_UNIX, SOCK_STREAM, 0);
    ok = fd >= 0 &&
         ConnectWithTimeout(fd, reinterpret_cast<sockaddr*>(&addr),
                            sizeof(addr), options_.connect_timeout_ms);
  } else {
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_port = htons(static_cast<uint16_t>(options_.tcp_port));
    if (::inet_pton(AF_INET, options_.tcp_host.c_str(), &addr.sin_addr) != 1) {
      if (error != nullptr) *error = "bad host: " + options_.tcp_host;
      return false;
    }
    fd = ::socket(AF_INET, SOCK_STREAM, 0);
    ok = fd >= 0 &&
         ConnectWithTimeout(fd, reinterpret_cast<sockaddr*>(&addr),
                            sizeof(addr), options_.connect_timeout_ms);
  }
  if (!ok) {
    if (error != nullptr) {
      *error = StrFormat("connect failed: %s", std::strerror(errno));
    }
    if (fd >= 0) ::close(fd);
    return false;
  }
  ApplyIoTimeout(fd, options_.io_timeout_ms);
  fd_ = fd;
  read_buffer_.clear();
  return true;
}

bool OracleClient::SendLine(const std::string& line) {
  size_t written = 0;
  while (written < line.size()) {
    const ssize_t n = ::send(fd_, line.data() + written,
                             line.size() - written, MSG_NOSIGNAL);
    if (n < 0) {
      if (errno == EINTR) continue;
      return false;
    }
    written += static_cast<size_t>(n);
  }
  return true;
}

bool OracleClient::ReadLine(std::string* line) {
  while (true) {
    const size_t newline = read_buffer_.find('\n');
    if (newline != std::string::npos) {
      line->assign(read_buffer_, 0, newline);
      read_buffer_.erase(0, newline + 1);
      return true;
    }
    char chunk[4096];
    const ssize_t n = ::recv(fd_, chunk, sizeof(chunk), 0);
    if (n == 0) return false;
    if (n < 0) {
      if (errno == EINTR) continue;
      return false;  // includes EAGAIN from SO_RCVTIMEO: a read timeout
    }
    read_buffer_.append(chunk, static_cast<size_t>(n));
  }
}

std::optional<Response> OracleClient::Call(const Request& request,
                                           std::string* error) {
  Request to_send = request;
  if (to_send.id == 0) to_send.id = next_id_++;
  if (to_send.method == Method::kQuery && to_send.trace_id == 0) {
    // Originate trace context here so a query's server-side spans and log
    // lines are correlatable with this call even when the caller passed no
    // id. 0 means "absent" on the wire, so roll until nonzero.
    do {
      to_send.trace_id = rng_.NextUint64();
    } while (to_send.trace_id == 0);
  }
  last_trace_id_ = to_send.trace_id;
  const std::string line = SerializeRequest(to_send);

  std::string last_error = "no attempts made";
  double backoff_ms = static_cast<double>(options_.backoff_initial_ms);
  for (int attempt = 0; attempt < std::max(1, options_.max_attempts);
       ++attempt) {
    if (attempt > 0) {
      ++retries_;
      // Jittered exponential backoff; an OVERLOADED hint can only stretch
      // the wait, never shrink it below the schedule.
      const double jitter =
          1.0 + options_.backoff_jitter * (2.0 * rng_.NextDouble() - 1.0);
      int64_t sleep_ms = static_cast<int64_t>(backoff_ms * jitter);
      sleep_ms = std::max<int64_t>(sleep_ms, retry_after_hint_);
      std::this_thread::sleep_for(std::chrono::milliseconds(sleep_ms));
      backoff_ms *= options_.backoff_multiplier;
    }
    retry_after_hint_ = 0;

    if (!EnsureConnected(&last_error)) continue;
    if (!SendLine(line)) {
      last_error = "send failed";
      Disconnect();
      continue;
    }
    // Responses on a connection carry no ordering guarantee (see
    // protocol.h): correlate by id, discarding any stray answer to an
    // earlier request on this connection.
    std::optional<Response> response;
    bool io_failed = false;
    for (;;) {
      std::string response_line;
      if (!ReadLine(&response_line)) {
        last_error = "read failed or timed out";
        io_failed = true;
        break;
      }
      response = ParseResponse(response_line);
      if (!response.has_value()) {
        last_error = "malformed response";
        io_failed = true;
        break;
      }
      if (response->id == to_send.id) break;
    }
    if (io_failed) {
      Disconnect();
      continue;
    }
    if (response->status == StatusCode::kOverloaded &&
        options_.retry_overloaded && attempt + 1 < options_.max_attempts) {
      last_error = "overloaded";
      retry_after_hint_ = response->retry_after_ms;
      continue;  // connection stays healthy; just back off and retry
    }
    return response;
  }
  if (error != nullptr) *error = last_error;
  return std::nullopt;
}

std::optional<Response> OracleClient::Query(const std::vector<NodeId>& seeds,
                                            QueryMode mode,
                                            int64_t deadline_ms,
                                            std::string* error) {
  Request request;
  request.method = Method::kQuery;
  request.seeds = seeds;
  request.mode = mode;
  request.deadline_ms = deadline_ms;
  return Call(request, error);
}

}  // namespace ipin::serve
