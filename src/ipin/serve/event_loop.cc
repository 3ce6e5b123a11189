#include "ipin/serve/event_loop.h"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/epoll.h>
#include <sys/eventfd.h>
#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <climits>
#include <cstring>
#include <future>

#include "ipin/common/failpoint.h"
#include "ipin/common/logging.h"
#include "ipin/common/string_util.h"
#include "ipin/obs/metrics.h"
#include "ipin/serve/protocol.h"

namespace ipin::serve {
namespace {

// epoll_data of the loop's wake eventfd; watch ids start at 1.
constexpr uint64_t kWakeId = 0;
// Bytes read from one connection per readiness event before the loop moves
// on (level-triggered epoll calls back for the rest), so one firehose
// client cannot starve the loop's other connections.
constexpr size_t kReadChunk = 64 * 1024;
constexpr int kReadsPerEvent = 4;

// Writes as much of `data` as the socket takes without blocking. Returns
// the bytes written, or -1 when the connection is broken.
ssize_t SendSome(int fd, const char* data, size_t size) {
  size_t written = 0;
  while (written < size) {
    const ssize_t n = ::send(fd, data + written, size - written,
                             MSG_NOSIGNAL | MSG_DONTWAIT);
    if (n > 0) {
      written += static_cast<size_t>(n);
    } else if (n < 0 && errno == EINTR) {
      continue;
    } else if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) {
      break;
    } else {
      return -1;
    }
  }
  return static_cast<ssize_t>(written);
}

}  // namespace

// ---------------------------------------------------------------- EventLoop

EventLoop::EventLoop(size_t index) : index_(index) {}

EventLoop::~EventLoop() { Stop(); }

bool EventLoop::Start() {
  epoll_fd_ = ::epoll_create1(EPOLL_CLOEXEC);
  wake_fd_ = ::eventfd(0, EFD_NONBLOCK | EFD_CLOEXEC);
  if (epoll_fd_ < 0 || wake_fd_ < 0) {
    LogError(StrFormat("serve: event loop setup: %s", std::strerror(errno)));
    std::lock_guard<std::mutex> lock(mu_);
    stopped_ = true;  // Post refuses, so nothing waits on a dead loop
    return false;
  }
  epoll_event event{};
  event.events = EPOLLIN;
  event.data.u64 = kWakeId;
  ::epoll_ctl(epoll_fd_, EPOLL_CTL_ADD, wake_fd_, &event);
  thread_ = std::thread([this] {
    thread_id_.store(std::this_thread::get_id());
    Run();
  });
  return true;
}

void EventLoop::Stop() {
  {
    std::lock_guard<std::mutex> lock(mu_);
    if (stopped_) return;
    stopped_ = true;
  }
  stop_.store(true, std::memory_order_release);
  if (wake_fd_ >= 0) {
    const uint64_t one = 1;
    [[maybe_unused]] const ssize_t n = ::write(wake_fd_, &one, sizeof(one));
  }
  if (thread_.joinable()) thread_.join();
  // The thread is gone: drop what the handlers, timers and tasks hold (the
  // connections among them close their sockets once nobody else holds
  // them).
  watches_.clear();
  retired_.clear();
  timer_index_.clear();
  timers_.clear();
  std::vector<Task> tasks;
  {
    std::lock_guard<std::mutex> lock(mu_);
    tasks.swap(tasks_);
  }
  tasks.clear();
  if (epoll_fd_ >= 0) ::close(epoll_fd_);
  if (wake_fd_ >= 0) ::close(wake_fd_);
  epoll_fd_ = wake_fd_ = -1;
}

bool EventLoop::Post(Task task) {
  bool wake;
  {
    std::lock_guard<std::mutex> lock(mu_);
    if (stopped_) return false;
    tasks_.push_back(std::move(task));
    wake = !wake_pending_;
    wake_pending_ = true;
  }
  if (wake) {
    const uint64_t one = 1;
    [[maybe_unused]] const ssize_t n = ::write(wake_fd_, &one, sizeof(one));
  }
  return true;
}

void EventLoop::RunSync(Task task) {
  // Shared, not on this stack: if the loop stops with the task still
  // queued, destroying the task breaks the promise and releases the wait.
  auto done = std::make_shared<std::promise<void>>();
  std::future<void> finished = done->get_future();
  if (!Post([task = std::move(task), done] {
        task();
        done->set_value();
      })) {
    return;
  }
  finished.wait();
}

uint64_t EventLoop::Watch(int fd, uint32_t events, EventHandler handler) {
  const uint64_t id = next_watch_++;
  watches_.emplace(id, std::make_unique<EventHandler>(std::move(handler)));
  epoll_event event{};
  event.events = events;
  event.data.u64 = id;
  ::epoll_ctl(epoll_fd_, EPOLL_CTL_ADD, fd, &event);
  return id;
}

void EventLoop::Modify(uint64_t watch, int fd, uint32_t events) {
  epoll_event event{};
  event.events = events;
  event.data.u64 = watch;
  ::epoll_ctl(epoll_fd_, EPOLL_CTL_MOD, fd, &event);
}

void EventLoop::Unwatch(uint64_t watch, int fd) {
  const auto it = watches_.find(watch);
  if (it == watches_.end()) return;
  ::epoll_ctl(epoll_fd_, EPOLL_CTL_DEL, fd, nullptr);
  retired_.push_back(std::move(it->second));
  watches_.erase(it);
}

EventLoop::TimerId EventLoop::AddTimer(Clock::time_point when, Task task) {
  const TimerId id = next_timer_++;
  timer_index_.emplace(id, timers_.emplace(when, std::make_pair(id, std::move(task))));
  return id;
}

void EventLoop::CancelTimer(TimerId id) {
  const auto it = timer_index_.find(id);
  if (it == timer_index_.end()) return;
  timers_.erase(it->second);
  timer_index_.erase(it);
}

int EventLoop::TimeoutMs() const {
  if (timers_.empty()) return -1;
  const auto wait = timers_.begin()->first - Clock::now();
  if (wait <= Clock::duration::zero()) return 0;
  // Rounded up: waking a little late is harmless, waking early would spin
  // through zero-timeout waits until the timer is due.
  const auto ms =
      std::chrono::ceil<std::chrono::milliseconds>(wait).count();
  return static_cast<int>(std::min<int64_t>(ms, INT_MAX));
}

void EventLoop::RunDueTimers() {
  const Clock::time_point now = Clock::now();
  while (!timers_.empty() && timers_.begin()->first <= now) {
    auto node = timers_.extract(timers_.begin());
    timer_index_.erase(node.mapped().first);
    node.mapped().second();
  }
}

void EventLoop::RunTasks() {
  // Consume the wakeup before taking the tasks: a Post racing this sees
  // wake_pending_ still set and skips its write, and its task is swapped
  // out below; a Post after the swap writes a fresh wakeup.
  uint64_t count;
  [[maybe_unused]] const ssize_t n = ::read(wake_fd_, &count, sizeof(count));
  std::vector<Task> tasks;
  {
    std::lock_guard<std::mutex> lock(mu_);
    tasks.swap(tasks_);
    wake_pending_ = false;
  }
  for (Task& task : tasks) task();
}

void EventLoop::Run() {
  constexpr int kMaxEvents = 64;
  epoll_event events[kMaxEvents];
  while (!stop_.load(std::memory_order_acquire)) {
    const int n = ::epoll_wait(epoll_fd_, events, kMaxEvents, TimeoutMs());
    if (n < 0 && errno != EINTR) {
      LogError(StrFormat("serve: epoll_wait: %s", std::strerror(errno)));
      break;
    }
    bool woken = false;
    for (int i = 0; i < n; ++i) {
      const uint64_t id = events[i].data.u64;
      if (id == kWakeId) {
        woken = true;
        continue;
      }
      const auto it = watches_.find(id);
      if (it == watches_.end()) continue;  // unwatched earlier in the batch
      EventHandler* handler = it->second.get();
      (*handler)(events[i].events);
    }
    if (woken) RunTasks();
    RunDueTimers();
    retired_.clear();
  }
}

// --------------------------------------------------------------- Connection

Connection::Connection(int fd, std::shared_ptr<EventLoop> loop,
                       int64_t write_timeout_ms, LineHandler on_line,
                       ReleaseHandler on_release)
    : fd_(fd),
      loop_(std::move(loop)),
      write_timeout_ms_(write_timeout_ms),
      on_line_(std::move(on_line)),
      on_release_(std::move(on_release)) {}

Connection::~Connection() { ::close(fd_); }

std::shared_ptr<Connection> Connection::Adopt(int fd,
                                              std::shared_ptr<EventLoop> loop,
                                              int64_t write_timeout_ms,
                                              LineHandler on_line,
                                              ReleaseHandler on_release) {
  std::shared_ptr<Connection> conn(new Connection(
      fd, std::move(loop), write_timeout_ms, std::move(on_line),
      std::move(on_release)));
  conn->Register(/*connecting=*/false, 0);
  return conn;
}

std::shared_ptr<Connection> Connection::Dial(
    const std::string& unix_socket_path, const std::string& tcp_host,
    int tcp_port, int64_t connect_timeout_ms, int64_t write_timeout_ms,
    std::shared_ptr<EventLoop> loop, LineHandler on_line,
    ReleaseHandler on_release, std::string* error) {
  sockaddr_storage addr{};
  socklen_t len = 0;
  int family;
  if (!unix_socket_path.empty()) {
    auto* un = reinterpret_cast<sockaddr_un*>(&addr);
    if (unix_socket_path.size() >= sizeof(un->sun_path)) {
      *error = "socket path too long";
      return nullptr;
    }
    un->sun_family = AF_UNIX;
    std::strncpy(un->sun_path, unix_socket_path.c_str(),
                 sizeof(un->sun_path) - 1);
    len = sizeof(sockaddr_un);
    family = AF_UNIX;
  } else {
    auto* in = reinterpret_cast<sockaddr_in*>(&addr);
    in->sin_family = AF_INET;
    in->sin_port = htons(static_cast<uint16_t>(tcp_port));
    if (::inet_pton(AF_INET, tcp_host.c_str(), &in->sin_addr) != 1) {
      *error = "bad host: " + tcp_host;
      return nullptr;
    }
    len = sizeof(sockaddr_in);
    family = AF_INET;
  }
  const int fd = ::socket(family, SOCK_STREAM | SOCK_NONBLOCK | SOCK_CLOEXEC, 0);
  if (fd < 0) {
    *error = StrFormat("socket(): %s", std::strerror(errno));
    return nullptr;
  }
  bool connecting = false;
  if (::connect(fd, reinterpret_cast<sockaddr*>(&addr), len) != 0) {
    if (errno != EINPROGRESS) {
      // A Unix socket connects or fails at once (EAGAIN is a full
      // backlog: a failure too).
      *error = StrFormat("connect failed: %s", std::strerror(errno));
      ::close(fd);
      return nullptr;
    }
    connecting = true;
  }
  std::shared_ptr<Connection> conn(new Connection(
      fd, std::move(loop), write_timeout_ms, std::move(on_line),
      std::move(on_release)));
  conn->Register(connecting, connect_timeout_ms);
  return conn;
}

void Connection::Register(bool connecting, int64_t connect_timeout_ms) {
  connecting_ = connecting;
  interest_ = connecting ? EPOLLOUT : EPOLLIN;
  watch_ = loop_->Watch(fd_, interest_,
                        [self = shared_from_this()](uint32_t events) {
                          self->OnEvents(events);
                        });
  if (connecting) {
    connect_timer_ = loop_->AddTimer(
        EventLoop::Clock::now() + std::chrono::milliseconds(connect_timeout_ms),
        [self = shared_from_this()] {
          self->connect_timer_ = 0;
          LogDebug("serve: connect timed out");
          self->Release(/*close=*/true);
        });
  }
}

bool Connection::closed() const {
  std::lock_guard<std::mutex> lock(out_mu_);
  return closed_;
}

void Connection::OnEvents(uint32_t events) {
  if (watch_ == 0) return;
  if (connecting_) {
    OnConnected();
    return;
  }
  if (reading_ && !paused_ && (events & (EPOLLIN | EPOLLHUP | EPOLLERR))) {
    ReadAvailable();
    if (watch_ == 0) return;
  } else if (events & (EPOLLHUP | EPOLLERR)) {
    // Not reading, and the peer is gone (or our side was shut down by a
    // failed send): nothing left to deliver.
    Release(/*close=*/true);
    return;
  }
  if (events & EPOLLOUT) Flush();
}

void Connection::OnConnected() {
  int err = 0;
  socklen_t err_len = sizeof(err);
  if (::getsockopt(fd_, SOL_SOCKET, SO_ERROR, &err, &err_len) != 0 ||
      err != 0) {
    LogDebug(StrFormat("serve: connect failed: %s", std::strerror(err)));
    Release(/*close=*/true);
    return;
  }
  loop_->CancelTimer(connect_timer_);
  connect_timer_ = 0;
  bool pending;
  {
    std::lock_guard<std::mutex> lock(out_mu_);
    connecting_ = false;
    pending = out_off_ < out_.size();
  }
  UpdateInterest();
  if (pending) Flush();
}

void Connection::ReadAvailable() {
  bool eof = false;
  char chunk[kReadChunk];
  for (int i = 0; i < kReadsPerEvent; ++i) {
    const ssize_t n = ::recv(fd_, chunk, sizeof(chunk), 0);
    if (n > 0) {
      in_.append(chunk, static_cast<size_t>(n));
      if (static_cast<size_t>(n) < sizeof(chunk)) break;
      continue;
    }
    if (n == 0) {
      eof = true;
      break;
    }
    if (errno == EINTR) {
      --i;
      continue;
    }
    if (errno == EAGAIN || errno == EWOULDBLOCK) break;
    Release(/*close=*/true);
    return;
  }
  DispatchLines();
  if (watch_ == 0) return;
  if (!paused_ && in_.size() - in_off_ > kMaxLineBytes) {
    // Everything complete was dispatched, so this is one unterminated
    // line, already longer than any request may be.
    LogWarning("serve: dropping connection with oversized request line");
    Release(/*close=*/true);
    return;
  }
  if (eof) {
    // The peer sent its last request. Answers still owed to it (queued
    // output, or work in flight elsewhere) go out on the open socket.
    reading_ = false;
    DetachWhenFlushed();
  }
}

void Connection::DispatchLines() {
  const std::shared_ptr<Connection> self = shared_from_this();
  while (!paused_ && watch_ != 0) {
    const size_t newline = in_.find('\n', in_off_ + scan_off_);
    if (newline == std::string::npos) {
      scan_off_ = in_.size() - in_off_;
      break;
    }
    const std::string_view line(in_.data() + in_off_, newline - in_off_);
    in_off_ = newline + 1;
    scan_off_ = 0;
    if (!on_line_(*this, line)) {
      Release(/*close=*/true);
      return;
    }
    std::lock_guard<std::mutex> lock(out_mu_);
    // Backpressure: a peer that does not read its answers stops being
    // read until they drain (or the write timeout cuts it off).
    if (out_.size() - out_off_ > kMaxLineBytes) paused_ = true;
  }
  if (in_off_ == in_.size()) {
    in_.clear();
    in_off_ = 0;
  } else if (in_off_ > kReadChunk) {
    in_.erase(0, in_off_);
    in_off_ = 0;
  }
  if (paused_) UpdateInterest();
}

void Connection::Send(std::string_view line) {
  std::unique_lock<std::mutex> lock(out_mu_);
  if (closed_) return;
  if (out_off_ == out_.size() && !connecting_) {
    const ssize_t n = SendSome(fd_, line.data(), line.size());
    if (n < 0) {
      // Broken peer. Shutting our side down wakes the loop (EPOLLHUP),
      // which releases the connection on its own thread.
      closed_ = true;
      ::shutdown(fd_, SHUT_RDWR);
      return;
    }
    line.remove_prefix(static_cast<size_t>(n));
    if (line.empty()) return;
  }
  if (released_) {
    // No loop left to flush the rest: the peer cannot get a whole answer.
    closed_ = true;
    ::shutdown(fd_, SHUT_RDWR);
    return;
  }
  out_.append(line);
  const bool arm = !flush_armed_;
  flush_armed_ = true;
  lock.unlock();
  if (!arm) return;
  if (loop_->InLoopThread()) {
    ArmFlush();
  } else if (!loop_->Post([self = shared_from_this()] { self->ArmFlush(); })) {
    std::lock_guard<std::mutex> relock(out_mu_);
    closed_ = true;
    ::shutdown(fd_, SHUT_RDWR);
  }
}

void Connection::ArmFlush() {
  if (watch_ == 0) return;
  {
    std::lock_guard<std::mutex> lock(out_mu_);
    if (out_off_ == out_.size()) {
      flush_armed_ = false;
      return;
    }
  }
  UpdateInterest();
  if (write_timer_ == 0) {
    write_timer_ = loop_->AddTimer(
        EventLoop::Clock::now() + std::chrono::milliseconds(write_timeout_ms_),
        [self = shared_from_this()] {
          // The output buffer did not drain in write_timeout_ms: the peer
          // stopped reading. Cut it off rather than hold its answers.
          self->write_timer_ = 0;
          IPIN_COUNTER_ADD("serve.write.timeouts", 1);
          self->Release(/*close=*/true);
        });
  }
}

void Connection::Flush() {
  bool drained = false;
  bool broken = false;
  size_t queued;
  {
    std::lock_guard<std::mutex> lock(out_mu_);
    if (connecting_ || closed_) return;
    const ssize_t n =
        SendSome(fd_, out_.data() + out_off_, out_.size() - out_off_);
    if (n < 0) {
      broken = true;
      closed_ = true;
    } else {
      out_off_ += static_cast<size_t>(n);
      if (out_off_ == out_.size()) {
        out_.clear();
        out_off_ = 0;
        flush_armed_ = false;
        drained = true;
      } else if (out_off_ > kMaxLineBytes) {
        out_.erase(0, out_off_);
        out_off_ = 0;
      }
    }
    queued = out_.size() - out_off_;
  }
  if (broken) {
    Release(/*close=*/true);
    return;
  }
  if (drained) {
    loop_->CancelTimer(write_timer_);
    write_timer_ = 0;
    if (detach_when_flushed_) {
      Release(/*close=*/false);
      return;
    }
  }
  if (paused_ && queued <= kMaxLineBytes) {
    paused_ = false;
    DispatchLines();
    if (watch_ == 0) return;
  }
  UpdateInterest();
}

void Connection::UpdateInterest() {
  if (watch_ == 0) return;
  uint32_t want = 0;
  {
    std::lock_guard<std::mutex> lock(out_mu_);
    if (connecting_) {
      want = EPOLLOUT;
    } else {
      if (reading_ && !paused_) want |= EPOLLIN;
      if (flush_armed_) want |= EPOLLOUT;
    }
  }
  if (want != interest_) {
    loop_->Modify(watch_, fd_, want);
    interest_ = want;
  }
}

void Connection::StopReading() {
  if (watch_ == 0 || !reading_) return;
  ReadAvailable();
  if (watch_ == 0) return;
  reading_ = false;
  UpdateInterest();
}

void Connection::DetachWhenFlushed() {
  if (watch_ == 0) return;
  reading_ = false;
  bool empty;
  {
    std::lock_guard<std::mutex> lock(out_mu_);
    empty = out_off_ == out_.size();
  }
  if (empty) {
    Release(/*close=*/false);
    return;
  }
  detach_when_flushed_ = true;
  UpdateInterest();
}

void Connection::Release(bool close) {
  if (watch_ == 0) return;
  {
    std::lock_guard<std::mutex> lock(out_mu_);
    released_ = true;
    if (close && !closed_) {
      closed_ = true;
      ::shutdown(fd_, SHUT_RDWR);
    }
  }
  loop_->Unwatch(watch_, fd_);
  watch_ = 0;
  loop_->CancelTimer(write_timer_);
  loop_->CancelTimer(connect_timer_);
  write_timer_ = connect_timer_ = 0;
  reading_ = false;
  in_.clear();
  in_off_ = scan_off_ = 0;
  if (on_release_) {
    const ReleaseHandler handler = std::move(on_release_);
    on_release_ = nullptr;
    handler(*this);
  }
}

// -------------------------------------------------------------- EventServer

EventServer::EventServer(EventServerOptions options, LineHandler on_line)
    : options_(std::move(options)), on_line_(std::move(on_line)) {}

EventServer::~EventServer() { Stop(); }

bool EventServer::Listen() {
  const char* tag = options_.log_tag.c_str();
  const bool unix_mode = !options_.unix_socket_path.empty();
  if (unix_mode == (options_.tcp_port >= 0)) {
    LogError(StrFormat("%s: set exactly one of unix_socket_path / tcp_port",
                       tag));
    return false;
  }
  sockaddr_storage addr{};
  socklen_t len;
  if (unix_mode) {
    auto* un = reinterpret_cast<sockaddr_un*>(&addr);
    if (options_.unix_socket_path.size() >= sizeof(un->sun_path)) {
      LogError(StrFormat("%s: socket path too long: %s", tag,
                         options_.unix_socket_path.c_str()));
      return false;
    }
    un->sun_family = AF_UNIX;
    std::strncpy(un->sun_path, options_.unix_socket_path.c_str(),
                 sizeof(un->sun_path) - 1);
    len = sizeof(sockaddr_un);
  } else {
    auto* in = reinterpret_cast<sockaddr_in*>(&addr);
    in->sin_family = AF_INET;
    in->sin_addr.s_addr = htonl(INADDR_LOOPBACK);
    in->sin_port = htons(static_cast<uint16_t>(options_.tcp_port));
    len = sizeof(sockaddr_in);
  }
  listen_fd_ = ::socket(unix_mode ? AF_UNIX : AF_INET,
                        SOCK_STREAM | SOCK_NONBLOCK | SOCK_CLOEXEC, 0);
  if (listen_fd_ < 0) {
    LogError(StrFormat("%s: socket(): %s", tag, std::strerror(errno)));
    return false;
  }
  if (unix_mode) {
    ::unlink(options_.unix_socket_path.c_str());  // stale socket from a crash
  } else {
    const int one = 1;
    ::setsockopt(listen_fd_, SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));
  }
  const std::string where =
      unix_mode ? options_.unix_socket_path
                : StrFormat("127.0.0.1:%d", options_.tcp_port);
  if (::bind(listen_fd_, reinterpret_cast<sockaddr*>(&addr), len) != 0 ||
      ::listen(listen_fd_, 128) != 0) {
    LogError(StrFormat("%s: bind/listen(%s): %s", tag, where.c_str(),
                       std::strerror(errno)));
    ::close(listen_fd_);
    listen_fd_ = -1;
    return false;
  }
  if (!unix_mode) {
    sockaddr_in bound{};
    socklen_t bound_len = sizeof(bound);
    if (::getsockname(listen_fd_, reinterpret_cast<sockaddr*>(&bound),
                      &bound_len) == 0) {
      bound_port_ = ntohs(bound.sin_port);
    }
  }
  return true;
}

bool EventServer::Start() {
  if (!Listen()) return false;
  const size_t n = static_cast<size_t>(std::max(1, options_.num_loops));
  conns_.resize(n);
  for (size_t i = 0; i < n; ++i) {
    loops_.push_back(std::make_shared<EventLoop>(i));
    if (!loops_.back()->Start()) {
      Stop();
      return false;
    }
  }
  loops_[0]->RunSync([this] {
    listen_watch_ = loops_[0]->Watch(listen_fd_, EPOLLIN,
                                     [this](uint32_t) { OnAcceptable(); });
  });
  return true;
}

void EventServer::OnAcceptable() {
  for (;;) {
    const int fd =
        ::accept4(listen_fd_, nullptr, nullptr, SOCK_NONBLOCK | SOCK_CLOEXEC);
    if (fd < 0) {
      if (errno == EINTR || errno == ECONNABORTED) continue;
      if (errno == EAGAIN || errno == EWOULDBLOCK) return;
      // Out of descriptors or memory: the listener stays readable, so
      // pause it briefly instead of spinning on the same failure.
      LogWarning(StrFormat("%s: accept(): %s", options_.log_tag.c_str(),
                           std::strerror(errno)));
      loops_[0]->Modify(listen_watch_, listen_fd_, 0);
      loops_[0]->AddTimer(
          EventLoop::Clock::now() + std::chrono::milliseconds(100), [this] {
            if (listen_fd_ >= 0) {
              loops_[0]->Modify(listen_watch_, listen_fd_, EPOLLIN);
            }
          });
      return;
    }
    if (IPIN_FAILPOINT("serve.accept").fail) {
      // Injected accept failure: the kernel handed us the connection but
      // the server "could not" take it — clients see a reset and retry.
      IPIN_COUNTER_ADD("serve.accept.failures", 1);
      ::close(fd);
      continue;
    }
    if (active_.load(std::memory_order_relaxed) >= options_.max_connections) {
      Response reject;
      reject.status = StatusCode::kOverloaded;
      reject.retry_after_ms = options_.retry_after_ms;
      reject.error = "connection limit reached";
      IPIN_COUNTER_ADD("serve.requests.shed", 1);
      const std::string line = SerializeResponse(reject);
      SendSome(fd, line.data(), line.size());
      ::close(fd);
      continue;
    }
    [[maybe_unused]] const size_t active =
        active_.fetch_add(1, std::memory_order_relaxed) + 1;
    IPIN_GAUGE_SET("serve.connections.active", active);
    const size_t target = next_loop_++ % loops_.size();
    if (target == 0) {
      Adopt(0, fd);
    } else if (!loops_[target]->Post([this, target, fd] { Adopt(target, fd); })) {
      ::close(fd);
      active_.fetch_sub(1, std::memory_order_relaxed);
    }
  }
}

void EventServer::Adopt(size_t loop, int fd) {
  conns_[loop].insert(Connection::Adopt(
      fd, loops_[loop], options_.write_timeout_ms,
      [this](Connection& conn, std::string_view line) {
        if (IPIN_FAILPOINT("serve.read").fail) {
          // Injected read fault: the bytes arrived but the server treats
          // the connection as unreadable, as a torn stream would look.
          IPIN_COUNTER_ADD("serve.read.failures", 1);
          return false;
        }
        if (!line.empty()) on_line_(conn.shared_from_this(), line);
        return true;
      },
      [this, loop](Connection& conn) { OnReleased(loop, conn); }));
}

void EventServer::OnReleased(size_t loop, Connection& conn) {
  conns_[loop].erase(conn.shared_from_this());
  [[maybe_unused]] const size_t active =
      active_.fetch_sub(1, std::memory_order_relaxed) - 1;
  IPIN_GAUGE_SET("serve.connections.active", active);
  {
    std::lock_guard<std::mutex> lock(released_mu_);
  }
  released_cv_.notify_all();
}

void EventServer::StopAccepting() {
  if (listen_fd_ < 0) return;
  if (listen_watch_ != 0) {
    loops_[0]->RunSync([this] { loops_[0]->Unwatch(listen_watch_, listen_fd_); });
    listen_watch_ = 0;
  }
  ::close(listen_fd_);
  listen_fd_ = -1;
  if (!options_.unix_socket_path.empty()) {
    ::unlink(options_.unix_socket_path.c_str());
  }
}

void EventServer::StopReading() {
  for (size_t i = 0; i < loops_.size(); ++i) {
    loops_[i]->RunSync([this, i] {
      const auto conns = conns_[i];  // StopReading may release (erase)
      for (const auto& conn : conns) conn->StopReading();
    });
  }
}

void EventServer::Stop() {
  if (stopped_) return;
  stopped_ = true;
  StopAccepting();
  for (size_t i = 0; i < loops_.size(); ++i) {
    loops_[i]->RunSync([this, i] {
      const auto conns = conns_[i];
      for (const auto& conn : conns) conn->DetachWhenFlushed();
    });
  }
  {
    // Every connection still holding output has a write timer armed, so
    // this wait is bounded by write_timeout_ms; the slack covers timer
    // rounding.
    std::unique_lock<std::mutex> lock(released_mu_);
    released_cv_.wait_for(
        lock, std::chrono::milliseconds(options_.write_timeout_ms + 200),
        [this] { return active_.load(std::memory_order_relaxed) == 0; });
  }
  for (const auto& loop : loops_) loop->Stop();
  conns_.clear();
}

}  // namespace ipin::serve
