#ifndef IPIN_SERVE_EVENT_LOOP_H_
#define IPIN_SERVE_EVENT_LOOP_H_

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <string_view>
#include <thread>
#include <unordered_map>
#include <unordered_set>
#include <vector>

// The serving data plane that OracleServer and RouterServer both run on
// (DESIGN.md §9): a few epoll loops, one thread each, owning nonblocking,
// newline-framed connections.
//
//   * EventLoop. One thread blocked in epoll_wait, with a timeout set by
//     its nearest timer (never a busy poll). Other threads hand it work
//     with Post(), which wakes it through an eventfd. Everything a loop
//     owns (its watched fds, timers and connections' read state) is
//     touched only on its own thread.
//   * Connection. A nonblocking stream socket with line framing on the
//     read side (a line over kMaxLineBytes drops the connection) and a
//     bounded output buffer on the write side. Send() is callable from any
//     thread: it writes straight to the socket when nothing is queued and
//     buffers the rest for the loop to flush on EPOLLOUT. A buffer that
//     has not drained within write_timeout_ms of filling is a peer that
//     stopped reading: the connection is torn down. While more than
//     kMaxLineBytes wait to be sent, the loop stops reading the
//     connection's requests (backpressure).
//   * EventServer. The listening socket plus num_loops loops. Loop 0
//     accepts and hands each new connection to the next loop round-robin;
//     connections over max_connections are answered OVERLOADED and closed.
//     Shutdown runs in three steps: stop accepting, stop reading (the
//     requests already received are still dispatched), then flush every
//     output buffer (bounded by write_timeout_ms) and join the loops.
//
// Failpoint sites: serve.accept (drop a fresh connection), serve.read (a
// request line arrived but the connection is treated as torn).

namespace ipin::serve {

/// A protocol line longer than this is abuse, not a request. It also
/// bounds a connection's output buffer (see Connection).
inline constexpr size_t kMaxLineBytes = 1 << 20;

class EventLoop {
 public:
  using Clock = std::chrono::steady_clock;
  using Task = std::function<void()>;
  /// Receives the epoll event mask of a watched fd.
  using EventHandler = std::function<void(uint32_t events)>;
  using TimerId = uint64_t;

  explicit EventLoop(size_t index);
  ~EventLoop();

  EventLoop(const EventLoop&) = delete;
  EventLoop& operator=(const EventLoop&) = delete;

  /// Creates the epoll set and spawns the loop thread.
  bool Start();
  /// Stops after the current iteration, joins the thread and drops every
  /// watch and timer (releasing what their handlers hold). Idempotent; not
  /// callable from the loop thread.
  void Stop();

  /// Runs `task` on the loop thread. False (task dropped) once stopped.
  /// Thread-safe.
  bool Post(Task task);
  /// Post and wait for the task to finish. From any thread but this
  /// loop's; returns at once if the loop has stopped.
  void RunSync(Task task);

  // Loop thread only.

  /// Registers `fd` for `events`; the handler (and what it captures) is
  /// kept until Unwatch. Returns the watch id.
  uint64_t Watch(int fd, uint32_t events, EventHandler handler);
  void Modify(uint64_t watch, int fd, uint32_t events);
  /// Deregisters; the handler is destroyed after the current batch of
  /// events, so a handler may unwatch itself.
  void Unwatch(uint64_t watch, int fd);

  /// One-shot timer. Ids are never reused, so cancelling a timer that
  /// already fired is a no-op.
  TimerId AddTimer(Clock::time_point when, Task task);
  void CancelTimer(TimerId id);

  bool InLoopThread() const {
    return std::this_thread::get_id() == thread_id_.load();
  }
  size_t index() const { return index_; }

 private:
  void Run();
  int TimeoutMs() const;
  void RunDueTimers();
  void RunTasks();

  const size_t index_;
  int epoll_fd_ = -1;
  int wake_fd_ = -1;
  std::thread thread_;
  std::atomic<std::thread::id> thread_id_{};

  std::mutex mu_;
  std::vector<Task> tasks_;
  bool wake_pending_ = false;
  bool stopped_ = false;
  std::atomic<bool> stop_{false};

  // Loop-thread state.
  // Boxed so a handler's address survives its own Unwatch.
  std::unordered_map<uint64_t, std::unique_ptr<EventHandler>> watches_;
  std::vector<std::unique_ptr<EventHandler>> retired_;
  uint64_t next_watch_ = 1;
  std::multimap<Clock::time_point, std::pair<TimerId, Task>> timers_;
  std::unordered_map<TimerId,
                     std::multimap<Clock::time_point,
                                   std::pair<TimerId, Task>>::iterator>
      timer_index_;
  TimerId next_timer_ = 1;
};

class Connection : public std::enable_shared_from_this<Connection> {
 public:
  /// Called on the loop thread for every complete line (without its '\n').
  /// Returning false drops the connection.
  using LineHandler = std::function<bool(Connection&, std::string_view)>;
  /// Called on the loop thread once, when the loop lets go of the
  /// connection (closed, or detached after the peer stopped sending).
  using ReleaseHandler = std::function<void(Connection&)>;

  /// Adopts a connected nonblocking socket and starts reading it. Loop
  /// thread only.
  static std::shared_ptr<Connection> Adopt(int fd,
                                           std::shared_ptr<EventLoop> loop,
                                           int64_t write_timeout_ms,
                                           LineHandler on_line,
                                           ReleaseHandler on_release);

  /// Dials a Unix-domain socket (`unix_socket_path` non-empty) or
  /// host:port without blocking. A dial that cannot complete at once is
  /// given connect_timeout_ms; lines sent meanwhile are queued. nullptr
  /// (with `error` set) on an immediate failure. Loop thread only.
  static std::shared_ptr<Connection> Dial(
      const std::string& unix_socket_path, const std::string& tcp_host,
      int tcp_port, int64_t connect_timeout_ms, int64_t write_timeout_ms,
      std::shared_ptr<EventLoop> loop, LineHandler on_line,
      ReleaseHandler on_release, std::string* error);

  ~Connection();

  Connection(const Connection&) = delete;
  Connection& operator=(const Connection&) = delete;

  /// Queues one serialized line (with its '\n'). Thread-safe; a line sent
  /// to a closed connection is dropped. Once the loop has let go of the
  /// connection, a line goes out only if the socket takes it whole.
  void Send(std::string_view line);

  // Loop thread only.

  /// Dispatches the lines already received (draining the socket once
  /// more), then reads no further.
  void StopReading();
  /// Lets go of the connection once its output buffer is flushed (or the
  /// write timeout cuts it off). The socket stays open while anyone else
  /// holds the connection, so a late Send still reaches the peer.
  void DetachWhenFlushed();

  EventLoop& loop() const { return *loop_; }
  bool closed() const;

 private:
  Connection(int fd, std::shared_ptr<EventLoop> loop, int64_t write_timeout_ms,
             LineHandler on_line, ReleaseHandler on_release);

  void Register(bool connecting, int64_t connect_timeout_ms);
  void OnEvents(uint32_t events);
  void OnConnected();
  void ReadAvailable();
  void DispatchLines();
  void Flush();
  void ArmFlush();
  void UpdateInterest();
  void Release(bool close);

  const int fd_;
  const std::shared_ptr<EventLoop> loop_;
  const int64_t write_timeout_ms_;
  LineHandler on_line_;
  ReleaseHandler on_release_;

  // Output side, shared with sending threads.
  mutable std::mutex out_mu_;
  std::string out_;
  size_t out_off_ = 0;
  bool flush_armed_ = false;   // the loop watches EPOLLOUT for out_
  bool closed_ = false;        // torn down: drop further sends
  bool released_ = false;      // the loop let go; sends go direct
  bool connecting_ = false;    // dial in progress: hold sends

  // Loop-thread state.
  uint64_t watch_ = 0;
  uint32_t interest_ = 0;
  std::string in_;
  size_t in_off_ = 0;   // start of the first undispatched line
  size_t scan_off_ = 0; // bytes past in_off_ already searched for '\n'
  bool reading_ = true;
  bool paused_ = false;       // output over kMaxLineBytes: not dispatching
  bool detach_when_flushed_ = false;
  EventLoop::TimerId write_timer_ = 0;
  EventLoop::TimerId connect_timer_ = 0;
};

struct EventServerOptions {
  /// Exactly one endpoint: a Unix-domain socket path, or a TCP port on
  /// 127.0.0.1 (0 = ephemeral; see bound_port()).
  std::string unix_socket_path;
  int tcp_port = -1;
  int num_loops = 4;
  size_t max_connections = 64;
  int64_t write_timeout_ms = 2000;
  /// Backoff hint of the OVERLOADED answer to a connection over the limit.
  int64_t retry_after_ms = 50;
  /// Log prefix ("serve", "route").
  std::string log_tag = "serve";
};

class EventServer {
 public:
  /// Called on the connection's loop thread for every non-empty request
  /// line.
  using LineHandler = std::function<void(const std::shared_ptr<Connection>&,
                                         std::string_view line)>;

  EventServer(EventServerOptions options, LineHandler on_line);
  ~EventServer();

  EventServer(const EventServer&) = delete;
  EventServer& operator=(const EventServer&) = delete;

  /// Binds, listens and starts the loops. False (logged) on failure.
  bool Start();

  /// Shutdown, step 1: closes the listener (and unlinks its socket).
  void StopAccepting();
  /// Step 2: every connection dispatches what it already received, then
  /// reads nothing more.
  void StopReading();
  /// Step 3: flushes and releases every connection (bounded by
  /// write_timeout_ms), then stops the loops. Idempotent.
  void Stop();

  int bound_port() const { return bound_port_; }
  size_t active_connections() const {
    return active_.load(std::memory_order_relaxed);
  }
  size_t num_loops() const { return loops_.size(); }
  const std::shared_ptr<EventLoop>& loop(size_t i) const { return loops_[i]; }

 private:
  bool Listen();
  void OnAcceptable();
  void Adopt(size_t loop, int fd);
  void OnReleased(size_t loop, Connection& conn);

  const EventServerOptions options_;
  const LineHandler on_line_;
  int listen_fd_ = -1;
  int bound_port_ = -1;
  uint64_t listen_watch_ = 0;
  size_t next_loop_ = 0;  // loop 0's thread only
  std::vector<std::shared_ptr<EventLoop>> loops_;
  // Per loop, the accepted connections it owns (that loop's thread only).
  std::vector<std::unordered_set<std::shared_ptr<Connection>>> conns_;
  std::atomic<size_t> active_{0};
  std::mutex released_mu_;
  std::condition_variable released_cv_;
  bool stopped_ = false;
};

}  // namespace ipin::serve

#endif  // IPIN_SERVE_EVENT_LOOP_H_
