#ifndef IPIN_SERVE_QUEUE_H_
#define IPIN_SERVE_QUEUE_H_

#include <condition_variable>
#include <deque>
#include <mutex>
#include <optional>
#include <utility>

// Bounded MPMC request queue — the admission-control point of the serving
// layer. Producers (event loops) use the non-blocking TryPush and
// turn a rejection into an OVERLOADED response (load shedding); consumers
// (workers) block in Pop. The queue never grows past its capacity, so the
// serve.queue.depth gauge is bounded by construction.
//
// Lifecycle: Open -> Drain (pushes rejected, pops keep emptying the
// backlog) -> Pop returns nullopt once the backlog is empty. Reopen() is for
// tests only.

namespace ipin::serve {

template <typename T>
class BoundedQueue {
 public:
  explicit BoundedQueue(size_t capacity) : capacity_(capacity) {}

  BoundedQueue(const BoundedQueue&) = delete;
  BoundedQueue& operator=(const BoundedQueue&) = delete;

  /// Enqueues unless the queue is full or draining. Never blocks.
  bool TryPush(T item) {
    {
      std::lock_guard<std::mutex> lock(mu_);
      if (draining_ || items_.size() >= capacity_) return false;
      items_.push_back(std::move(item));
    }
    ready_.notify_one();
    return true;
  }

  /// Blocks until an item is available or the queue is draining and empty
  /// (then nullopt — the consumer's signal to exit).
  std::optional<T> Pop() {
    std::unique_lock<std::mutex> lock(mu_);
    ready_.wait(lock, [this] { return draining_ || !items_.empty(); });
    if (items_.empty()) return std::nullopt;
    T item = std::move(items_.front());
    items_.pop_front();
    return item;
  }

  /// Non-blocking Pop: nullopt when nothing is queued right now.
  std::optional<T> TryPop() {
    std::lock_guard<std::mutex> lock(mu_);
    if (items_.empty()) return std::nullopt;
    T item = std::move(items_.front());
    items_.pop_front();
    return item;
  }

  /// Rejects all future pushes; consumers drain the backlog, then see
  /// nullopt from Pop.
  void Drain() {
    {
      std::lock_guard<std::mutex> lock(mu_);
      draining_ = true;
    }
    ready_.notify_all();
  }

  /// Tests only: undo Drain.
  void Reopen() {
    std::lock_guard<std::mutex> lock(mu_);
    draining_ = false;
  }

  size_t Depth() const {
    std::lock_guard<std::mutex> lock(mu_);
    return items_.size();
  }

  size_t capacity() const { return capacity_; }

  bool draining() const {
    std::lock_guard<std::mutex> lock(mu_);
    return draining_;
  }

 private:
  const size_t capacity_;
  mutable std::mutex mu_;
  std::condition_variable ready_;
  std::deque<T> items_;
  bool draining_ = false;
};

}  // namespace ipin::serve

#endif  // IPIN_SERVE_QUEUE_H_
