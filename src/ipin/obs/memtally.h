#ifndef IPIN_OBS_MEMTALLY_H_
#define IPIN_OBS_MEMTALLY_H_

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

// Measured (allocator-counted) memory accounting per component. Where
// ipin/common/memory.h estimates footprints analytically from container
// shapes, a MemoryTally counts the bytes the component actually requested
// from the allocator: containers on the accounted paths (exact IRS summary
// maps, vHLL cell lists) use the TallyAllocator adaptor below, and explicit
// buffers (oracle index serialization) report through ScopedMemoryCharge.
// PublishMemoryGauges() mirrors every tally into "mem.<component>.bytes" /
// ".peak_bytes" gauges (plus the process RSS) so run reports carry measured
// numbers.
//
// Cost model: two relaxed atomic updates per allocate/deallocate — noise
// next to the allocation itself, so tallies stay active even under
// -DIPIN_OBS_DISABLED (only the hot-path *macros* compile out).

namespace ipin::obs {

/// Byte counter for one component: current outstanding bytes plus the
/// high-water mark. Thread-safe; updates are relaxed atomics.
class MemoryTally {
 public:
  explicit MemoryTally(std::string name) : name_(std::move(name)) {}
  MemoryTally(const MemoryTally&) = delete;
  MemoryTally& operator=(const MemoryTally&) = delete;

  void Add(size_t bytes) {
    const int64_t now = current_.fetch_add(static_cast<int64_t>(bytes),
                                           std::memory_order_relaxed) +
                        static_cast<int64_t>(bytes);
    int64_t peak = peak_.load(std::memory_order_relaxed);
    while (now > peak &&
           !peak_.compare_exchange_weak(peak, now,
                                        std::memory_order_relaxed)) {
    }
  }

  void Sub(size_t bytes) {
    current_.fetch_sub(static_cast<int64_t>(bytes),
                       std::memory_order_relaxed);
  }

  /// Outstanding bytes right now (allocated minus freed).
  int64_t CurrentBytes() const {
    return current_.load(std::memory_order_relaxed);
  }

  /// Highest value CurrentBytes has reached.
  int64_t PeakBytes() const { return peak_.load(std::memory_order_relaxed); }

  /// Re-arms the high-water mark at the current level (between-run resets).
  void ResetPeak() {
    peak_.store(current_.load(std::memory_order_relaxed),
                std::memory_order_relaxed);
  }

  const std::string& name() const { return name_; }

 private:
  const std::string name_;
  std::atomic<int64_t> current_{0};
  std::atomic<int64_t> peak_{0};
};

/// Finds or creates the process-wide tally for `component`. The returned
/// reference is valid for the process lifetime; same name, same tally.
MemoryTally& GetMemoryTally(const std::string& component);

/// Every registered tally, sorted by component name.
std::vector<MemoryTally*> AllMemoryTallies();

/// Mirrors each tally into the metrics registry as the gauges
/// "mem.<component>.bytes" and "mem.<component>.peak_bytes", plus
/// "mem.process.rss_bytes" when the platform exposes it. Call before
/// snapshotting the registry for a run report.
void PublishMemoryGauges();

/// Resident-set size of the current process in bytes (/proc/self/statm);
/// 0 where unavailable.
size_t CurrentRssBytes();

/// Lifetime peak resident-set size in bytes (getrusage ru_maxrss); 0 where
/// unavailable. The run ledger records this as the job's memory high-water
/// mark.
size_t PeakRssBytes();

/// std::allocator adaptor that charges a MemoryTally for every allocation.
/// The tally is named by a function pointer template argument, so the
/// allocator is stateless: all instances compare equal and containers never
/// need allocator propagation. Example:
///
///   obs::MemoryTally& WidgetMemTally();  // { static auto& t = ...; }
///   using WidgetList =
///       std::vector<Widget, obs::TallyAllocator<Widget, &WidgetMemTally>>;
template <typename T, MemoryTally& (*TallyFn)()>
class TallyAllocator {
 public:
  using value_type = T;
  using is_always_equal = std::true_type;

  TallyAllocator() = default;
  template <typename U>
  TallyAllocator(const TallyAllocator<U, TallyFn>&) {}  // NOLINT(runtime/explicit)

  T* allocate(size_t n) {
    TallyFn().Add(n * sizeof(T));
    return std::allocator<T>().allocate(n);
  }

  void deallocate(T* p, size_t n) {
    TallyFn().Sub(n * sizeof(T));
    std::allocator<T>().deallocate(p, n);
  }

  template <typename U>
  struct rebind {
    using other = TallyAllocator<U, TallyFn>;
  };
};

template <typename T, typename U, MemoryTally& (*TallyFn)()>
bool operator==(const TallyAllocator<T, TallyFn>&,
                const TallyAllocator<U, TallyFn>&) {
  return true;
}

template <typename T, typename U, MemoryTally& (*TallyFn)()>
bool operator!=(const TallyAllocator<T, TallyFn>&,
                const TallyAllocator<U, TallyFn>&) {
  return false;
}

/// RAII charge for an explicitly sized buffer (serialization scratch,
/// mapped files): Add on construction, Sub on destruction.
class ScopedMemoryCharge {
 public:
  ScopedMemoryCharge(MemoryTally& tally, size_t bytes)
      : tally_(tally), bytes_(bytes) {
    tally_.Add(bytes_);
  }
  ~ScopedMemoryCharge() { tally_.Sub(bytes_); }
  ScopedMemoryCharge(const ScopedMemoryCharge&) = delete;
  ScopedMemoryCharge& operator=(const ScopedMemoryCharge&) = delete;

  /// Re-sizes the charge (e.g. after a buffer grows).
  void Resize(size_t bytes) {
    if (bytes > bytes_) {
      tally_.Add(bytes - bytes_);
    } else {
      tally_.Sub(bytes_ - bytes);
    }
    bytes_ = bytes;
  }

 private:
  MemoryTally& tally_;
  size_t bytes_;
};

}  // namespace ipin::obs

#endif  // IPIN_OBS_MEMTALLY_H_
