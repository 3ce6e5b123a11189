#ifndef IPIN_GRAPH_TYPES_H_
#define IPIN_GRAPH_TYPES_H_

#include <cstdint>
#include <tuple>

namespace ipin {

/// Node identifier; nodes are dense integers [0, num_nodes).
using NodeId = uint32_t;

/// Timestamp of an interaction. The paper models timestamps as natural
/// numbers; we use a signed 64-bit value so that subtraction is safe and
/// sentinel values (kNoTimestamp) are representable.
using Timestamp = int64_t;

/// Maximal channel duration (the paper's omega), in timestamp units.
using Duration = int64_t;

/// Interaction timestamps the library accepts: |t| < 2^55. The vHLL sketches
/// store times in a 56-bit field and some analyses negate timestamps, so the
/// range is symmetric. It holds Unix time in seconds, milliseconds or
/// microseconds, but not in nanoseconds.
inline constexpr Timestamp kMaxInteractionTime = (Timestamp{1} << 55) - 1;
inline constexpr Timestamp kMinInteractionTime = -kMaxInteractionTime;

/// True when `t` lies in [kMinInteractionTime, kMaxInteractionTime].
inline constexpr bool IsValidInteractionTime(Timestamp t) {
  return t >= kMinInteractionTime && t <= kMaxInteractionTime;
}

/// Sentinel for "no timestamp" (used e.g. for never-activated nodes).
inline constexpr Timestamp kNoTimestamp = INT64_MIN;

/// Invalid node sentinel.
inline constexpr NodeId kInvalidNode = 0xffffffffu;

/// One directed, timestamped interaction (u, v, t): u contacted v at time t.
struct Interaction {
  NodeId src = 0;
  NodeId dst = 0;
  Timestamp time = 0;

  friend bool operator==(const Interaction& a, const Interaction& b) {
    return a.src == b.src && a.dst == b.dst && a.time == b.time;
  }

  /// Orders by (time, src, dst) — the canonical scan order.
  friend bool operator<(const Interaction& a, const Interaction& b) {
    return std::tie(a.time, a.src, a.dst) < std::tie(b.time, b.src, b.dst);
  }
};

}  // namespace ipin

#endif  // IPIN_GRAPH_TYPES_H_
