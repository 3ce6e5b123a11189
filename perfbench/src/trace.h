#ifndef PERFBENCH_TRACE_H_
#define PERFBENCH_TRACE_H_

// In-memory spans recorded by the benchmark around its calls into each
// layer, and the result document every run prints.
//
// Spans carry a layer name, their parent span and the request they belong
// to. A layer's self time is its spans' durations minus the parts their
// child spans cover; whatever part of the timed phase no top-level span
// covers is reported as "unattributed". Spans are recorded from one thread.

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

namespace perfbench {

struct Span {
  std::string layer;
  uint64_t id = 0;
  uint64_t parent = 0;   // 0 = top level
  uint64_t request = 0;  // 0 = not part of a request
  int64_t start_ns = 0;
  int64_t end_ns = 0;
};

class SpanRecorder {
 public:
  explicit SpanRecorder(bool enabled) : enabled_(enabled) {}

  bool enabled() const { return enabled_; }

  /// Opens a span; returns its id (0 when recording is off).
  uint64_t Begin(const char* layer, uint64_t parent = 0, uint64_t request = 0);
  void End(uint64_t id);

  /// Records a finished span with known bounds (e.g. a duration the program
  /// published, placed at the start of its parent).
  uint64_t Add(const char* layer, uint64_t parent, uint64_t request,
               int64_t start_ns, int64_t end_ns);

  const std::vector<Span>& spans() const { return spans_; }

  /// Self seconds per layer, sorted by layer name.
  std::vector<std::pair<std::string, double>> SelfSeconds() const;

  /// Seconds of [phase_start_ns, phase_end_ns) covered by no top-level span.
  double UnattributedSeconds(int64_t phase_start_ns, int64_t phase_end_ns) const;

  /// Writes the spans as a Chrome trace-event JSON document.
  bool WriteChromeTrace(const std::string& path) const;

 private:
  bool enabled_;
  std::vector<Span> spans_;
};

/// RAII wrapper around Begin/End.
class ScopedSpan {
 public:
  ScopedSpan(SpanRecorder* recorder, const char* layer, uint64_t parent = 0,
             uint64_t request = 0)
      : recorder_(recorder), id_(recorder->Begin(layer, parent, request)) {}
  ~ScopedSpan() { recorder_->End(id_); }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;
  uint64_t id() const { return id_; }

 private:
  SpanRecorder* recorder_;
  uint64_t id_;
};

/// Total length of the union of [start, end) intervals, clipped to
/// [lo, hi).
int64_t CoveredNanos(std::vector<std::pair<int64_t, int64_t>> intervals,
                     int64_t lo, int64_t hi);

/// The run's result: the metrics it prints and the work it counted.
struct Report {
  struct Metric {
    std::string name;
    double value = 0.0;
    std::string unit;
  };
  bool correct = true;
  uint64_t attempted = 0;
  uint64_t failed = 0;
  std::vector<Metric> metrics;
  /// Reasons for correct == false, printed before the result line.
  std::vector<std::string> failures;

  void Set(const std::string& name, double value, const std::string& unit);
  void Fail(const std::string& reason);
  /// The one-line JSON result document.
  std::string ToJson() const;
};

}  // namespace perfbench

#endif  // PERFBENCH_TRACE_H_
