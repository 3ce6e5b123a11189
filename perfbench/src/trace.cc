#include "trace.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <map>

#include "stats.h"

namespace perfbench {

uint64_t SpanRecorder::Begin(const char* layer, uint64_t parent,
                             uint64_t request) {
  if (!enabled_) return 0;
  Span span;
  span.layer = layer;
  span.id = spans_.size() + 1;
  span.parent = parent;
  span.request = request;
  span.start_ns = NowNanos();
  spans_.push_back(std::move(span));
  return spans_.back().id;
}

void SpanRecorder::End(uint64_t id) {
  if (!enabled_ || id == 0) return;
  spans_[id - 1].end_ns = NowNanos();
}

uint64_t SpanRecorder::Add(const char* layer, uint64_t parent,
                           uint64_t request, int64_t start_ns,
                           int64_t end_ns) {
  if (!enabled_) return 0;
  Span span;
  span.layer = layer;
  span.id = spans_.size() + 1;
  span.parent = parent;
  span.request = request;
  span.start_ns = start_ns;
  span.end_ns = end_ns;
  spans_.push_back(std::move(span));
  return spans_.back().id;
}

int64_t CoveredNanos(std::vector<std::pair<int64_t, int64_t>> intervals,
                     int64_t lo, int64_t hi) {
  std::sort(intervals.begin(), intervals.end());
  int64_t covered = 0;
  int64_t cursor = lo;
  for (auto [start, end] : intervals) {
    start = std::max(start, cursor);
    end = std::min(end, hi);
    if (end > start) {
      covered += end - start;
      cursor = end;
    }
  }
  return covered;
}

std::vector<std::pair<std::string, double>> SpanRecorder::SelfSeconds() const {
  std::vector<std::vector<std::pair<int64_t, int64_t>>> children(spans_.size());
  for (const Span& span : spans_) {
    if (span.parent != 0) {
      children[span.parent - 1].emplace_back(span.start_ns, span.end_ns);
    }
  }
  std::map<std::string, int64_t> self;
  for (size_t i = 0; i < spans_.size(); ++i) {
    const Span& span = spans_[i];
    const int64_t duration = span.end_ns - span.start_ns;
    self[span.layer] +=
        duration - CoveredNanos(children[i], span.start_ns, span.end_ns);
  }
  std::vector<std::pair<std::string, double>> out;
  for (const auto& [layer, ns] : self) {
    out.emplace_back(layer, static_cast<double>(ns) * 1e-9);
  }
  return out;
}

double SpanRecorder::UnattributedSeconds(int64_t phase_start_ns,
                                         int64_t phase_end_ns) const {
  std::vector<std::pair<int64_t, int64_t>> top;
  for (const Span& span : spans_) {
    if (span.parent == 0) top.emplace_back(span.start_ns, span.end_ns);
  }
  const int64_t covered = CoveredNanos(top, phase_start_ns, phase_end_ns);
  return static_cast<double>(phase_end_ns - phase_start_ns - covered) * 1e-9;
}

bool SpanRecorder::WriteChromeTrace(const std::string& path) const {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  const int64_t origin = spans_.empty() ? 0 : spans_.front().start_ns;
  std::fputs("{\"traceEvents\":[", f);
  for (size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    std::fprintf(f,
                 "%s\n{\"name\":\"%s\",\"ph\":\"X\",\"pid\":1,\"tid\":1,"
                 "\"ts\":%.3f,\"dur\":%.3f,\"args\":{\"id\":%llu,"
                 "\"parent\":%llu,\"request\":%llu}}",
                 i == 0 ? "" : ",", s.layer.c_str(),
                 static_cast<double>(s.start_ns - origin) * 1e-3,
                 static_cast<double>(s.end_ns - s.start_ns) * 1e-3,
                 static_cast<unsigned long long>(s.id),
                 static_cast<unsigned long long>(s.parent),
                 static_cast<unsigned long long>(s.request));
  }
  std::fputs("\n]}\n", f);
  return std::fclose(f) == 0;
}

void Report::Set(const std::string& name, double value,
                 const std::string& unit) {
  for (Metric& m : metrics) {
    if (m.name == name) {
      m.value = value;
      m.unit = unit;
      return;
    }
  }
  metrics.push_back({name, value, unit});
}

void Report::Fail(const std::string& reason) {
  correct = false;
  if (failures.size() < 20) failures.push_back(reason);
}

std::string Report::ToJson() const {
  std::string out = "{\"correct\": ";
  out += correct ? "true" : "false";
  char buf[256];
  std::snprintf(buf, sizeof buf, ", \"attempted\": %llu, \"failed\": %llu",
                static_cast<unsigned long long>(attempted),
                static_cast<unsigned long long>(failed));
  out += buf;
  out += ", \"metrics\": {";
  for (size_t i = 0; i < metrics.size(); ++i) {
    const Metric& m = metrics[i];
    // Non-finite values are not JSON; they never come out of a correct run.
    const double value = std::isfinite(m.value) ? m.value : -1.0;
    std::snprintf(buf, sizeof buf, "%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                  i == 0 ? "" : ", ", m.name.c_str(), value, m.unit.c_str());
    out += buf;
  }
  out += "}}";
  return out;
}

}  // namespace perfbench
