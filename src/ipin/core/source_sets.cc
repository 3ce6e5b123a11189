#include "ipin/core/source_sets.h"

#include <algorithm>

#include "ipin/common/check.h"
#include "ipin/common/memory.h"
#include "ipin/sketch/kernels.h"

namespace ipin {

SourceSetExact::SourceSetExact(size_t num_nodes, Duration window)
    : window_(window), last_time_(0), summaries_(num_nodes) {
  IPIN_CHECK_GE(window, 1);
}

SourceSetExact SourceSetExact::Compute(const InteractionGraph& graph,
                                       Duration window) {
  IPIN_CHECK(graph.is_sorted());
  SourceSetExact sets(graph.num_nodes(), window);
  for (const Interaction& e : graph.interactions()) {
    sets.ProcessInteraction(e);
  }
  return sets;
}

void SourceSetExact::Add(NodeId v, NodeId x, Timestamp start) {
  if (v == x) return;  // mirror of IrsExact: no self-membership
  auto [it, inserted] = summaries_[v].emplace(x, start);
  if (!inserted && it->second < start) it->second = start;  // keep latest
}

void SourceSetExact::ProcessInteraction(const Interaction& interaction) {
  const auto [u, v, t] = interaction;
  IPIN_CHECK_LT(u, summaries_.size());
  IPIN_CHECK_LT(v, summaries_.size());
  if (saw_interaction_) {
    IPIN_CHECK_GE(t, last_time_);  // arrival (ascending) order required
  }
  last_time_ = t;
  saw_interaction_ = true;

  // The single-interaction channel u -> v starts at t.
  Add(v, u, t);

  // Channels x -> u with latest start s extend across this edge while the
  // total duration t - s + 1 stays within the window.
  if (u == v) return;
  for (const auto& [x, sx] : summaries_[u]) {
    if (t - sx < window_) Add(v, x, sx);
  }
}

std::vector<NodeId> SourceSetExact::SourceSet(NodeId v) const {
  std::vector<NodeId> nodes;
  nodes.reserve(summaries_[v].size());
  for (const auto& [x, s] : summaries_[v]) {
    (void)s;
    nodes.push_back(x);
  }
  std::sort(nodes.begin(), nodes.end());
  return nodes;
}

size_t SourceSetExact::UnionSize(std::span<const NodeId> targets) const {
  std::unordered_map<NodeId, char> seen;
  for (const NodeId v : targets) {
    IPIN_CHECK_LT(v, summaries_.size());
    for (const auto& [x, s] : summaries_[v]) {
      (void)s;
      seen.emplace(x, 1);
    }
  }
  return seen.size();
}

size_t SourceSetExact::TotalSummaryEntries() const {
  size_t total = 0;
  for (const auto& summary : summaries_) total += summary.size();
  return total;
}

size_t SourceSetExact::MemoryUsageBytes() const {
  size_t bytes = summaries_.capacity() * sizeof(IrsSummaryMap);
  for (const auto& summary : summaries_) {
    bytes += HashMapBytes(summary.size(), summary.bucket_count(),
                          sizeof(NodeId) + sizeof(Timestamp));
  }
  return bytes;
}

SourceSetApprox::SourceSetApprox(size_t num_nodes, Duration window,
                                 const IrsApproxOptions& options)
    : window_(window),
      options_(options),
      num_nodes_(num_nodes),
      sketches_(num_nodes) {
  IPIN_CHECK_GE(window, 1);
}

SourceSetApprox SourceSetApprox::Compute(const InteractionGraph& graph,
                                         Duration window,
                                         const IrsApproxOptions& options) {
  IPIN_CHECK(graph.is_sorted());
  SourceSetApprox sets(graph.num_nodes(), window, options);
  for (const Interaction& e : graph.interactions()) {
    sets.ProcessInteraction(e);
  }
  sets.Seal();
  return sets;
}

void SourceSetApprox::Seal() {
  if (sealed_) return;
  arena_ = std::make_unique<SketchArena>(options_.precision, options_.salt,
                                         std::span(sketches_));
  sealed_ = true;
  sketches_.clear();
  sketches_.shrink_to_fit();
}

VersionedHll* SourceSetApprox::MutableSketch(NodeId v) {
  if (sketches_[v] == nullptr) {
    sketches_[v] =
        std::make_unique<VersionedHll>(options_.precision, options_.salt);
  }
  return sketches_[v].get();
}

void SourceSetApprox::ProcessInteraction(const Interaction& interaction) {
  const auto [u, v, t] = interaction;
  IPIN_CHECK(!sealed_);
  IPIN_CHECK_LT(u, sketches_.size());
  IPIN_CHECK_LT(v, sketches_.size());
  if (saw_interaction_) {
    IPIN_CHECK_GE(t, last_time_);  // arrival (ascending) order required
  }
  last_time_ = t;
  saw_interaction_ = true;

  VersionedHll* sketch_v = MutableSketch(v);
  // Timestamps are NEGATED so the vHLL's "earlier time dominates" rule
  // becomes "later start dominates" (see class comment).
  if (u != v) sketch_v->Add(static_cast<uint64_t>(u), -t);
  if (u == v) return;
  const VersionedHll* sketch_u = sketches_[u].get();
  if (sketch_u != nullptr) {
    // Keep entries with start s satisfying t - s < window, i.e. negated
    // time -s < -t + window.
    sketch_v->MergeWindow(*sketch_u, -t, window_);
  }
}

double SourceSetApprox::EstimateSourceSetSize(NodeId v) const {
  IPIN_CHECK_LT(v, num_nodes_);
  if (sealed_) {
    return arena_->has_node(v) ? arena_->EstimateNode(v) : 0.0;
  }
  const VersionedHll* sketch = sketches_[v].get();
  return sketch == nullptr ? 0.0 : sketch->Estimate();
}

double SourceSetApprox::EstimateUnionSize(
    std::span<const NodeId> targets) const {
  std::vector<uint8_t> ranks;
  return EstimateUnionSize(targets, &ranks);
}

double SourceSetApprox::EstimateUnionSize(
    std::span<const NodeId> targets, std::vector<uint8_t>* scratch) const {
  const size_t beta = static_cast<size_t>(1) << options_.precision;
  scratch->assign(beta, 0);
  uint8_t* const ranks = scratch->data();
  bool any = false;
  for (const NodeId v : targets) {
    IPIN_CHECK_LT(v, num_nodes_);
    const SketchView sketch = Sketch(v);
    if (!sketch) continue;
    any = true;
    kernels::CellwiseMaxU8(ranks, sketch.max_ranks().data(), beta);
  }
  if (!any) return 0.0;
  return kernels::Dispatched().estimate_from_ranks(ranks, beta);
}

size_t SourceSetApprox::NumAllocatedSketches() const {
  if (sealed_) return arena_->NumAllocated();
  size_t count = 0;
  for (const auto& s : sketches_) {
    if (s != nullptr) ++count;
  }
  return count;
}

size_t SourceSetApprox::TotalSketchEntries() const {
  if (sealed_) return arena_->TotalEntries();
  size_t total = 0;
  for (const auto& s : sketches_) {
    if (s != nullptr) total += s->NumEntries();
  }
  return total;
}

size_t SourceSetApprox::MemoryUsageBytes() const {
  if (sealed_) return arena_->MemoryUsageBytes();
  size_t bytes = sketches_.capacity() * sizeof(std::unique_ptr<VersionedHll>);
  for (const auto& s : sketches_) {
    if (s != nullptr) bytes += sizeof(VersionedHll) + s->MemoryUsageBytes();
  }
  return bytes;
}

SourceSetOracle::SourceSetOracle(const SourceSetApprox* sets) : sets_(sets) {
  IPIN_CHECK(sets != nullptr);
}

size_t SourceSetOracle::num_nodes() const { return sets_->num_nodes(); }

double SourceSetOracle::InfluenceOf(NodeId v) const {
  return sets_->EstimateSourceSetSize(v);
}

double SourceSetOracle::InfluenceOfSet(std::span<const NodeId> targets) const {
  return sets_->EstimateUnionSize(targets);
}

std::unique_ptr<CoverageState> SourceSetOracle::NewCoverage() const {
  return std::make_unique<SketchRowCoverage<SourceSetApprox>>(sets_);
}

}  // namespace ipin
