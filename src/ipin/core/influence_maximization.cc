#include "ipin/core/influence_maximization.h"

#include <algorithm>
#include <queue>
#include <span>

#include "ipin/common/check.h"
#include "ipin/obs/metrics.h"
#include "ipin/obs/progress.h"
#include "ipin/obs/trace.h"

namespace ipin {
namespace {

// Nodes sorted descending by individual influence; ties by id for
// determinism.
std::vector<NodeId> NodesByInfluence(std::span<const double> influence) {
  std::vector<NodeId> order(influence.size());
  for (size_t i = 0; i < order.size(); ++i) order[i] = static_cast<NodeId>(i);
  std::sort(order.begin(), order.end(), [&influence](NodeId a, NodeId b) {
    if (influence[a] != influence[b]) return influence[a] > influence[b];
    return a < b;
  });
  return order;
}

}  // namespace

SeedSelection SelectSeedsGreedy(const InfluenceOracle& oracle, size_t k) {
  IPIN_TRACE_SPAN("im.greedy.select");
  SeedSelection result;
  const size_t n = oracle.num_nodes();
  if (n == 0 || k == 0) return result;

  const std::vector<double> influence = oracle.InfluenceOfAll();
  const std::vector<NodeId> order = NodesByInfluence(influence);
  std::vector<char> selected(n, 0);
  auto coverage = oracle.NewCoverage();

  size_t early_exits = 0;
  obs::ProgressPhase phase("im.greedy.rounds", k);
  while (result.seeds.size() < k) {
    double best_gain = 0.0;
    NodeId best_node = kInvalidNode;
    for (const NodeId u : order) {
      if (selected[u]) continue;
      // Lemma 8: the scan is descending in individual influence, so once
      // the best gain found reaches the next candidate's influence no later
      // candidate can win (for sketch gains this early exit defines the
      // output rather than bounding it: see the header).
      if (best_node != kInvalidNode && best_gain >= influence[u]) {
        ++early_exits;
        break;
      }
      const double gain = coverage->GainOf(u);
      ++result.gain_evaluations;
      if (gain > best_gain || best_node == kInvalidNode) {
        best_gain = gain;
        best_node = u;
      }
    }
    if (best_node == kInvalidNode) break;  // all nodes selected
    selected[best_node] = 1;
    coverage->Commit(best_node);
    result.seeds.push_back(best_node);
    result.gains.push_back(best_gain);
    phase.Tick();
  }
  result.total_coverage = coverage->Covered();
  IPIN_COUNTER_ADD("im.greedy.gain_evaluations", result.gain_evaluations);
  IPIN_COUNTER_ADD("im.greedy.early_exits", early_exits);
  IPIN_COUNTER_ADD("im.greedy.seeds_selected", result.seeds.size());
  return result;
}

SeedSelection SelectSeedsCelf(const InfluenceOracle& oracle, size_t k) {
  IPIN_TRACE_SPAN("im.celf.select");
  SeedSelection result;
  const size_t n = oracle.num_nodes();
  if (n == 0 || k == 0) return result;

  auto coverage = oracle.NewCoverage();

  // Individual influences, used both as initial gain upper bounds and as the
  // secondary tie-break key so CELF selects exactly the node Algorithm 4's
  // sorted scan would (gain desc, then individual influence desc, then id).
  // Evaluated in parallel; values (and hence the heap order) are
  // thread-count independent.
  const std::vector<double> influence = oracle.InfluenceOfAll();

  // Max-heap of (cached gain, node, round the gain was computed in).
  struct HeapEntry {
    double gain;
    NodeId node;
    size_t round;
  };
  const auto cmp = [&influence](const HeapEntry& a, const HeapEntry& b) {
    if (a.gain != b.gain) return a.gain < b.gain;
    if (influence[a.node] != influence[b.node]) {
      return influence[a.node] < influence[b.node];
    }
    return a.node > b.node;  // final tie-break: smaller id wins
  };
  std::priority_queue<HeapEntry, std::vector<HeapEntry>, decltype(cmp)> heap(
      cmp);
  for (size_t i = 0; i < n; ++i) {
    const NodeId u = static_cast<NodeId>(i);
    // Initial upper bound: individual influence (gain against empty cover).
    heap.push(HeapEntry{influence[i], u, 0});
  }

  size_t round = 1;
  size_t reinserts = 0;
  obs::ProgressPhase phase("im.celf.rounds", k);
  while (result.seeds.size() < k && !heap.empty()) {
    HeapEntry top = heap.top();
    heap.pop();
    if (top.round != round) {
      // Stale: re-evaluate against the current cover and re-insert.
      top.gain = coverage->GainOf(top.node);
      ++result.gain_evaluations;
      ++reinserts;
      top.round = round;
      heap.push(top);
      continue;
    }
    coverage->Commit(top.node);
    result.seeds.push_back(top.node);
    result.gains.push_back(top.gain);
    ++round;
    phase.Tick();
  }
  result.total_coverage = coverage->Covered();
  IPIN_COUNTER_ADD("im.celf.gain_evaluations", result.gain_evaluations);
  IPIN_COUNTER_ADD("im.celf.heap_reinserts", reinserts);
  IPIN_COUNTER_ADD("im.celf.seeds_selected", result.seeds.size());
  return result;
}

SeedSelection SelectSeedsExhaustive(const InfluenceOracle& oracle, size_t k) {
  const size_t n = oracle.num_nodes();
  IPIN_CHECK_LE(n, 25u);  // exponential search: tiny instances only
  SeedSelection best;
  if (n == 0 || k == 0) return best;
  k = std::min(k, n);

  std::vector<NodeId> subset(k);
  std::vector<size_t> idx(k);
  for (size_t i = 0; i < k; ++i) idx[i] = i;
  while (true) {
    for (size_t i = 0; i < k; ++i) subset[i] = static_cast<NodeId>(idx[i]);
    const double value = oracle.InfluenceOfSet(subset);
    ++best.gain_evaluations;
    if (value > best.total_coverage) {
      best.total_coverage = value;
      best.seeds = subset;
    }
    // Next combination.
    size_t i = k;
    while (i > 0 && idx[i - 1] == n - k + i - 1) --i;
    if (i == 0) break;
    ++idx[i - 1];
    for (size_t j = i; j < k; ++j) idx[j] = idx[j - 1] + 1;
  }
  return best;
}

}  // namespace ipin
