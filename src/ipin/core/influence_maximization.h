#ifndef IPIN_CORE_INFLUENCE_MAXIMIZATION_H_
#define IPIN_CORE_INFLUENCE_MAXIMIZATION_H_

#include <cstddef>
#include <vector>

#include "ipin/core/influence_oracle.h"
#include "ipin/graph/types.h"

namespace ipin {

/// Result of a greedy influence-maximization run.
struct SeedSelection {
  /// Selected seeds in pick order (size <= k; smaller if coverage saturates).
  std::vector<NodeId> seeds;
  /// Marginal gain of each pick (same length as `seeds`).
  std::vector<double> gains;
  /// Coverage after the last pick.
  double total_coverage = 0.0;
  /// Number of GainOf evaluations (for efficiency comparisons).
  size_t gain_evaluations = 0;
};

/// The paper's Algorithm 4: nodes are sorted descending by individual
/// influence |sigma(u)|; each round scans that list in order, one GainOf
/// per candidate, tracking the best marginal gain, and stops as soon as the
/// best gain found reaches the next candidate's individual influence. For a
/// submodular oracle (exact and set oracles) that influence bounds the
/// candidate's marginal gain (Lemma 8), so the early exit only skips work,
/// and the result is a (1 - 1/e) approximation of the NP-hard optimum
/// (Lemma 7). The vHLL estimator is not exactly submodular, so for sketch
/// oracles the early exit defines Algorithm 4's output rather than
/// bounding it.
SeedSelection SelectSeedsGreedy(const InfluenceOracle& oracle, size_t k);

/// CELF lazy-greedy variant (Leskovec et al. 2007): stale gains live in a
/// max-heap and are re-evaluated only when they reach the top, typically
/// far fewer gain evaluations. Ties break like Algorithm 4's scan (gain,
/// then individual influence, then smaller id), so for a submodular oracle
/// (exact and set oracles) the seeds equal SelectSeedsGreedy's. Sketch
/// gains are not exactly submodular and the two may diverge: they agree on
/// the small test graphs, but on the scale-1.0 slashdot stand-in they first
/// pick differently at pick 18 (perfbench/README.md).
SeedSelection SelectSeedsCelf(const InfluenceOracle& oracle, size_t k);

/// Exhaustive search over all size-k seed subsets; exponential, for
/// cross-validating greedy on tiny instances in tests.
SeedSelection SelectSeedsExhaustive(const InfluenceOracle& oracle, size_t k);

}  // namespace ipin

#endif  // IPIN_CORE_INFLUENCE_MAXIMIZATION_H_
