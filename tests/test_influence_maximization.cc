#include "ipin/core/influence_maximization.h"

#include <algorithm>
#include <cstring>
#include <functional>
#include <memory>

#include <gtest/gtest.h>

#include "ipin/core/influence_oracle.h"
#include "ipin/core/irs_approx.h"
#include "ipin/core/irs_exact.h"
#include "ipin/core/source_sets.h"
#include "ipin/datasets/synthetic.h"
#include "ipin/sketch/estimators.h"
#include "ipin/sketch/kernels.h"
#include "test_util.h"

namespace ipin {
namespace {

// Reference greedy without the early-exit optimization: full scan per round,
// same tie-break preference as Algorithm 4 (gain, then individual influence,
// then smaller id).
SeedSelection NaiveGreedy(const InfluenceOracle& oracle, size_t k) {
  SeedSelection result;
  const size_t n = oracle.num_nodes();
  auto coverage = oracle.NewCoverage();
  std::vector<char> selected(n, 0);
  while (result.seeds.size() < std::min(k, n)) {
    double best_gain = -1.0;
    NodeId best = kInvalidNode;
    for (NodeId u = 0; u < n; ++u) {
      if (selected[u]) continue;
      const double gain = coverage->GainOf(u);
      ++result.gain_evaluations;
      const bool better =
          gain > best_gain ||
          (gain == best_gain && best != kInvalidNode &&
           oracle.InfluenceOf(u) > oracle.InfluenceOf(best));
      if (better) {
        best_gain = gain;
        best = u;
      }
    }
    if (best == kInvalidNode) break;
    selected[best] = 1;
    coverage->Commit(best);
    result.seeds.push_back(best);
    result.gains.push_back(best_gain);
  }
  result.total_coverage = coverage->Covered();
  return result;
}

TEST(GreedyTest, PicksObviousWinnerFirst) {
  SetCoverageOracle oracle({{1, 2, 3, 4, 5}, {1, 2}, {6}, {}});
  const SeedSelection result = SelectSeedsGreedy(oracle, 2);
  ASSERT_EQ(result.seeds.size(), 2u);
  EXPECT_EQ(result.seeds[0], 0u);  // covers 5
  EXPECT_EQ(result.seeds[1], 2u);  // covers 1 new (node 6)
  EXPECT_DOUBLE_EQ(result.total_coverage, 6.0);
}

TEST(GreedyTest, AccountsForOverlap) {
  // Node 0 covers {1..5}; node 1 covers {1..4, 6}; node 2 covers {7, 8}.
  // Plain top-2-by-size picks 0 and 1 (coverage 7); greedy picks 0 and 2
  // only if |{7,8} new| > |{6} new| -> yes.
  SetCoverageOracle oracle({{1, 2, 3, 4, 5}, {1, 2, 3, 4, 6}, {7, 8}});
  const SeedSelection result = SelectSeedsGreedy(oracle, 2);
  ASSERT_EQ(result.seeds.size(), 2u);
  EXPECT_EQ(result.seeds[0], 0u);
  EXPECT_EQ(result.seeds[1], 2u);
  EXPECT_DOUBLE_EQ(result.total_coverage, 7.0);
}

TEST(GreedyTest, MatchesNaiveGreedyOnRandomInstances) {
  for (uint64_t seed = 1; seed <= 5; ++seed) {
    const InteractionGraph g =
        GenerateUniformRandomNetwork(25, 180, 500, seed);
    const IrsExact irs = IrsExact::Compute(g, 100);
    const ExactInfluenceOracle oracle(&irs);
    const SeedSelection fast = SelectSeedsGreedy(oracle, 6);
    const SeedSelection naive = NaiveGreedy(oracle, 6);
    EXPECT_EQ(fast.seeds, naive.seeds) << "seed " << seed;
    EXPECT_DOUBLE_EQ(fast.total_coverage, naive.total_coverage);
    EXPECT_LE(fast.gain_evaluations, naive.gain_evaluations);
  }
}

// Lemma 8's early exit fires as soon as the best gain *reaches* the next
// candidate's influence. Nodes 0 and 1 tie at influence 2, so round 1
// evaluates node 0 only; round 2 evaluates nodes 1 and 2.
TEST(GreedyTest, EarlyExitStopsAtATiedInfluence) {
  SetCoverageOracle oracle({{1, 2}, {1, 2}, {3}});
  const SeedSelection result = SelectSeedsGreedy(oracle, 2);
  EXPECT_EQ(result.seeds, (std::vector<NodeId>{0, 2}));
  EXPECT_EQ(result.gain_evaluations, 3u);
}

TEST(CelfTest, MatchesSimpleGreedy) {
  for (uint64_t seed = 1; seed <= 5; ++seed) {
    const InteractionGraph g =
        GenerateUniformRandomNetwork(25, 180, 500, seed + 10);
    const IrsExact irs = IrsExact::Compute(g, 100);
    const ExactInfluenceOracle oracle(&irs);
    const SeedSelection greedy = SelectSeedsGreedy(oracle, 6);
    const SeedSelection celf = SelectSeedsCelf(oracle, 6);
    EXPECT_EQ(greedy.seeds, celf.seeds) << "seed " << seed;
    EXPECT_DOUBLE_EQ(greedy.total_coverage, celf.total_coverage);
  }
}

TEST(CelfTest, UsesFewerEvaluationsThanNaive) {
  const InteractionGraph g = GenerateUniformRandomNetwork(60, 500, 1500, 3);
  const IrsExact irs = IrsExact::Compute(g, 300);
  const ExactInfluenceOracle oracle(&irs);
  const SeedSelection celf = SelectSeedsCelf(oracle, 8);
  const SeedSelection naive = NaiveGreedy(oracle, 8);
  EXPECT_EQ(celf.seeds, naive.seeds);
  EXPECT_LT(celf.gain_evaluations, naive.gain_evaluations);
}

TEST(GreedyTest, NearOptimalOnTinyInstances) {
  // Greedy >= (1 - 1/e) * OPT for monotone submodular coverage.
  for (uint64_t seed = 1; seed <= 4; ++seed) {
    const InteractionGraph g = GenerateUniformRandomNetwork(12, 60, 200, seed);
    const IrsExact irs = IrsExact::Compute(g, 50);
    const ExactInfluenceOracle oracle(&irs);
    const SeedSelection greedy = SelectSeedsGreedy(oracle, 3);
    const SeedSelection optimal = SelectSeedsExhaustive(oracle, 3);
    EXPECT_GE(greedy.total_coverage + 1e-9,
              (1.0 - 1.0 / 2.718281828) * optimal.total_coverage)
        << "seed " << seed;
  }
}

TEST(GreedyTest, GainsAreNonIncreasing) {
  const InteractionGraph g = GenerateUniformRandomNetwork(40, 300, 900, 7);
  const IrsExact irs = IrsExact::Compute(g, 200);
  const ExactInfluenceOracle oracle(&irs);
  const SeedSelection result = SelectSeedsGreedy(oracle, 10);
  for (size_t i = 1; i < result.gains.size(); ++i) {
    EXPECT_LE(result.gains[i], result.gains[i - 1] + 1e-9);
  }
}

TEST(GreedyTest, KLargerThanNSelectsAllNodes) {
  SetCoverageOracle oracle({{1}, {2}, {0}});
  const SeedSelection result = SelectSeedsGreedy(oracle, 10);
  EXPECT_EQ(result.seeds.size(), 3u);
}

TEST(GreedyTest, KZeroSelectsNothing) {
  SetCoverageOracle oracle({{1}, {2}});
  EXPECT_TRUE(SelectSeedsGreedy(oracle, 0).seeds.empty());
  EXPECT_TRUE(SelectSeedsCelf(oracle, 0).seeds.empty());
}

TEST(GreedyTest, EmptyOracle) {
  SetCoverageOracle oracle({});
  EXPECT_TRUE(SelectSeedsGreedy(oracle, 3).seeds.empty());
  EXPECT_TRUE(SelectSeedsCelf(oracle, 3).seeds.empty());
}

TEST(GreedyTest, AllEmptySetsStillSelectsDeterministically) {
  SetCoverageOracle oracle({{}, {}, {}});
  const SeedSelection result = SelectSeedsGreedy(oracle, 2);
  EXPECT_EQ(result.seeds.size(), 2u);
  EXPECT_DOUBLE_EQ(result.total_coverage, 0.0);
}

TEST(ExhaustiveTest, FindsTrueOptimum) {
  // Node sets engineered so the best pair is {1, 2} (disjoint, 3 + 3),
  // beating {0, anything} despite node 0 having the largest set.
  SetCoverageOracle oracle(
      {{1, 2, 3, 4}, {5, 6, 7}, {8, 9, 10}, {1, 2}, {}});
  const SeedSelection best = SelectSeedsExhaustive(oracle, 2);
  EXPECT_DOUBLE_EQ(best.total_coverage, 7.0);  // {0} u {1} or {0} u {2}
}

TEST(GreedyTest, SeedsAreDistinct) {
  const InteractionGraph g = GenerateUniformRandomNetwork(30, 200, 600, 9);
  const IrsExact irs = IrsExact::Compute(g, 150);
  const ExactInfluenceOracle oracle(&irs);
  const SeedSelection result = SelectSeedsGreedy(oracle, 10);
  std::vector<NodeId> sorted = result.seeds;
  std::sort(sorted.begin(), sorted.end());
  EXPECT_EQ(std::adjacent_find(sorted.begin(), sorted.end()), sorted.end());
}

// ---------------------------------------------------------------------------
// Sketch selection against the materialized gain rule: the coverage below
// copies the covered ranks, takes the cellwise max with the candidate's row
// and estimates the result, the rule RankCoverage replaces. Greedy and CELF
// must make the same picks with bitwise-identical gains and the same number
// of gain evaluations through either coverage.
// ---------------------------------------------------------------------------

using SketchOf = std::function<SketchView(NodeId)>;

class MaterializedMaxCoverage : public CoverageState {
 public:
  MaterializedMaxCoverage(SketchOf sketch_of, size_t num_cells)
      : sketch_of_(std::move(sketch_of)), ranks_(num_cells, 0) {}

  double Covered() const override { return covered_; }

  double GainOf(NodeId u) const override {
    const SketchView sketch = sketch_of_(u);
    if (!sketch) return 0.0;
    std::vector<uint8_t> merged = ranks_;
    kernels::CellwiseMaxU8(merged.data(), sketch.max_ranks().data(),
                           merged.size());
    return std::max(0.0, EstimateOf(merged) - covered_);
  }

  void Commit(NodeId u) override {
    const SketchView sketch = sketch_of_(u);
    if (!sketch) return;
    kernels::CellwiseMaxU8(ranks_.data(), sketch.max_ranks().data(),
                           ranks_.size());
    covered_ = EstimateOf(ranks_);
  }

 private:
  static double EstimateOf(const std::vector<uint8_t>& ranks) {
    for (const uint8_t r : ranks) {
      if (r != 0) return EstimateFromRanks(ranks);
    }
    return 0.0;
  }

  SketchOf sketch_of_;
  std::vector<uint8_t> ranks_;
  double covered_ = 0.0;
};

// `inner` with its coverage swapped for MaterializedMaxCoverage.
class MaterializedMaxOracle : public InfluenceOracle {
 public:
  MaterializedMaxOracle(const InfluenceOracle* inner, SketchOf sketch_of,
                        size_t num_cells)
      : inner_(inner), sketch_of_(std::move(sketch_of)), num_cells_(num_cells) {}

  size_t num_nodes() const override { return inner_->num_nodes(); }
  double InfluenceOf(NodeId u) const override { return inner_->InfluenceOf(u); }
  double InfluenceOfSet(std::span<const NodeId> seeds) const override {
    return inner_->InfluenceOfSet(seeds);
  }
  std::unique_ptr<CoverageState> NewCoverage() const override {
    return std::make_unique<MaterializedMaxCoverage>(sketch_of_, num_cells_);
  }

 private:
  const InfluenceOracle* inner_;
  SketchOf sketch_of_;
  size_t num_cells_;
};

bool SameBits(double a, double b) {
  return std::memcmp(&a, &b, sizeof(double)) == 0;
}

void ExpectSameSelection(const SeedSelection& got, const SeedSelection& want,
                         const char* what) {
  EXPECT_EQ(got.seeds, want.seeds) << what;
  ASSERT_EQ(got.gains.size(), want.gains.size()) << what;
  for (size_t i = 0; i < got.gains.size(); ++i) {
    EXPECT_TRUE(SameBits(got.gains[i], want.gains[i]))
        << what << " pick " << i << ": " << got.gains[i] << " vs "
        << want.gains[i];
  }
  EXPECT_TRUE(SameBits(got.total_coverage, want.total_coverage)) << what;
  EXPECT_EQ(got.gain_evaluations, want.gain_evaluations) << what;
}

// Many nodes with similar, overlapping influence sets, so the early exit
// comes late and every greedy round evaluates hundreds of candidates.
InteractionGraph CrowdedGraph() {
  return GenerateUniformRandomNetwork(/*num_nodes=*/1500,
                                      /*num_interactions=*/15000,
                                      /*time_span=*/30000, /*seed=*/23);
}

constexpr size_t kCrowdedK = 20;

void ExpectMatchesMaterializedRule(const InfluenceOracle& oracle,
                                   const SketchOf& sketch_of,
                                   size_t num_cells) {
  const MaterializedMaxOracle reference(&oracle, sketch_of, num_cells);
  const SeedSelection greedy = SelectSeedsGreedy(oracle, kCrowdedK);
  ASSERT_EQ(greedy.seeds.size(), kCrowdedK);
  EXPECT_GE(greedy.gain_evaluations, 100 * kCrowdedK)
      << "too few candidates per round to exercise the gain";
  ExpectSameSelection(greedy, SelectSeedsGreedy(reference, kCrowdedK),
                      "greedy");
  ExpectSameSelection(SelectSeedsCelf(oracle, kCrowdedK),
                      SelectSeedsCelf(reference, kCrowdedK), "celf");
}

TEST(SketchSelectionTest, SketchOracleMatchesMaterializedMaxRule) {
  for (const int precision : {4, 9}) {
    IrsApproxOptions options;
    options.precision = precision;
    const IrsApprox irs = IrsApprox::Compute(CrowdedGraph(), 10000, options);
    const SketchInfluenceOracle oracle(&irs);
    SCOPED_TRACE(precision);
    ExpectMatchesMaterializedRule(
        oracle, [&irs](NodeId u) { return irs.Sketch(u); },
        size_t{1} << precision);
  }
}

TEST(SketchSelectionTest, SourceSetOracleMatchesMaterializedMaxRule) {
  const SourceSetApprox sets =
      SourceSetApprox::Compute(CrowdedGraph(), 10000, IrsApproxOptions{});
  const SourceSetOracle oracle(&sets);
  ExpectMatchesMaterializedRule(
      oracle, [&sets](NodeId v) { return sets.Sketch(v); },
      size_t{1} << sets.options().precision);
}

}  // namespace
}  // namespace ipin
