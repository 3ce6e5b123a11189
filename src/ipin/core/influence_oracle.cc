#include "ipin/core/influence_oracle.h"

#include "ipin/common/check.h"
#include "ipin/common/thread_pool.h"
#include "ipin/obs/metrics.h"
#include "ipin/obs/progress.h"
#include "ipin/obs/trace.h"
#include "ipin/sketch/estimators.h"
#include "ipin/sketch/kernels.h"

namespace ipin {
namespace {

// Coverage over exact hash-set summaries.
class ExactCoverage : public CoverageState {
 public:
  explicit ExactCoverage(const IrsExact* irs) : irs_(irs) {}

  double Covered() const override {
    return static_cast<double>(covered_.size());
  }

  double GainOf(NodeId u) const override {
    size_t gain = 0;
    for (const auto& [v, t] : irs_->Summary(u)) {
      (void)t;
      if (covered_.find(v) == covered_.end()) ++gain;
    }
    return static_cast<double>(gain);
  }

  void Commit(NodeId u) override {
    for (const auto& [v, t] : irs_->Summary(u)) {
      (void)t;
      covered_.insert(v);
    }
  }

 private:
  const IrsExact* irs_;
  std::unordered_set<NodeId> covered_;
};

// Coverage over explicit sets.
class SetCoverage : public CoverageState {
 public:
  explicit SetCoverage(const SetCoverageOracle* oracle) : oracle_(oracle) {}

  double Covered() const override {
    return static_cast<double>(covered_.size());
  }

  double GainOf(NodeId u) const override {
    size_t gain = 0;
    for (const NodeId v : oracle_->set(u)) {
      if (covered_.find(v) == covered_.end()) ++gain;
    }
    return static_cast<double>(gain);
  }

  void Commit(NodeId u) override {
    for (const NodeId v : oracle_->set(u)) covered_.insert(v);
  }

 private:
  const SetCoverageOracle* oracle_;
  std::unordered_set<NodeId> covered_;
};

}  // namespace

std::vector<double> InfluenceOracle::InfluenceOfAll() const {
  IPIN_TRACE_SPAN("oracle.influence_of_all");
  std::vector<double> influence(num_nodes());
  obs::ProgressPhase phase("oracle.influence_all", influence.size());
  ParallelFor(0, influence.size(), 256, [&](size_t lo, size_t hi) {
    for (size_t u = lo; u < hi; ++u) {
      influence[u] = InfluenceOf(static_cast<NodeId>(u));
    }
    phase.Tick(hi - lo);
  });
  return influence;
}

ExactInfluenceOracle::ExactInfluenceOracle(const IrsExact* irs) : irs_(irs) {
  IPIN_CHECK(irs != nullptr);
}

size_t ExactInfluenceOracle::num_nodes() const { return irs_->num_nodes(); }

double ExactInfluenceOracle::InfluenceOf(NodeId u) const {
  return static_cast<double>(irs_->IrsSize(u));
}

double ExactInfluenceOracle::InfluenceOfSet(
    std::span<const NodeId> seeds) const {
  IPIN_LATENCY_SCOPE("oracle.exact.query_us");
  return static_cast<double>(irs_->UnionSize(seeds));
}

BudgetedValue ExactInfluenceOracle::InfluenceOfSetBudgeted(
    std::span<const NodeId> seeds, const QueryBudget& budget) const {
  IPIN_LATENCY_SCOPE("oracle.exact.query_us");
  std::unordered_set<NodeId> seen;
  size_t until_check = budget.check_every;
  for (const NodeId u : seeds) {
    // At least one check per seed: a budget that was already burned before
    // the call (e.g. by a slow-eval fault) is noticed even when every
    // summary is far smaller than check_every.
    if (budget.Expired()) {
      return {static_cast<double>(seen.size()), true};
    }
    for (const auto& [v, t] : irs_->Summary(u)) {
      (void)t;
      seen.insert(v);
      if (--until_check == 0) {
        until_check = budget.check_every;
        if (budget.Expired()) {
          return {static_cast<double>(seen.size()), true};
        }
      }
    }
  }
  return {static_cast<double>(seen.size()), false};
}

std::unique_ptr<CoverageState> ExactInfluenceOracle::NewCoverage() const {
  return std::make_unique<ExactCoverage>(irs_);
}

SketchInfluenceOracle::SketchInfluenceOracle(const IrsApprox* irs)
    : irs_(irs) {
  IPIN_CHECK(irs != nullptr);
}

size_t SketchInfluenceOracle::num_nodes() const { return irs_->num_nodes(); }

double SketchInfluenceOracle::InfluenceOf(NodeId u) const {
  return irs_->EstimateIrsSize(u);
}

double SketchInfluenceOracle::InfluenceOfSet(
    std::span<const NodeId> seeds) const {
  IPIN_LATENCY_SCOPE("oracle.sketch.query_us");
  return irs_->EstimateUnionSize(seeds);
}

BudgetedValue SketchInfluenceOracle::InfluenceOfSetBudgeted(
    std::span<const NodeId> seeds, const QueryBudget& budget) const {
  IPIN_LATENCY_SCOPE("oracle.sketch.query_us");
  const size_t beta =
      static_cast<size_t>(1) << irs_->options().precision;
  // thread_local scratch: serving workers answer many budgeted queries
  // back to back and this path must not allocate per call.
  static thread_local std::vector<uint8_t> ranks;
  ranks.assign(beta, 0);
  bool any = false;
  for (size_t i = 0; i < seeds.size(); ++i) {
    if (budget.Expired()) {
      const double partial =
          any ? EstimateFromRanks(ranks) : 0.0;
      return {partial, true};
    }
    const SketchView sketch = irs_->Sketch(seeds[i]);
    if (!sketch) continue;
    any = true;
    kernels::CellwiseMaxU8(ranks.data(), sketch.max_ranks().data(), beta);
  }
  return {any ? EstimateFromRanks(ranks) : 0.0, false};
}

std::unique_ptr<CoverageState> SketchInfluenceOracle::NewCoverage() const {
  return std::make_unique<SketchRowCoverage<IrsApprox>>(irs_);
}

SetCoverageOracle::SetCoverageOracle(std::vector<std::vector<NodeId>> sets)
    : sets_(std::move(sets)) {}

size_t SetCoverageOracle::num_nodes() const { return sets_.size(); }

double SetCoverageOracle::InfluenceOf(NodeId u) const {
  return static_cast<double>(sets_[u].size());
}

double SetCoverageOracle::InfluenceOfSet(std::span<const NodeId> seeds) const {
  std::unordered_set<NodeId> seen;
  for (const NodeId u : seeds) {
    IPIN_CHECK_LT(u, sets_.size());
    seen.insert(sets_[u].begin(), sets_[u].end());
  }
  return static_cast<double>(seen.size());
}

std::unique_ptr<CoverageState> SetCoverageOracle::NewCoverage() const {
  return std::make_unique<SetCoverage>(this);
}

}  // namespace ipin
