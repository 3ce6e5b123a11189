#ifndef IPIN_SKETCH_RANK_COVERAGE_H_
#define IPIN_SKETCH_RANK_COVERAGE_H_

#include <array>
#include <cstddef>
#include <cstdint>
#include <span>
#include <vector>

#include "ipin/sketch/kernels.h"

namespace ipin {

/// The covered set of greedy seed selection over max-rank rows: the cellwise
/// max of every added row, kept together with its rank histogram. The HLL
/// estimate depends only on that histogram, so a candidate's marginal gain
/// needs no merged copy: raise_histogram_u8 moves one count per cell the
/// candidate raises, and the shared EstimateFromHistogram epilogue runs on
/// the result. Gain(row) is therefore bit-identical to
/// EstimateFromRanks(max(covered, row)) - Covered() (DESIGN.md §12).
class RankCoverage {
 public:
  /// An empty cover over `num_cells` cells (>= 2), scanned with `ops`
  /// (tests pass each runnable target's table).
  explicit RankCoverage(size_t num_cells,
                        const kernels::KernelOps& ops = kernels::Dispatched());

  /// Estimated size of the covered set (0 while nothing is covered).
  double Covered() const { return covered_; }

  /// Estimate of covered union row, minus Covered(), floored at 0; exactly
  /// 0 when `row` raises no cell. `row` has one rank per cell. Const and
  /// free of shared scratch, so concurrent calls are safe.
  double Gain(std::span<const uint8_t> row) const;

  /// Folds `row` into the cover.
  void Add(std::span<const uint8_t> row);

  /// The covered max-rank row.
  std::span<const uint8_t> ranks() const { return ranks_; }

 private:
  using Histogram = std::array<uint32_t, kernels::kRankHistogramBins>;

  const kernels::KernelOps* ops_;
  std::vector<uint8_t> ranks_;
  Histogram hist_{};
  size_t live_bins_ = 1;  // every covered rank is below this
  double covered_ = 0.0;
};

}  // namespace ipin

#endif  // IPIN_SKETCH_RANK_COVERAGE_H_
