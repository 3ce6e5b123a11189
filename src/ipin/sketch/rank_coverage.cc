#include "ipin/sketch/rank_coverage.h"

#include <algorithm>

#include "ipin/common/check.h"

namespace ipin {

RankCoverage::RankCoverage(size_t num_cells, const kernels::KernelOps& ops)
    : ops_(&ops), ranks_(num_cells, 0) {
  IPIN_CHECK_GE(num_cells, 2u);
  hist_[0] = static_cast<uint32_t>(num_cells);
}

double RankCoverage::Gain(std::span<const uint8_t> row) const {
  IPIN_CHECK_EQ(row.size(), ranks_.size());
  Histogram hist = hist_;
  const size_t raised =
      ops_->raise_histogram_u8(ranks_.data(), row.data(), ranks_.size(),
                               hist.data());
  if (raised == 0) return 0.0;
  const double with_row = kernels::EstimateFromHistogram(
      hist.data(), std::max(live_bins_, raised), ranks_.size());
  return std::max(0.0, with_row - covered_);
}

void RankCoverage::Add(std::span<const uint8_t> row) {
  IPIN_CHECK_EQ(row.size(), ranks_.size());
  const size_t raised = ops_->raise_histogram_u8(ranks_.data(), row.data(),
                                                 ranks_.size(), hist_.data());
  if (raised == 0) return;
  ops_->cellwise_max_u8(ranks_.data(), row.data(), ranks_.size());
  live_bins_ = std::max(live_bins_, raised);
  covered_ =
      kernels::EstimateFromHistogram(hist_.data(), live_bins_, ranks_.size());
}

}  // namespace ipin
