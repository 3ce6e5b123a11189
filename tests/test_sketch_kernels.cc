#include "ipin/sketch/kernels.h"

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <cstring>
#include <vector>

#include <gtest/gtest.h>

#include "ipin/common/random.h"
#include "ipin/sketch/estimators.h"
#include "ipin/sketch/rank_coverage.h"
#include "ipin/sketch/vhll.h"

namespace ipin {
namespace {

using kernels::KernelOps;
using kernels::KernelsFor;
using kernels::SimdTarget;
using kernels::SimdTargetName;

// Every target the current build/CPU can actually run. kScalar is always
// present; the others depend on the architecture and CPUID.
std::vector<SimdTarget> RunnableTargets() {
  std::vector<SimdTarget> targets;
  for (const SimdTarget t : {SimdTarget::kScalar, SimdTarget::kSse2,
                             SimdTarget::kAvx2, SimdTarget::kNeon}) {
    if (KernelsFor(t) != nullptr) targets.push_back(t);
  }
  return targets;
}

const KernelOps& Scalar() { return *KernelsFor(SimdTarget::kScalar); }

TEST(SketchKernelsTest, DispatchIsRunnableAndNamed) {
  const SimdTarget target = kernels::DispatchedTarget();
  EXPECT_NE(KernelsFor(target), nullptr);
  EXPECT_EQ(&kernels::Dispatched(), KernelsFor(target));
  EXPECT_STRNE(SimdTargetName(target), "unknown");
}

TEST(SketchKernelsTest, ScalarAlwaysRunnable) {
  EXPECT_NE(KernelsFor(SimdTarget::kScalar), nullptr);
}

// Randomized scalar-vs-target equivalence for the cellwise max, across all
// vHLL precisions and ragged tails that are not a multiple of any vector
// width (SSE2 16, AVX2 32/64 — the +1/+7 offsets below stress every tail
// path). Integer kernels must agree exactly.
TEST(SketchKernelsTest, CellwiseMaxMatchesScalarFuzz) {
  Rng rng(20260807);
  for (const SimdTarget target : RunnableTargets()) {
    const KernelOps& ops = *KernelsFor(target);
    for (int precision = 4; precision <= 18; ++precision) {
      const size_t beta = size_t{1} << precision;
      for (const size_t n :
           {beta, beta - 1, beta - 7, size_t{1}, size_t{3}, size_t{17}}) {
        std::vector<uint8_t> dst(n), src(n);
        for (size_t i = 0; i < n; ++i) {
          dst[i] = static_cast<uint8_t>(rng.NextBounded(256));
          src[i] = static_cast<uint8_t>(rng.NextBounded(256));
        }
        std::vector<uint8_t> want = dst;
        Scalar().cellwise_max_u8(want.data(), src.data(), n);
        std::vector<uint8_t> got = dst;
        ops.cellwise_max_u8(got.data(), src.data(), n);
        ASSERT_EQ(got, want) << SimdTargetName(target) << " precision "
                             << precision << " n " << n;
      }
    }
  }
}

// The one floating-point kernel must be BITWISE identical across targets
// (fixed histogram summation order), for dense, sparse, and all-zero rank
// vectors at every precision.
TEST(SketchKernelsTest, EstimateFromRanksBitIdenticalFuzz) {
  Rng rng(777);
  for (int precision = 4; precision <= 18; ++precision) {
    const size_t beta = size_t{1} << precision;
    for (int variant = 0; variant < 3; ++variant) {
      std::vector<uint8_t> ranks(beta, 0);
      if (variant == 1) {
        for (auto& r : ranks) r = static_cast<uint8_t>(rng.NextBounded(62));
      } else if (variant == 2) {
        // Sparse: a few cells set, including max-rank outliers.
        for (int i = 0; i < 5; ++i) {
          ranks[rng.NextBounded(beta)] =
              static_cast<uint8_t>(1 + rng.NextBounded(255));
        }
      }
      const double want =
          Scalar().estimate_from_ranks(ranks.data(), ranks.size());
      for (const SimdTarget target : RunnableTargets()) {
        const double got =
            KernelsFor(target)->estimate_from_ranks(ranks.data(), ranks.size());
        ASSERT_EQ(got, want) << SimdTargetName(target) << " precision "
                             << precision << " variant " << variant;
      }
      // And the public entry point routes through the same kernels.
      ASSERT_EQ(EstimateFromRanks(ranks), want) << precision;
    }
  }
}

// bounded_max_into against both the scalar kernel and a brute-force model,
// over struct-of-arrays cells built from real vHLL sketches (so counts,
// times, and ranks carry the genuine invariants), with many bounds per
// sketch including exact-hit timestamps.
TEST(SketchKernelsTest, BoundedMaxIntoMatchesScalarFuzz) {
  Rng rng(31337);
  for (int precision = 4; precision <= 10; precision += 2) {
    const size_t beta = size_t{1} << precision;
    VersionedHll sketch(precision, 99);
    for (int i = 0; i < 4000; ++i) {
      sketch.Add(rng.NextUint64(), static_cast<Timestamp>(rng.NextBounded(500)));
    }
    // Flatten into the arena layout.
    std::vector<uint8_t> counts(beta, 0);
    std::vector<uint8_t> ranks;
    std::vector<int64_t> times;
    for (size_t c = 0; c < beta; ++c) {
      counts[c] = static_cast<uint8_t>(sketch.cell(c).size());
      for (const auto& e : sketch.cell(c)) {
        ranks.push_back(e.rank);
        times.push_back(e.time);
      }
    }
    const size_t total = ranks.size();
    for (const Timestamp bound : {Timestamp{-1}, Timestamp{0}, Timestamp{1},
                                  Timestamp{17}, Timestamp{250},
                                  Timestamp{499}, Timestamp{500},
                                  Timestamp{100000}}) {
      // Accumulation semantics: dst starts non-zero.
      std::vector<uint8_t> init(beta);
      for (auto& r : init) r = static_cast<uint8_t>(rng.NextBounded(8));

      std::vector<uint8_t> want = init;
      Scalar().bounded_max_into(counts.data(), ranks.data(), times.data(),
                                beta, total, bound, want.data());

      // Cross-check the scalar kernel against the vHLL's own prefix query.
      std::vector<uint8_t> model(init.begin(), init.end());
      sketch.MaxRanks(bound, &model);
      ASSERT_EQ(want, model) << "precision " << precision << " bound "
                             << bound;

      for (const SimdTarget target : RunnableTargets()) {
        std::vector<uint8_t> got = init;
        KernelsFor(target)->bounded_max_into(counts.data(), ranks.data(),
                                             times.data(), beta, total, bound,
                                             got.data());
        ASSERT_EQ(got, want) << SimdTargetName(target) << " precision "
                             << precision << " bound " << bound;
      }
    }
  }
}

// Ragged entry layouts the vHLL can't produce (single giant cell, empty
// head/tail cells) still dispatch correctly.
TEST(SketchKernelsTest, BoundedMaxIntoRaggedLayouts) {
  const size_t beta = 16;
  std::vector<uint8_t> counts(beta, 0);
  std::vector<uint8_t> ranks;
  std::vector<int64_t> times;
  // Cell 7 holds a long strictly-ascending run; everything else is empty.
  for (int i = 0; i < 60; ++i) {
    counts[7] = 60;
    ranks.push_back(static_cast<uint8_t>(i + 1));
    times.push_back(10 * i);
  }
  for (const Timestamp bound : {Timestamp{0}, Timestamp{5}, Timestamp{11},
                                Timestamp{305}, Timestamp{1000}}) {
    std::vector<uint8_t> want(beta, 0);
    Scalar().bounded_max_into(counts.data(), ranks.data(), times.data(), beta,
                              ranks.size(), bound, want.data());
    for (const SimdTarget target : RunnableTargets()) {
      std::vector<uint8_t> got(beta, 0);
      KernelsFor(target)->bounded_max_into(counts.data(), ranks.data(),
                                           times.data(), beta, ranks.size(),
                                           bound, got.data());
      ASSERT_EQ(got, want) << SimdTargetName(target) << " bound " << bound;
    }
  }
}

// ---------------------------------------------------------------------------
// raise_histogram_u8 and RankCoverage: the greedy marginal gain against the
// materialized rule it replaces, max(0, estimate(max(cover, row)) -
// estimate(cover)) with an all-zero row estimating 0.
// ---------------------------------------------------------------------------

std::vector<uint32_t> HistogramOf(const std::vector<uint8_t>& ranks) {
  std::vector<uint32_t> hist(kernels::kRankHistogramBins, 0);
  for (const uint8_t r : ranks) ++hist[r];
  return hist;
}

double ReferenceEstimate(const std::vector<uint8_t>& ranks) {
  const bool any = std::any_of(ranks.begin(), ranks.end(),
                               [](uint8_t r) { return r != 0; });
  return any ? Scalar().estimate_from_ranks(ranks.data(), ranks.size()) : 0.0;
}

bool SameBits(double a, double b) {
  return std::memcmp(&a, &b, sizeof(double)) == 0;
}

// Whether the HLL estimate of `ranks` takes the linear-counting branch
// (raw <= 2.5 m with an untouched cell); used only to prove that the fuzz
// below reaches both branches.
bool LinearCounting(const std::vector<uint8_t>& ranks) {
  double inverse_sum = 0.0;
  size_t zeros = 0;
  for (const uint8_t r : ranks) {
    inverse_sum += std::ldexp(1.0, -static_cast<int>(r));
    zeros += r == 0 ? 1 : 0;
  }
  const double m = static_cast<double>(ranks.size());
  return zeros > 0 && HllAlpha(ranks.size()) * m * m / inverse_sum <= 2.5 * m;
}

// Covers and candidate rows of every shape the gain must handle: empty,
// sparse low ranks (linear counting), dense geometric ranks (raw
// estimate), and outliers up to the top rank 255.
enum class RowKind { kEmpty, kSparse, kDense, kExtreme };

std::vector<uint8_t> MakeRow(RowKind kind, size_t m, Rng* rng) {
  std::vector<uint8_t> row(m, 0);
  switch (kind) {
    case RowKind::kEmpty:
      break;
    case RowKind::kSparse:
      for (int i = 0; i < 3; ++i) {
        row[rng->NextBounded(m)] = static_cast<uint8_t>(1 + rng->NextBounded(3));
      }
      break;
    case RowKind::kDense:
      for (auto& r : row) {
        r = static_cast<uint8_t>(
            std::min(1 + std::countr_zero(rng->NextUint64() | (1ull << 40)),
                     40));
      }
      break;
    case RowKind::kExtreme:
      for (auto& r : row) r = static_cast<uint8_t>(rng->NextBounded(256));
      row[rng->NextBounded(m)] = 255;
      break;
  }
  return row;
}

TEST(SketchKernelsTest, RaiseHistogramMatchesHistogramOfMaxFuzz) {
  Rng rng(4242);
  for (const SimdTarget target : RunnableTargets()) {
    const KernelOps& ops = *KernelsFor(target);
    for (int precision = 4; precision <= 18; ++precision) {
      const size_t m = size_t{1} << precision;
      for (const RowKind cover_kind : {RowKind::kEmpty, RowKind::kSparse,
                                       RowKind::kDense, RowKind::kExtreme}) {
        for (const RowKind row_kind : {RowKind::kEmpty, RowKind::kSparse,
                                       RowKind::kDense, RowKind::kExtreme}) {
          const std::vector<uint8_t> cover = MakeRow(cover_kind, m, &rng);
          // Unaligned row: one byte into its buffer.
          std::vector<uint8_t> buffer(m + 1);
          const std::vector<uint8_t> row = MakeRow(row_kind, m, &rng);
          std::copy(row.begin(), row.end(), buffer.begin() + 1);
          std::vector<uint8_t> merged = cover;
          size_t want_bound = 0;
          for (size_t i = 0; i < m; ++i) {
            if (row[i] > cover[i]) {
              merged[i] = row[i];
              want_bound = std::max<size_t>(want_bound, row[i] + size_t{1});
            }
          }
          std::vector<uint32_t> hist = HistogramOf(cover);
          const size_t bound =
              ops.raise_histogram_u8(cover.data(), buffer.data() + 1, m,
                                     hist.data());
          ASSERT_EQ(hist, HistogramOf(merged))
              << SimdTargetName(target) << " precision " << precision;
          ASSERT_EQ(bound, want_bound)
              << SimdTargetName(target) << " precision " << precision;
        }
      }
    }
  }
}

// The gain is bitwise the materialized rule's on every target, across
// precisions 4-18 (16-cell rows are narrower than one vector), both
// estimator regimes, ranks up to 255, and exact zeros for rows equal to or
// dominated by the cover.
TEST(SketchKernelsTest, RankCoverageGainBitIdenticalToMaterializedMax) {
  Rng rng(8080);
  size_t linear_counting = 0;
  size_t raw_estimate = 0;
  for (const SimdTarget target : RunnableTargets()) {
    const KernelOps& ops = *KernelsFor(target);
    for (int precision = 4; precision <= 18; ++precision) {
      const size_t m = size_t{1} << precision;
      for (const RowKind cover_kind : {RowKind::kEmpty, RowKind::kSparse,
                                       RowKind::kDense, RowKind::kExtreme}) {
        const std::vector<uint8_t> cover = MakeRow(cover_kind, m, &rng);
        RankCoverage coverage(m, ops);
        coverage.Add(cover);
        const double covered = ReferenceEstimate(cover);
        ASSERT_TRUE(SameBits(coverage.Covered(), covered))
            << SimdTargetName(target) << " precision " << precision;
        ASSERT_TRUE(std::equal(cover.begin(), cover.end(),
                               coverage.ranks().begin()));

        // Equal to and dominated by the cover: no cell rises, gain +0.0.
        std::vector<uint8_t> dominated = cover;
        for (auto& r : dominated) {
          r = static_cast<uint8_t>(rng.NextBounded(size_t{r} + 1));
        }
        ASSERT_TRUE(SameBits(coverage.Gain(cover), 0.0))
            << SimdTargetName(target) << " precision " << precision;
        ASSERT_TRUE(SameBits(coverage.Gain(dominated), 0.0))
            << SimdTargetName(target) << " precision " << precision;

        for (const RowKind row_kind : {RowKind::kEmpty, RowKind::kSparse,
                                       RowKind::kDense, RowKind::kExtreme}) {
          const std::vector<uint8_t> row = MakeRow(row_kind, m, &rng);
          std::vector<uint8_t> merged = cover;
          Scalar().cellwise_max_u8(merged.data(), row.data(), m);
          const double with_row = ReferenceEstimate(merged);
          const double want = std::max(0.0, with_row - covered);
          ASSERT_TRUE(SameBits(coverage.Gain(row), want))
              << SimdTargetName(target) << " precision " << precision
              << " got " << coverage.Gain(row) << " want " << want;
          (LinearCounting(merged) ? linear_counting : raw_estimate) += 1;

          // Folding the row in lands on the same state as a cover built
          // from the materialized max.
          RankCoverage grown(m, ops);
          grown.Add(cover);
          grown.Add(row);
          ASSERT_TRUE(SameBits(grown.Covered(), with_row))
              << SimdTargetName(target) << " precision " << precision;
          ASSERT_TRUE(std::equal(merged.begin(), merged.end(),
                                 grown.ranks().begin()));
        }
      }
    }
  }
  EXPECT_GT(linear_counting, 0u);
  EXPECT_GT(raw_estimate, 0u);
}

// Filling a cover's last untouched cell moves the estimate from linear
// counting to the raw estimate, which reads lower: the materialized rule
// clamps that negative difference to 0, and so must the delta gain.
TEST(SketchKernelsTest, RankCoverageGainClampsEstimatorDropToZero) {
  for (const SimdTarget target : RunnableTargets()) {
    for (int precision = 4; precision <= 18; ++precision) {
      const size_t m = size_t{1} << precision;
      std::vector<uint8_t> cover(m, 1);
      cover[0] = 0;
      std::vector<uint8_t> row(m, 0);
      row[0] = 1;
      const std::vector<uint8_t> merged(m, 1);
      ASSERT_LT(ReferenceEstimate(merged), ReferenceEstimate(cover));
      RankCoverage coverage(m, *KernelsFor(target));
      coverage.Add(cover);
      ASSERT_TRUE(SameBits(coverage.Gain(row), 0.0))
          << SimdTargetName(target) << " precision " << precision;
    }
  }
}

}  // namespace
}  // namespace ipin
