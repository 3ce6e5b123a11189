#ifndef IPIN_SKETCH_KERNELS_H_
#define IPIN_SKETCH_KERNELS_H_

#include <cstddef>
#include <cstdint>
#include <span>

// Vectorized sketch kernels (DESIGN.md §12). The oracle's hot path reduces
// to four integer/table primitives over per-cell max-rank arrays:
//
//   cellwise_max_u8    - the union fast path (cellwise max of two rank rows)
//   estimate_from_ranks- rank histogram + precomputed 2^-r table
//   raise_histogram_u8 - rank-histogram delta of a cellwise max (the greedy
//                        marginal-gain path, see sketch/rank_coverage.h)
//   bounded_max_into   - windowed max-rank materialization over the arena's
//                        struct-of-arrays entry storage
//
// Each primitive has one implementation per SIMD target, selected once per
// process from CPUID (overridable with IPIN_SIMD=avx2|sse2|neon|scalar).
// Every target is bit-identical by construction: the max/compare kernels
// are pure integer ops, and every estimate goes through one epilogue,
// EstimateFromHistogram, which fixes its floating-point summation order
// (ascending rank over the histogram, every term exact), so the same rank
// histogram produces the same double on every target and every path. The
// equivalence fuzz in tests/test_sketch_kernels.cc enforces this against
// the scalar reference for every runnable target.

namespace ipin::kernels {

enum class SimdTarget {
  kScalar = 0,
  kSse2 = 1,
  kAvx2 = 2,
  kNeon = 3,
};

/// Lower-case target name ("scalar", "sse2", "avx2", "neon").
const char* SimdTargetName(SimdTarget target);

struct KernelOps {
  /// dst[i] = max(dst[i], src[i]) for i in [0, n). Unions are folds of this.
  void (*cellwise_max_u8)(uint8_t* dst, const uint8_t* src, size_t n);

  /// HyperLogLog estimate from one max rank per cell (rank 0 = untouched
  /// cell), with the standard linear-counting small-range correction.
  double (*estimate_from_ranks)(const uint8_t* ranks, size_t n);

  /// Rank-histogram delta of a cellwise max, without materializing it: for
  /// every cell i with row[i] > covered[i], moves one count of `hist` from
  /// bin covered[i] to bin row[i]. When `hist` (kRankHistogramBins bins)
  /// is the histogram of `covered`, it becomes that of max(covered, row).
  /// Returns one past the highest bin raised, or 0 when no cell changed.
  size_t (*raise_histogram_u8)(const uint8_t* covered, const uint8_t* row,
                               size_t n, uint32_t* hist);

  /// Windowed max-rank materialization over struct-of-arrays entry storage:
  /// cell c holds counts[c] entries, all cells' entries concatenated in
  /// `ranks`/`times` in cell order with times ascending and ranks strictly
  /// ascending within a cell (the vHLL invariant). Folds each cell's max
  /// rank among entries with time < bound into dst: dst[c] = max(dst[c], r).
  /// `total` is the sum of counts (bounds the entry arrays).
  void (*bounded_max_into)(const uint8_t* counts, const uint8_t* ranks,
                           const int64_t* times, size_t num_cells,
                           size_t total, int64_t bound, uint8_t* dst);
};

/// Bins of a rank histogram: ranks are bytes, and deserialized ranks are
/// bounded only by the byte, so every bin is reachable.
inline constexpr size_t kRankHistogramBins = 256;

/// The estimate epilogue every path shares: the HyperLogLog estimate for
/// `m` cells from their rank histogram (bin 0 = untouched cells), with the
/// linear-counting small-range correction. `bins` (<= kRankHistogramBins)
/// is an upper bound on the nonzero bins (all ranks < bins); the summation
/// visits exactly the nonzero bins in ascending order, so the result
/// depends only on the histogram, never on the bound or on how the
/// histogram was built.
double EstimateFromHistogram(const uint32_t* hist, size_t bins, size_t m);

/// The kernel table for the dispatched target. Resolution happens once per
/// process: IPIN_SIMD env override if runnable, else the best CPUID-detected
/// target; the choice is logged and published as the sketch.kernel.* gauges.
const KernelOps& Dispatched();

/// The target Dispatched() resolved to.
SimdTarget DispatchedTarget();

/// Kernel table for an explicit target, or nullptr when this build/CPU
/// cannot run it. The fuzz tests iterate all runnable targets.
const KernelOps* KernelsFor(SimdTarget target);

/// Convenience wrappers over Dispatched().
inline void CellwiseMaxU8(uint8_t* dst, const uint8_t* src, size_t n) {
  Dispatched().cellwise_max_u8(dst, src, n);
}
inline double EstimateFromRanksDispatched(std::span<const uint8_t> ranks) {
  return Dispatched().estimate_from_ranks(ranks.data(), ranks.size());
}

}  // namespace ipin::kernels

#endif  // IPIN_SKETCH_KERNELS_H_
