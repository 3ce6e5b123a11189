#include "ipin/sketch/kernels.h"

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdlib>
#include <cstring>
#include <string>

#include "ipin/common/logging.h"
#include "ipin/obs/metrics.h"
#include "ipin/sketch/estimators.h"

#if defined(__x86_64__) || defined(__i386__)
#define IPIN_KERNELS_X86 1
#include <immintrin.h>
#endif
#if defined(__aarch64__)
#define IPIN_KERNELS_NEON 1
#include <arm_neon.h>
#endif

// The scalar implementations are the reference the fuzz tests compare
// against AND the baseline the benchmarks measure speedups against, so the
// compiler must not auto-vectorize them (-O3 would happily turn the byte
// max loop into the very AVX2 code we are comparing to).
#if defined(__GNUC__) && !defined(__clang__)
#define IPIN_NO_AUTOVEC __attribute__((optimize("no-tree-vectorize")))
#else
#define IPIN_NO_AUTOVEC
#endif

namespace ipin::kernels {
namespace {

// ---------------------------------------------------------------------------
// Shared estimate epilogue.
//
// Deserialized ranks are only bounded by the list-length invariant, not by
// value, so the histogram covers the full uint8_t range. Each term
// hist[r] * 2^-r is exact in double (hist[r] <= 2^18 well under 2^53, the
// power is a power of two), and the terms are summed in fixed ascending-rank
// order, so the resulting double depends only on the histogram contents —
// never on how a target built the histogram. That is the bit-identity
// argument for the one floating-point kernel.
// ---------------------------------------------------------------------------

struct Pow2NegTable {
  double value[kRankHistogramBins];
  Pow2NegTable() {
    for (size_t r = 0; r < kRankHistogramBins; ++r) {
      value[r] = std::ldexp(1.0, -static_cast<int>(r));
    }
  }
};

const Pow2NegTable& Pow2Neg() {
  static const Pow2NegTable table;
  return table;
}

}  // namespace

// `bins` is an upper bound on the nonzero region (all ranks < bins): the
// summation still visits exactly the nonzero bins in ascending order, so
// the result is bit-identical whatever bound a target derives.
double EstimateFromHistogram(const uint32_t* hist, size_t bins, size_t m) {
  const Pow2NegTable& table = Pow2Neg();
  double inverse_sum = 0.0;
  for (size_t r = 0; r < bins; ++r) {
    if (hist[r] != 0) {
      inverse_sum += static_cast<double>(hist[r]) * table.value[r];
    }
  }
  const size_t zeros = hist[0];
  const double md = static_cast<double>(m);
  const double raw = HllAlpha(m) * md * md / inverse_sum;
  if (raw <= 2.5 * md && zeros > 0) {
    // Linear counting in the small-cardinality regime.
    return md * std::log(md / static_cast<double>(zeros));
  }
  return raw;
}

namespace {

// ---------------------------------------------------------------------------
// Scalar reference kernels.
// ---------------------------------------------------------------------------

IPIN_NO_AUTOVEC
void CellwiseMaxU8Scalar(uint8_t* dst, const uint8_t* src, size_t n) {
  for (size_t i = 0; i < n; ++i) {
    const uint8_t s = src[i];
    if (s > dst[i]) dst[i] = s;
  }
}

IPIN_NO_AUTOVEC
double EstimateFromRanksScalar(const uint8_t* ranks, size_t n) {
  uint32_t hist[kRankHistogramBins] = {0};
  for (size_t i = 0; i < n; ++i) ++hist[ranks[i]];
  return EstimateFromHistogram(hist, kRankHistogramBins, n);
}

// Shared fast histogram build for the SIMD targets. Rank data is geometric
// (half the cells hold rank 1), so a single histogram stalls on
// store-to-load forwarding between back-to-back increments of the same bin;
// eight interleaved sub-histograms fed from one u64 load break that chain.
// The caller passes `bins` = max rank + 1 (from a vector max-reduce) so
// zeroing and merging touch only the live prefix instead of all 256 bins —
// that fixed cost is what would otherwise swamp small precisions. Integer
// adds throughout: the merged histogram is exactly the scalar one.
double EstimateInterleaved(const uint8_t* ranks, size_t n, size_t bins) {
  uint32_t hist[8][kRankHistogramBins];
  for (auto& h : hist) std::memset(h, 0, bins * sizeof(uint32_t));
  size_t i = 0;
  for (; i + 8 <= n; i += 8) {
    uint64_t w;
    std::memcpy(&w, ranks + i, sizeof(w));
    ++hist[0][w & 0xff];
    ++hist[1][(w >> 8) & 0xff];
    ++hist[2][(w >> 16) & 0xff];
    ++hist[3][(w >> 24) & 0xff];
    ++hist[4][(w >> 32) & 0xff];
    ++hist[5][(w >> 40) & 0xff];
    ++hist[6][(w >> 48) & 0xff];
    ++hist[7][(w >> 56) & 0xff];
  }
  for (; i < n; ++i) ++hist[0][ranks[i]];
  for (size_t r = 0; r < bins; ++r) {
    for (int h = 1; h < 8; ++h) hist[0][r] += hist[h][r];
  }
  return EstimateFromHistogram(hist[0], bins, n);
}

// One raised cell of raise_histogram_u8: every target funnels its changed
// cells through here, so the histogram update is the same integer moves.
inline void RaiseCell(uint8_t from, uint8_t to, uint32_t* hist,
                      size_t* bound) {
  --hist[from];
  ++hist[to];
  *bound = std::max(*bound, static_cast<size_t>(to) + 1);
}

IPIN_NO_AUTOVEC
size_t RaiseHistogramScalar(const uint8_t* covered, const uint8_t* row,
                            size_t n, uint32_t* hist) {
  size_t bound = 0;
  for (size_t i = 0; i < n; ++i) {
    if (row[i] > covered[i]) RaiseCell(covered[i], row[i], hist, &bound);
  }
  return bound;
}

// Raises the cells whose bits are set in `mask` (bit b = cell base + b).
inline void RaiseMasked(uint64_t mask, const uint8_t* covered,
                        const uint8_t* row, uint32_t* hist, size_t* bound) {
  while (mask != 0) {
    const int b = std::countr_zero(mask);
    RaiseCell(covered[b], row[b], hist, bound);
    mask &= mask - 1;
  }
}

IPIN_NO_AUTOVEC
void BoundedMaxIntoScalar(const uint8_t* counts, const uint8_t* ranks,
                          const int64_t* times, size_t num_cells,
                          size_t /*total*/, int64_t bound, uint8_t* dst) {
  size_t base = 0;
  for (size_t c = 0; c < num_cells; ++c) {
    const size_t n = counts[c];
    // Times ascend within a cell, so the in-window entries are a prefix;
    // ranks strictly ascend, so the prefix's max rank is its last entry.
    size_t k = 0;
    while (k < n && times[base + k] < bound) ++k;
    if (k > 0) {
      const uint8_t r = ranks[base + k - 1];
      if (r > dst[c]) dst[c] = r;
    }
    base += n;
  }
}

constexpr KernelOps kScalarOps = {
    &CellwiseMaxU8Scalar,
    &EstimateFromRanksScalar,
    &RaiseHistogramScalar,
    &BoundedMaxIntoScalar,
};

// ---------------------------------------------------------------------------
// SSE2 (x86_64 baseline — always runnable there).
// ---------------------------------------------------------------------------

#ifdef IPIN_KERNELS_X86

void CellwiseMaxU8Sse2(uint8_t* dst, const uint8_t* src, size_t n) {
  size_t i = 0;
  for (; i + 16 <= n; i += 16) {
    const __m128i d = _mm_loadu_si128(reinterpret_cast<const __m128i*>(dst + i));
    const __m128i s = _mm_loadu_si128(reinterpret_cast<const __m128i*>(src + i));
    _mm_storeu_si128(reinterpret_cast<__m128i*>(dst + i), _mm_max_epu8(d, s));
  }
  for (; i < n; ++i) {
    if (src[i] > dst[i]) dst[i] = src[i];
  }
}

double EstimateFromRanksSse2(const uint8_t* ranks, size_t n) {
  __m128i m = _mm_setzero_si128();
  size_t i = 0;
  for (; i + 16 <= n; i += 16) {
    m = _mm_max_epu8(
        m, _mm_loadu_si128(reinterpret_cast<const __m128i*>(ranks + i)));
  }
  m = _mm_max_epu8(m, _mm_srli_si128(m, 8));
  m = _mm_max_epu8(m, _mm_srli_si128(m, 4));
  m = _mm_max_epu8(m, _mm_srli_si128(m, 2));
  m = _mm_max_epu8(m, _mm_srli_si128(m, 1));
  uint8_t rmax = static_cast<uint8_t>(_mm_cvtsi128_si32(m) & 0xff);
  for (; i < n; ++i) rmax = std::max(rmax, ranks[i]);
  return EstimateInterleaved(ranks, n, static_cast<size_t>(rmax) + 1);
}

// Bit i set iff row[i] > covered[i] over 16 cells. SSE2 has no unsigned
// byte compare: row <= covered exactly where max(row, covered) == covered.
inline unsigned RaisedMask16(const uint8_t* covered, const uint8_t* row) {
  const __m128i c = _mm_loadu_si128(reinterpret_cast<const __m128i*>(covered));
  const __m128i r = _mm_loadu_si128(reinterpret_cast<const __m128i*>(row));
  const unsigned not_raised = static_cast<unsigned>(
      _mm_movemask_epi8(_mm_cmpeq_epi8(_mm_max_epu8(r, c), c)));
  return ~not_raised & 0xFFFFu;
}

size_t RaiseHistogramSse2(const uint8_t* covered, const uint8_t* row,
                          size_t n, uint32_t* hist) {
  size_t bound = 0;
  size_t i = 0;
  for (; i + 16 <= n; i += 16) {
    RaiseMasked(RaisedMask16(covered + i, row + i), covered + i, row + i, hist,
                &bound);
  }
  for (; i < n; ++i) {
    if (row[i] > covered[i]) RaiseCell(covered[i], row[i], hist, &bound);
  }
  return bound;
}

constexpr KernelOps kSse2Ops = {
    &CellwiseMaxU8Sse2,
    &EstimateFromRanksSse2,
    &RaiseHistogramSse2,
    // SSE2 has no packed 64-bit compare; the per-cell walk is short (<= 64
    // entries) and branchy, so the scalar routine is the right tool.
    &BoundedMaxIntoScalar,
};

// ---------------------------------------------------------------------------
// AVX2 (compiled with a target attribute, entered only after CPUID check).
// ---------------------------------------------------------------------------

__attribute__((target("avx2"))) void CellwiseMaxU8Avx2(uint8_t* dst,
                                                       const uint8_t* src,
                                                       size_t n) {
  size_t i = 0;
  for (; i + 64 <= n; i += 64) {
    const __m256i d0 =
        _mm256_loadu_si256(reinterpret_cast<const __m256i*>(dst + i));
    const __m256i d1 =
        _mm256_loadu_si256(reinterpret_cast<const __m256i*>(dst + i + 32));
    const __m256i s0 =
        _mm256_loadu_si256(reinterpret_cast<const __m256i*>(src + i));
    const __m256i s1 =
        _mm256_loadu_si256(reinterpret_cast<const __m256i*>(src + i + 32));
    _mm256_storeu_si256(reinterpret_cast<__m256i*>(dst + i),
                        _mm256_max_epu8(d0, s0));
    _mm256_storeu_si256(reinterpret_cast<__m256i*>(dst + i + 32),
                        _mm256_max_epu8(d1, s1));
  }
  for (; i + 32 <= n; i += 32) {
    const __m256i d =
        _mm256_loadu_si256(reinterpret_cast<const __m256i*>(dst + i));
    const __m256i s =
        _mm256_loadu_si256(reinterpret_cast<const __m256i*>(src + i));
    _mm256_storeu_si256(reinterpret_cast<__m256i*>(dst + i),
                        _mm256_max_epu8(d, s));
  }
  for (; i + 16 <= n; i += 16) {
    const __m128i d = _mm_loadu_si128(reinterpret_cast<const __m128i*>(dst + i));
    const __m128i s = _mm_loadu_si128(reinterpret_cast<const __m128i*>(src + i));
    _mm_storeu_si128(reinterpret_cast<__m128i*>(dst + i), _mm_max_epu8(d, s));
  }
  for (; i < n; ++i) {
    if (src[i] > dst[i]) dst[i] = src[i];
  }
}

__attribute__((target("avx2"))) double EstimateFromRanksAvx2(
    const uint8_t* ranks, size_t n) {
  __m256i m = _mm256_setzero_si256();
  size_t i = 0;
  for (; i + 32 <= n; i += 32) {
    m = _mm256_max_epu8(
        m, _mm256_loadu_si256(reinterpret_cast<const __m256i*>(ranks + i)));
  }
  __m128i m128 = _mm_max_epu8(_mm256_castsi256_si128(m),
                              _mm256_extracti128_si256(m, 1));
  m128 = _mm_max_epu8(m128, _mm_srli_si128(m128, 8));
  m128 = _mm_max_epu8(m128, _mm_srli_si128(m128, 4));
  m128 = _mm_max_epu8(m128, _mm_srli_si128(m128, 2));
  m128 = _mm_max_epu8(m128, _mm_srli_si128(m128, 1));
  uint8_t rmax = static_cast<uint8_t>(_mm_cvtsi128_si32(m128) & 0xff);
  for (; i < n; ++i) rmax = std::max(rmax, ranks[i]);
  return EstimateInterleaved(ranks, n, static_cast<size_t>(rmax) + 1);
}

__attribute__((target("avx2"))) void BoundedMaxIntoAvx2(
    const uint8_t* counts, const uint8_t* ranks, const int64_t* times,
    size_t num_cells, size_t total, int64_t bound, uint8_t* dst) {
  const __m256i bound_v = _mm256_set1_epi64x(bound);
  size_t base = 0;
  for (size_t c = 0; c < num_cells; ++c) {
    const size_t n = counts[c];
    size_t k = 0;
    // Count the `time < bound` prefix four timestamps at a stride; the
    // ascending-time invariant makes the comparison mask a run of ones, so
    // countr_one on the first non-full mask finishes the search.
    while (k + 4 <= n && base + k + 4 <= total) {
      const __m256i t = _mm256_loadu_si256(
          reinterpret_cast<const __m256i*>(times + base + k));
      const unsigned mask = static_cast<unsigned>(
          _mm256_movemask_pd(_mm256_castsi256_pd(_mm256_cmpgt_epi64(bound_v, t))));
      if (mask != 0xFu) {
        k += static_cast<size_t>(std::countr_one(mask));
        goto prefix_done;
      }
      k += 4;
    }
    while (k < n && times[base + k] < bound) ++k;
  prefix_done:
    if (k > 0) {
      const uint8_t r = ranks[base + k - 1];
      if (r > dst[c]) dst[c] = r;
    }
    base += n;
  }
}

__attribute__((target("avx2"))) size_t RaiseHistogramAvx2(
    const uint8_t* covered, const uint8_t* row, size_t n, uint32_t* hist) {
  size_t bound = 0;
  size_t i = 0;
  for (; i + 32 <= n; i += 32) {
    const __m256i c =
        _mm256_loadu_si256(reinterpret_cast<const __m256i*>(covered + i));
    const __m256i r =
        _mm256_loadu_si256(reinterpret_cast<const __m256i*>(row + i));
    const uint32_t not_raised = static_cast<uint32_t>(
        _mm256_movemask_epi8(_mm256_cmpeq_epi8(_mm256_max_epu8(r, c), c)));
    RaiseMasked(~not_raised, covered + i, row + i, hist, &bound);
  }
  // Precision 4 rows (16 cells) are narrower than one AVX2 vector.
  for (; i + 16 <= n; i += 16) {
    RaiseMasked(RaisedMask16(covered + i, row + i), covered + i, row + i, hist,
                &bound);
  }
  for (; i < n; ++i) {
    if (row[i] > covered[i]) RaiseCell(covered[i], row[i], hist, &bound);
  }
  return bound;
}

constexpr KernelOps kAvx2Ops = {
    &CellwiseMaxU8Avx2,
    &EstimateFromRanksAvx2,
    &RaiseHistogramAvx2,
    &BoundedMaxIntoAvx2,
};

#endif  // IPIN_KERNELS_X86

// ---------------------------------------------------------------------------
// NEON (aarch64 baseline).
// ---------------------------------------------------------------------------

#ifdef IPIN_KERNELS_NEON

void CellwiseMaxU8Neon(uint8_t* dst, const uint8_t* src, size_t n) {
  size_t i = 0;
  for (; i + 16 <= n; i += 16) {
    vst1q_u8(dst + i, vmaxq_u8(vld1q_u8(dst + i), vld1q_u8(src + i)));
  }
  for (; i < n; ++i) {
    if (src[i] > dst[i]) dst[i] = src[i];
  }
}

double EstimateFromRanksNeon(const uint8_t* ranks, size_t n) {
  uint8x16_t m = vdupq_n_u8(0);
  size_t i = 0;
  for (; i + 16 <= n; i += 16) {
    m = vmaxq_u8(m, vld1q_u8(ranks + i));
  }
  uint8_t rmax = vmaxvq_u8(m);
  for (; i < n; ++i) rmax = std::max(rmax, ranks[i]);
  return EstimateInterleaved(ranks, n, static_cast<size_t>(rmax) + 1);
}

size_t RaiseHistogramNeon(const uint8_t* covered, const uint8_t* row,
                          size_t n, uint32_t* hist) {
  size_t bound = 0;
  size_t i = 0;
  for (; i + 16 <= n; i += 16) {
    const uint8x16_t raised = vcgtq_u8(vld1q_u8(row + i), vld1q_u8(covered + i));
    // NEON has no movemask: narrow each 0x00/0xFF lane to a nibble, so
    // cell b of the block owns bits [4b, 4b + 4) of the mask.
    uint64_t nibbles = vget_lane_u64(
        vreinterpret_u64_u8(vshrn_n_u16(vreinterpretq_u16_u8(raised), 4)), 0);
    while (nibbles != 0) {
      const int b = std::countr_zero(nibbles) >> 2;
      RaiseCell(covered[i + b], row[i + b], hist, &bound);
      nibbles &= ~(uint64_t{0xF} << (4 * b));
    }
  }
  for (; i < n; ++i) {
    if (row[i] > covered[i]) RaiseCell(covered[i], row[i], hist, &bound);
  }
  return bound;
}

constexpr KernelOps kNeonOps = {
    &CellwiseMaxU8Neon,
    &EstimateFromRanksNeon,
    &RaiseHistogramNeon,
    &BoundedMaxIntoScalar,
};

#endif  // IPIN_KERNELS_NEON

// ---------------------------------------------------------------------------
// Dispatch.
// ---------------------------------------------------------------------------

SimdTarget DetectBestTarget() {
#ifdef IPIN_KERNELS_X86
  if (__builtin_cpu_supports("avx2")) return SimdTarget::kAvx2;
  return SimdTarget::kSse2;
#elif defined(IPIN_KERNELS_NEON)
  return SimdTarget::kNeon;
#else
  return SimdTarget::kScalar;
#endif
}

bool ParseSimdTarget(const std::string& text, SimdTarget* out) {
  std::string lower;
  lower.reserve(text.size());
  for (const char ch : text) {
    lower.push_back(ch >= 'A' && ch <= 'Z' ? static_cast<char>(ch - 'A' + 'a')
                                           : ch);
  }
  if (lower == "scalar") {
    *out = SimdTarget::kScalar;
  } else if (lower == "sse2") {
    *out = SimdTarget::kSse2;
  } else if (lower == "avx2") {
    *out = SimdTarget::kAvx2;
  } else if (lower == "neon") {
    *out = SimdTarget::kNeon;
  } else {
    return false;
  }
  return true;
}

struct Dispatch {
  SimdTarget target;
  const KernelOps* ops;
};

Dispatch ResolveDispatch() {
  SimdTarget target = DetectBestTarget();
  if (const char* env = std::getenv("IPIN_SIMD"); env != nullptr && *env) {
    SimdTarget requested;
    if (!ParseSimdTarget(env, &requested)) {
      LogWarning(std::string("IPIN_SIMD=") + env +
                 " is not a known target (scalar|sse2|avx2|neon); using " +
                 SimdTargetName(target));
    } else if (KernelsFor(requested) == nullptr) {
      LogWarning(std::string("IPIN_SIMD=") + env +
                 " is not runnable on this build/CPU; using " +
                 SimdTargetName(target));
    } else {
      target = requested;
    }
  }
  const KernelOps* ops = KernelsFor(target);
  LogInfo(std::string("sketch kernels dispatched: ") + SimdTargetName(target));
  IPIN_GAUGE_SET("sketch.kernel.target", static_cast<int>(target));
  switch (target) {
    case SimdTarget::kScalar:
      IPIN_GAUGE_SET("sketch.kernel.scalar", 1);
      break;
    case SimdTarget::kSse2:
      IPIN_GAUGE_SET("sketch.kernel.sse2", 1);
      break;
    case SimdTarget::kAvx2:
      IPIN_GAUGE_SET("sketch.kernel.avx2", 1);
      break;
    case SimdTarget::kNeon:
      IPIN_GAUGE_SET("sketch.kernel.neon", 1);
      break;
  }
  return Dispatch{target, ops};
}

const Dispatch& GetDispatch() {
  static const Dispatch dispatch = ResolveDispatch();
  return dispatch;
}

}  // namespace

const char* SimdTargetName(SimdTarget target) {
  switch (target) {
    case SimdTarget::kScalar:
      return "scalar";
    case SimdTarget::kSse2:
      return "sse2";
    case SimdTarget::kAvx2:
      return "avx2";
    case SimdTarget::kNeon:
      return "neon";
  }
  return "unknown";
}

const KernelOps* KernelsFor(SimdTarget target) {
  switch (target) {
    case SimdTarget::kScalar:
      return &kScalarOps;
    case SimdTarget::kSse2:
#ifdef IPIN_KERNELS_X86
      return &kSse2Ops;
#else
      return nullptr;
#endif
    case SimdTarget::kAvx2:
#ifdef IPIN_KERNELS_X86
      return __builtin_cpu_supports("avx2") ? &kAvx2Ops : nullptr;
#else
      return nullptr;
#endif
    case SimdTarget::kNeon:
#ifdef IPIN_KERNELS_NEON
      return &kNeonOps;
#else
      return nullptr;
#endif
  }
  return nullptr;
}

const KernelOps& Dispatched() { return *GetDispatch().ops; }

SimdTarget DispatchedTarget() { return GetDispatch().target; }

}  // namespace ipin::kernels
