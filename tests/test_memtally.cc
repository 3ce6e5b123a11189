#include "ipin/obs/memtally.h"

#include <cstdint>
#include <unordered_map>
#include <vector>

#include <gtest/gtest.h>

#include "ipin/core/irs_exact.h"
#include "ipin/core/source_sets.h"
#include "ipin/graph/interaction_graph.h"
#include "ipin/obs/metrics.h"
#include "ipin/sketch/vhll.h"

namespace ipin {
namespace {

using obs::GetMemoryTally;
using obs::MemoryTally;
using obs::ScopedMemoryCharge;
using obs::TallyAllocator;

// Tallies are process-global and other tests in this binary allocate into
// them, so every assertion here works on DELTAS around a local workload.

TEST(MemoryTallyTest, AddSubAndPeak) {
  MemoryTally tally("test");
  EXPECT_EQ(tally.CurrentBytes(), 0);
  tally.Add(100);
  tally.Add(50);
  EXPECT_EQ(tally.CurrentBytes(), 150);
  EXPECT_EQ(tally.PeakBytes(), 150);
  tally.Sub(120);
  EXPECT_EQ(tally.CurrentBytes(), 30);
  EXPECT_EQ(tally.PeakBytes(), 150);  // peak sticks
  tally.ResetPeak();
  EXPECT_EQ(tally.PeakBytes(), 30);
  tally.Add(10);
  EXPECT_EQ(tally.PeakBytes(), 40);
}

TEST(MemoryTallyTest, RegistryReturnsSameTallyForSameName) {
  MemoryTally& a = GetMemoryTally("test_registry_same");
  MemoryTally& b = GetMemoryTally("test_registry_same");
  EXPECT_EQ(&a, &b);
  EXPECT_EQ(a.name(), "test_registry_same");
  bool found = false;
  for (const MemoryTally* t : obs::AllMemoryTallies()) {
    found = found || t == &a;
  }
  EXPECT_TRUE(found);
}

MemoryTally& VectorTestTally() {
  static MemoryTally& tally = GetMemoryTally("test_vector_alloc");
  return tally;
}

TEST(TallyAllocatorTest, VectorChargesExactCapacityBytes) {
  MemoryTally& tally = VectorTestTally();
  const int64_t before = tally.CurrentBytes();
  {
    std::vector<uint64_t, TallyAllocator<uint64_t, &VectorTestTally>> v;
    v.reserve(1000);
    EXPECT_EQ(tally.CurrentBytes() - before,
              static_cast<int64_t>(1000 * sizeof(uint64_t)));
    for (int i = 0; i < 5000; ++i) v.push_back(static_cast<uint64_t>(i));
    // Whatever growth policy ran, the tally must equal capacity * width.
    EXPECT_EQ(tally.CurrentBytes() - before,
              static_cast<int64_t>(v.capacity() * sizeof(uint64_t)));
  }
  EXPECT_EQ(tally.CurrentBytes(), before);  // destructor returned everything
}

TEST(TallyAllocatorTest, ScopedChargeResizesAndReleases) {
  MemoryTally& tally = GetMemoryTally("test_scoped");
  const int64_t before = tally.CurrentBytes();
  {
    ScopedMemoryCharge charge(tally, 4096);
    EXPECT_EQ(tally.CurrentBytes() - before, 4096);
    charge.Resize(10000);
    EXPECT_EQ(tally.CurrentBytes() - before, 10000);
    charge.Resize(2000);
    EXPECT_EQ(tally.CurrentBytes() - before, 2000);
  }
  EXPECT_EQ(tally.CurrentBytes(), before);
}

// Builds a deterministic dense-ish interaction graph for workload tests.
InteractionGraph TestGraph(size_t num_nodes, size_t num_interactions) {
  std::vector<Interaction> edges;
  uint64_t state = 12345;
  for (size_t i = 0; i < num_interactions; ++i) {
    state = state * 6364136223846793005ULL + 1442695040888963407ULL;
    const NodeId u = static_cast<NodeId>((state >> 33) % num_nodes);
    state = state * 6364136223846793005ULL + 1442695040888963407ULL;
    const NodeId v = static_cast<NodeId>((state >> 33) % num_nodes);
    edges.push_back({u, v, static_cast<Timestamp>(i)});
  }
  return InteractionGraph(num_nodes, std::move(edges));
}

// Acceptance criterion: mem.irs_exact.bytes agrees with independently
// computed allocator-request bytes within +/-10%. The independent number
// sums, per live summary map, node allocations (one per element) and the
// bucket array — exactly what libstdc++'s unordered_map requests, computed
// from container shape rather than from the allocator hooks under test.
TEST(TallyAllocatorTest, IrsExactTallyMatchesContainerAccounting) {
  obs::MemoryTally& tally = IrsExactMemTally();
  const int64_t before = tally.CurrentBytes();

  const InteractionGraph graph = TestGraph(400, 4000);
  const IrsExact irs = IrsExact::Compute(graph, 64);
  const int64_t measured = tally.CurrentBytes() - before;

  // Per element one node: {next pointer, pair<const NodeId, Timestamp>},
  // padded to pointer alignment. Per map one bucket array of pointers
  // (except the static single-bucket state some implementations start with,
  // whose bucket_count is tiny — counting it anyway stays within the band).
  int64_t expected = 0;
  const size_t node_bytes =
      sizeof(void*) +
      ((sizeof(std::pair<const NodeId, Timestamp>) + sizeof(void*) - 1) /
       sizeof(void*)) * sizeof(void*);
  for (NodeId u = 0; u < graph.num_nodes(); ++u) {
    const auto& summary = irs.Summary(u);
    expected += static_cast<int64_t>(summary.size() * node_bytes);
    if (summary.bucket_count() > 1) {
      expected +=
          static_cast<int64_t>(summary.bucket_count() * sizeof(void*));
    }
  }

  ASSERT_GT(measured, 0);
  ASSERT_GT(expected, 0);
  EXPECT_NEAR(static_cast<double>(measured), static_cast<double>(expected),
              0.10 * static_cast<double>(expected))
      << "measured=" << measured << " expected=" << expected;
}

// mem.vhll.bytes is charged per node: each sketch's three buffers (entries,
// per-cell offsets, max-rank cache) go through the tally, so the tally must
// equal the sum of the sketches' MemoryUsageBytes exactly. The independent
// bound: each sketch holds beta + 1 u32 offsets and beta u8 max ranks, and
// its entry buffer lies between the live entries and 1.5x growth slack on
// them (plus the growth step's rounding).
TEST(TallyAllocatorTest, VhllTallyMatchesPerNodeAccounting) {
  obs::MemoryTally& tally = obs::GetMemoryTally("vhll");
  const int64_t before = tally.CurrentBytes();

  std::vector<VersionedHll> sketches;
  sketches.reserve(8);
  uint64_t state = 999;
  for (int s = 0; s < 8; ++s) {
    sketches.emplace_back(/*precision=*/6, /*salt=*/7);
    for (int i = 0; i < 2000; ++i) {
      state = state * 6364136223846793005ULL + 1442695040888963407ULL;
      sketches.back().Add(state >> 8, static_cast<Timestamp>(i % 97));
    }
  }
  const int64_t measured = tally.CurrentBytes() - before;

  int64_t reported = 0;
  for (const VersionedHll& sketch : sketches) {
    const size_t beta = static_cast<size_t>(1) << sketch.precision();
    const size_t fixed = (beta + 1) * sizeof(uint32_t) + beta;
    const size_t payload = sketch.NumEntries() * sizeof(VersionedHll::Entry);
    const size_t bytes = sketch.MemoryUsageBytes();
    EXPECT_GE(bytes, fixed + payload);
    EXPECT_LE(bytes, fixed + payload + payload / 2 +
                         2 * sizeof(VersionedHll::Entry));
    reported += static_cast<int64_t>(bytes);
  }

  ASSERT_GT(measured, 0);
  EXPECT_EQ(measured, reported);
  sketches.clear();
  EXPECT_EQ(tally.CurrentBytes(), before);
}

TEST(MemoryTallyTest, SourceSetsShareIrsExactTally) {
  obs::MemoryTally& tally = IrsExactMemTally();
  const int64_t before = tally.CurrentBytes();
  const InteractionGraph graph = TestGraph(100, 800);
  const SourceSetExact sets = SourceSetExact::Compute(graph, 32);
  EXPECT_GT(tally.CurrentBytes(), before);
  EXPECT_GT(sets.TotalSummaryEntries(), 0u);
}

TEST(MemoryTallyTest, PublishMemoryGaugesMirrorsTallies) {
  obs::MemoryTally& tally = GetMemoryTally("test_publish");
  tally.Add(12345);
  obs::PublishMemoryGauges();
  const obs::MetricsSnapshot snapshot =
      obs::MetricsRegistry::Global().Snapshot();
  double bytes = -1.0, peak = -1.0;
  for (const auto& [name, value] : snapshot.gauges) {
    if (name == "mem.test_publish.bytes") bytes = value;
    if (name == "mem.test_publish.peak_bytes") peak = value;
  }
  EXPECT_EQ(bytes, static_cast<double>(tally.CurrentBytes()));
  EXPECT_EQ(peak, static_cast<double>(tally.PeakBytes()));
  tally.Sub(12345);
}

#ifdef __unix__
TEST(MemoryTallyTest, RssIsNonZeroOnLinux) {
  EXPECT_GT(obs::CurrentRssBytes(), 0u);
}
#endif

}  // namespace
}  // namespace ipin
