#include "ipin/sketch/sketch_arena.h"

#include <algorithm>
#include <memory>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "ipin/common/random.h"
#include "ipin/common/thread_pool.h"
#include "ipin/core/irs_approx.h"
#include "ipin/core/source_sets.h"
#include "ipin/graph/interaction_graph.h"

namespace ipin {
namespace {

constexpr int kPrecision = 6;
constexpr uint64_t kSalt = 42;

// A ragged population: some nodes absent, some empty-but-present, some
// dense — the three shapes the arena must pack distinctly.
std::vector<std::unique_ptr<VersionedHll>> BuildSketches(size_t num_nodes,
                                                         uint64_t seed) {
  Rng rng(seed);
  std::vector<std::unique_ptr<VersionedHll>> sketches(num_nodes);
  for (size_t u = 0; u < num_nodes; ++u) {
    if (u % 3 == 1) continue;  // absent
    sketches[u] = std::make_unique<VersionedHll>(kPrecision, kSalt);
    if (u % 3 == 2) continue;  // allocated but empty
    const size_t items = 1 + rng.NextBounded(300);
    for (size_t i = 0; i < items; ++i) {
      sketches[u]->Add(rng.NextUint64(),
                       static_cast<Timestamp>(rng.NextBounded(1000)));
    }
  }
  return sketches;
}

TEST(SketchArenaTest, SerializeNodeIsByteIdenticalToVersionedHll) {
  const auto sketches = BuildSketches(20, 1);
  const SketchArena arena(kPrecision, kSalt, std::span(sketches));
  for (NodeId u = 0; u < 20; ++u) {
    ASSERT_EQ(arena.has_node(u), sketches[u] != nullptr) << "node " << u;
    if (sketches[u] == nullptr) continue;
    std::string want, got;
    sketches[u]->Serialize(&want);
    arena.SerializeNode(u, &got);
    EXPECT_EQ(got, want) << "node " << u;
  }
}

TEST(SketchArenaTest, RankPlaneAndCountsMatchSource) {
  const auto sketches = BuildSketches(20, 2);
  const SketchArena arena(kPrecision, kSalt, std::span(sketches));
  size_t allocated = 0;
  size_t entries = 0;
  for (NodeId u = 0; u < 20; ++u) {
    EXPECT_TRUE(arena.CheckNodeInvariants(u)) << "node " << u;
    const auto row = arena.rank_row(u);
    ASSERT_EQ(row.size(), size_t{1} << kPrecision);
    if (sketches[u] == nullptr) {
      for (const uint8_t r : row) EXPECT_EQ(r, 0) << "absent node " << u;
      EXPECT_EQ(arena.NodeNumEntries(u), 0u);
      continue;
    }
    ++allocated;
    entries += sketches[u]->NumEntries();
    EXPECT_EQ(arena.NodeNumEntries(u), sketches[u]->NumEntries());
    const auto want = sketches[u]->max_ranks();
    EXPECT_TRUE(std::equal(row.begin(), row.end(), want.begin(), want.end()))
        << "node " << u;
  }
  EXPECT_EQ(arena.NumAllocated(), allocated);
  EXPECT_EQ(arena.TotalEntries(), entries);
  EXPECT_GT(arena.MemoryUsageBytes(), 0u);
}

// Sketches at `precision` with null gaps: every third node absent, plus one
// run of absent nodes, and some present nodes left empty.
std::vector<std::unique_ptr<VersionedHll>> GappySketches(int precision,
                                                         size_t num_nodes,
                                                         uint64_t seed) {
  Rng rng(seed);
  std::vector<std::unique_ptr<VersionedHll>> sketches(num_nodes);
  for (size_t u = 0; u < num_nodes; ++u) {
    if (u % 3 == 1 || (u >= num_nodes / 2 && u < num_nodes / 2 + 5)) continue;
    sketches[u] = std::make_unique<VersionedHll>(precision, kSalt);
    const size_t items = u % 7 == 0 ? 0 : rng.NextBounded(400);
    for (size_t i = 0; i < items; ++i) {
      sketches[u]->Add(rng.NextUint64(),
                       static_cast<Timestamp>(rng.NextBounded(1000)));
    }
  }
  return sketches;
}

SketchArena SealWithThreads(size_t threads, int precision,
                            const std::vector<std::unique_ptr<VersionedHll>>&
                                sketches) {
  SetGlobalThreads(threads);
  SketchArena arena(precision, kSalt, std::span(sketches));
  SetGlobalThreads(0);
  return arena;
}

void ExpectSamePlanes(const SketchArena& a, const SketchArena& b) {
  const SketchArena::Planes pa = a.planes();
  const SketchArena::Planes pb = b.planes();
  EXPECT_TRUE(std::ranges::equal(pa.rank_plane, pb.rank_plane));
  EXPECT_TRUE(std::ranges::equal(pa.slot_of, pb.slot_of));
  EXPECT_TRUE(std::ranges::equal(pa.cell_counts, pb.cell_counts));
  EXPECT_TRUE(std::ranges::equal(pa.slot_entry_base, pb.slot_entry_base));
  EXPECT_TRUE(std::ranges::equal(pa.entry_ranks, pb.entry_ranks));
  EXPECT_TRUE(std::ranges::equal(pa.entry_times, pb.entry_times));
}

// The seal packs nodes in parallel; at 1 and 4 threads every packed array
// must come out byte-equal, at the smallest and largest precision and for
// an empty index.
TEST(SketchArenaTest, ParallelSealIsByteIdenticalToSequential) {
  for (const auto& [precision, num_nodes] :
       {std::pair{4, size_t{20000}}, std::pair{18, size_t{24}}}) {
    const auto sketches = GappySketches(precision, num_nodes, 6);
    const SketchArena sequential = SealWithThreads(1, precision, sketches);
    const SketchArena parallel = SealWithThreads(4, precision, sketches);
    EXPECT_GT(parallel.TotalEntries(), 0u);
    ExpectSamePlanes(sequential, parallel);
    for (NodeId u = 0; u < num_nodes; u += 97) {
      EXPECT_TRUE(parallel.CheckNodeInvariants(u)) << "node " << u;
    }
  }
  for (const size_t num_nodes : {size_t{0}, size_t{600}}) {
    const std::vector<std::unique_ptr<VersionedHll>> empty(num_nodes);
    const SketchArena sequential = SealWithThreads(1, 9, empty);
    const SketchArena parallel = SealWithThreads(4, 9, empty);
    EXPECT_EQ(parallel.NumAllocated(), 0u);
    ExpectSamePlanes(sequential, parallel);
  }
}

TEST(SketchArenaTest, EstimatesMatchSourceSketches) {
  const auto sketches = BuildSketches(20, 3);
  const SketchArena arena(kPrecision, kSalt, std::span(sketches));
  std::vector<uint8_t> scratch_a, scratch_b;
  for (NodeId u = 0; u < 20; ++u) {
    if (sketches[u] == nullptr) continue;
    EXPECT_EQ(arena.EstimateNode(u), sketches[u]->Estimate()) << "node " << u;
    for (const Timestamp bound : {Timestamp{0}, Timestamp{100},
                                  Timestamp{500}, Timestamp{2000}}) {
      EXPECT_EQ(arena.EstimateNodeBefore(u, bound, &scratch_a),
                sketches[u]->EstimateBefore(bound, &scratch_b))
          << "node " << u << " bound " << bound;
    }
  }
}

TEST(SketchArenaTest, MaterializeRoundTrips) {
  const auto sketches = BuildSketches(20, 4);
  const SketchArena arena(kPrecision, kSalt, std::span(sketches));
  for (NodeId u = 0; u < 20; ++u) {
    if (sketches[u] == nullptr) continue;
    const auto copy = arena.MaterializeNode(u);
    ASSERT_NE(copy, nullptr);
    EXPECT_TRUE(copy->CheckInvariants());
    std::string want, got;
    sketches[u]->Serialize(&want);
    copy->Serialize(&got);
    EXPECT_EQ(got, want) << "node " << u;
  }
}

TEST(SketchArenaTest, ViewAgreesAcrossStorageModes) {
  const auto sketches = BuildSketches(20, 5);
  const SketchArena arena(kPrecision, kSalt, std::span(sketches));
  std::vector<uint8_t> scratch_a, scratch_b;
  for (NodeId u = 0; u < 20; ++u) {
    const SketchView build_view(sketches[u].get());
    const SketchView sealed_view(&arena, u);
    ASSERT_EQ(build_view.valid(), sealed_view.valid()) << "node " << u;
    if (!build_view) continue;
    EXPECT_EQ(sealed_view.precision(), build_view.precision());
    EXPECT_EQ(sealed_view.salt(), build_view.salt());
    EXPECT_EQ(sealed_view.NumEntries(), build_view.NumEntries());
    EXPECT_EQ(sealed_view.Estimate(), build_view.Estimate());
    EXPECT_TRUE(sealed_view.CheckInvariants());
    std::string a, b;
    build_view.Serialize(&a);
    sealed_view.Serialize(&b);
    EXPECT_EQ(b, a) << "node " << u;
    EXPECT_EQ(sealed_view.EstimateBefore(400, &scratch_a),
              build_view.EstimateBefore(400, &scratch_b))
        << "node " << u;
    std::vector<uint8_t> ra(size_t{1} << kPrecision, 1);
    std::vector<uint8_t> rb(size_t{1} << kPrecision, 1);
    build_view.MaxRanks(400, &ra);
    sealed_view.MaxRanks(400, &rb);
    EXPECT_EQ(rb, ra) << "node " << u;
  }
}

InteractionGraph TestGraph(size_t num_nodes, size_t num_edges, uint64_t seed) {
  Rng rng(seed);
  InteractionGraph g(num_nodes);
  std::vector<Interaction> edges;
  for (size_t i = 0; i < num_edges; ++i) {
    g.AddInteraction(static_cast<NodeId>(rng.NextBounded(num_nodes)),
                     static_cast<NodeId>(rng.NextBounded(num_nodes)),
                     static_cast<Timestamp>(rng.NextBounded(2000)));
  }
  g.SortByTime();
  return g;
}

// Sealing must not change a single answer: an unsealed hand-fed build and
// an explicitly sealed Compute() result agree bit for bit on every query
// surface.
TEST(SketchArenaTest, SealedIrsAnswersAreBitIdenticalToUnsealed) {
  const InteractionGraph g = TestGraph(40, 800, 9);
  IrsApproxOptions options;
  options.precision = kPrecision;
  options.salt = kSalt;

  IrsApprox streamed(g.num_nodes(), 300, options);
  const auto& edges = g.interactions();
  for (size_t i = edges.size(); i > 0; --i) {
    streamed.ProcessInteraction(edges[i - 1]);
  }
  ASSERT_FALSE(streamed.sealed());

  IrsApprox sealed = IrsApprox::Compute(g, 300, options);
  ASSERT_FALSE(sealed.sealed());  // builds return unsealed
  sealed.Seal();
  ASSERT_TRUE(sealed.sealed());
  ASSERT_NE(sealed.arena(), nullptr);

  EXPECT_EQ(sealed.NumAllocatedSketches(), streamed.NumAllocatedSketches());
  EXPECT_EQ(sealed.TotalSketchEntries(), streamed.TotalSketchEntries());
  EXPECT_EQ(sealed.TotalInsertAttempts(), streamed.TotalInsertAttempts());
  EXPECT_EQ(sealed.TotalEvictions(), streamed.TotalEvictions());

  std::vector<uint8_t> scratch;
  for (NodeId u = 0; u < g.num_nodes(); ++u) {
    ASSERT_EQ(sealed.Sketch(u).valid(), streamed.Sketch(u).valid())
        << "node " << u;
    EXPECT_EQ(sealed.EstimateIrsSize(u), streamed.EstimateIrsSize(u))
        << "node " << u;
    if (!sealed.Sketch(u)) continue;
    std::string a, b;
    streamed.Sketch(u).Serialize(&a);
    sealed.Sketch(u).Serialize(&b);
    EXPECT_EQ(b, a) << "node " << u;
  }
  const std::vector<std::vector<NodeId>> seed_sets = {
      {0}, {1, 2, 3}, {4, 9, 14, 19, 24}, {39}};
  for (const auto& seeds : seed_sets) {
    EXPECT_EQ(sealed.EstimateUnionSize(seeds),
              streamed.EstimateUnionSize(seeds));
    EXPECT_EQ(sealed.EstimateUnionSize(seeds, &scratch),
              streamed.EstimateUnionSize(seeds));
  }
}

TEST(SketchArenaTest, SealedSourceSetsAnswersAreBitIdenticalToUnsealed) {
  const InteractionGraph g = TestGraph(40, 800, 10);
  IrsApproxOptions options;
  options.precision = kPrecision;
  options.salt = kSalt;

  SourceSetApprox streamed(g.num_nodes(), 300, options);
  for (const Interaction& e : g.interactions()) {
    streamed.ProcessInteraction(e);
  }
  ASSERT_FALSE(streamed.sealed());

  const SourceSetApprox sealed = SourceSetApprox::Compute(g, 300, options);
  ASSERT_TRUE(sealed.sealed());

  for (NodeId v = 0; v < g.num_nodes(); ++v) {
    ASSERT_EQ(sealed.Sketch(v).valid(), streamed.Sketch(v).valid())
        << "node " << v;
    EXPECT_EQ(sealed.EstimateSourceSetSize(v),
              streamed.EstimateSourceSetSize(v))
        << "node " << v;
  }
  EXPECT_EQ(sealed.EstimateUnionSize(std::vector<NodeId>{1, 5, 9}),
            streamed.EstimateUnionSize(std::vector<NodeId>{1, 5, 9}));

  // Sealing the streamed instance by hand converges the storage modes.
  streamed.Seal();
  EXPECT_TRUE(streamed.sealed());
  EXPECT_EQ(sealed.TotalSketchEntries(), streamed.TotalSketchEntries());
}

TEST(SketchArenaDeathTest, ProcessInteractionAfterSealDies) {
  ::testing::FLAGS_gtest_death_test_style = "threadsafe";
  InteractionGraph g(4);
  g.AddInteraction(0, 1, 5);
  g.SortByTime();
  IrsApproxOptions options;
  options.precision = kPrecision;
  IrsApprox sealed = IrsApprox::Compute(g, 10, options);
  sealed.Seal();
  EXPECT_DEATH(sealed.ProcessInteraction({0, 1, 4}), "sealed");
}

}  // namespace
}  // namespace ipin
