#include "ipin/sketch/vhll.h"

#include <algorithm>
#include <cmath>
#include <map>
#include <span>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "ipin/common/random.h"
#include "ipin/sketch/estimators.h"
#include "ipin/sketch/hll.h"

namespace ipin {
namespace {

// Reference model: remembers every (cell, rank, time) triple ever inserted
// and answers per-cell max-rank queries exactly. The vHLL with domination
// pruning must agree with this model for EVERY time bound — that is the
// losslessness property the paper's pruning rule guarantees.
class VhllModel {
 public:
  explicit VhllModel(size_t num_cells) : cells_(num_cells) {}

  void Add(size_t cell, uint8_t rank, Timestamp t) {
    cells_[cell].push_back({rank, t});
  }

  uint8_t MaxRankBefore(size_t cell, Timestamp bound) const {
    uint8_t best = 0;
    for (const auto& [rank, t] : cells_[cell]) {
      if (t < bound && rank > best) best = rank;
    }
    return best;
  }

  uint8_t MaxRank(size_t cell) const {
    uint8_t best = 0;
    for (const auto& [rank, t] : cells_[cell]) {
      (void)t;
      if (rank > best) best = rank;
    }
    return best;
  }

  size_t num_cells() const { return cells_.size(); }

 private:
  struct Pair {
    uint8_t rank;
    Timestamp t;
  };
  std::vector<std::vector<Pair>> cells_;
};

void ExpectAgreesWithModel(const VersionedHll& vhll, const VhllModel& model,
                           std::vector<Timestamp> bounds) {
  for (size_t c = 0; c < model.num_cells(); ++c) {
    const auto& list = vhll.cell(c);
    const uint8_t max_rank = list.empty() ? 0 : list.back().rank;
    EXPECT_EQ(max_rank, model.MaxRank(c)) << "cell " << c;
    for (const Timestamp bound : bounds) {
      uint8_t got = 0;
      for (const auto& e : list) {
        if (e.time >= bound) break;
        got = std::max(got, e.rank);
      }
      EXPECT_EQ(got, model.MaxRankBefore(c, bound))
          << "cell " << c << " bound " << bound;
    }
  }
}

TEST(VhllTest, EmptySketch) {
  const VersionedHll vhll(6);
  EXPECT_DOUBLE_EQ(vhll.Estimate(), 0.0);
  EXPECT_EQ(vhll.NumEntries(), 0u);
  EXPECT_TRUE(vhll.CheckInvariants());
}

TEST(VhllTest, PaperExample3Evolution) {
  // Section 3.2.2, Example 3: items with fixed (cell iota, rank rho) arrive
  // in reverse time order. We drive AddEntry directly with the paper's
  // values and check each intermediate sketch state. Cells are 0..3.
  VersionedHll vhll(4);  // 16 cells; we only use 0..3
  const auto cell_is = [&vhll](size_t c,
                               std::vector<std::pair<int, Timestamp>> want) {
    const auto& list = vhll.cell(c);
    ASSERT_EQ(list.size(), want.size());
    // The paper prints lists newest-first; our storage is ascending time.
    std::sort(want.begin(), want.end(),
              [](const auto& a, const auto& b) { return a.second < b.second; });
    for (size_t i = 0; i < want.size(); ++i) {
      EXPECT_EQ(static_cast<int>(list[i].rank), want[i].first);
      EXPECT_EQ(list[i].time, want[i].second);
    }
  };

  vhll.AddEntry(1, 3, 6);  // (a, t6)
  cell_is(1, {{3, 6}});
  vhll.AddEntry(3, 1, 5);  // (b, t5)
  cell_is(3, {{1, 5}});
  vhll.AddEntry(1, 3, 4);  // (a, t4): same rank, earlier time replaces
  cell_is(1, {{3, 4}});
  vhll.AddEntry(3, 2, 3);  // (c, t3): dominates (1, t5)
  cell_is(3, {{2, 3}});
  vhll.AddEntry(2, 2, 2);  // (d, t2)
  cell_is(2, {{2, 2}});
  vhll.AddEntry(2, 1, 1);  // (e, t1): kept alongside (2, t2)
  cell_is(2, {{2, 2}, {1, 1}});
  EXPECT_TRUE(vhll.CheckInvariants());
}

TEST(VhllTest, DominatedEntryIgnored) {
  VersionedHll vhll(4);
  vhll.AddEntry(0, 5, 10);
  vhll.AddEntry(0, 3, 20);  // (5,10) dominates: earlier and higher rank
  EXPECT_EQ(vhll.cell(0).size(), 1u);
  EXPECT_EQ(vhll.cell(0)[0].rank, 5);
}

TEST(VhllTest, NewEntryRemovesDominatedRun) {
  VersionedHll vhll(4);
  vhll.AddEntry(0, 1, 10);
  vhll.AddEntry(0, 2, 20);
  vhll.AddEntry(0, 3, 30);
  ASSERT_EQ(vhll.cell(0).size(), 3u);
  vhll.AddEntry(0, 2, 5);  // dominates (1,10) and (2,20) but not (3,30)
  ASSERT_EQ(vhll.cell(0).size(), 2u);
  EXPECT_EQ(vhll.cell(0)[0].rank, 2);
  EXPECT_EQ(vhll.cell(0)[0].time, 5);
  EXPECT_EQ(vhll.cell(0)[1].rank, 3);
  EXPECT_TRUE(vhll.CheckInvariants());
}

TEST(VhllTest, EqualTimestampKeepsOnlyMaxRank) {
  VersionedHll vhll(4);
  vhll.AddEntry(0, 2, 10);
  vhll.AddEntry(0, 4, 10);  // same time, higher rank dominates
  ASSERT_EQ(vhll.cell(0).size(), 1u);
  EXPECT_EQ(vhll.cell(0)[0].rank, 4);
  vhll.AddEntry(0, 3, 10);  // dominated by (4, 10)
  ASSERT_EQ(vhll.cell(0).size(), 1u);
  EXPECT_TRUE(vhll.CheckInvariants());
}

TEST(VhllTest, RandomOperationsAgreeWithModelForEveryBound) {
  // Property test: arbitrary (cell, rank, time) insertion order (as produced
  // by merges) must preserve per-cell max rank for every time bound.
  Rng rng(99);
  for (int trial = 0; trial < 20; ++trial) {
    VersionedHll vhll(4);
    VhllModel model(16);
    std::vector<Timestamp> bounds = {0, 1, 5, 10, 25, 50, 100, 1000};
    for (int op = 0; op < 300; ++op) {
      const size_t cell = rng.NextBounded(16);
      const uint8_t rank = static_cast<uint8_t>(1 + rng.NextBounded(20));
      const Timestamp t = static_cast<Timestamp>(rng.NextBounded(100));
      vhll.AddEntry(cell, rank, t);
      model.Add(cell, rank, t);
    }
    ASSERT_TRUE(vhll.CheckInvariants());
    ExpectAgreesWithModel(vhll, model, bounds);
  }
}

TEST(VhllTest, EstimateMatchesPlainHllOnSameItems) {
  // With timestamps ignored, vHLL's overall estimate must equal the classic
  // HLL built from the same items (same precision and salt).
  HyperLogLog hll(8, 5);
  VersionedHll vhll(8, 5);
  Rng rng(3);
  for (int i = 0; i < 5000; ++i) {
    const uint64_t item = rng.NextBounded(2000);
    const Timestamp t = static_cast<Timestamp>(rng.NextBounded(1000));
    hll.Add(item);
    vhll.Add(item, t);
  }
  EXPECT_DOUBLE_EQ(vhll.Estimate(), hll.Estimate());
}

TEST(VhllTest, EstimateBeforeCountsOnlyEarlyItems) {
  VersionedHll vhll(10);
  // 1000 items at time 10, 1000 different items at time 1000.
  for (uint64_t i = 0; i < 1000; ++i) vhll.Add(i, 10);
  for (uint64_t i = 10000; i < 11000; ++i) vhll.Add(i, 1000);
  const double early = vhll.EstimateBefore(500);
  const double all = vhll.Estimate();
  EXPECT_NEAR(early, 1000.0, 150.0);
  EXPECT_NEAR(all, 2000.0, 300.0);
}

TEST(VhllTest, MergeWindowRespectsBound) {
  VersionedHll source(8);
  for (uint64_t i = 0; i < 500; ++i) source.Add(i, 100);        // in window
  for (uint64_t i = 1000; i < 1500; ++i) source.Add(i, 900);    // outside
  VersionedHll target(8);
  // merge_time 50, window 100 -> keep entries with t < 150.
  target.MergeWindow(source, 50, 100);
  EXPECT_NEAR(target.Estimate(), 500.0, 120.0);
  EXPECT_TRUE(target.CheckInvariants());
}

TEST(VhllTest, MergeAllTakesEverything) {
  VersionedHll a(8);
  VersionedHll b(8);
  for (uint64_t i = 0; i < 800; ++i) a.Add(i, 1);
  for (uint64_t i = 400; i < 1200; ++i) b.Add(i, 2);
  a.MergeAll(b);
  EXPECT_NEAR(a.Estimate(), 1200.0, 200.0);
  EXPECT_TRUE(a.CheckInvariants());
}

TEST(VhllTest, MergePreservesPerBoundMaxRanks) {
  // Merged sketch must agree with a model containing the union of entries.
  Rng rng(7);
  for (int trial = 0; trial < 10; ++trial) {
    VersionedHll a(4);
    VersionedHll b(4);
    VhllModel model(16);
    for (int op = 0; op < 150; ++op) {
      const size_t cell = rng.NextBounded(16);
      const uint8_t rank = static_cast<uint8_t>(1 + rng.NextBounded(15));
      const Timestamp t = static_cast<Timestamp>(rng.NextBounded(80));
      if (op % 2 == 0) {
        a.AddEntry(cell, rank, t);
      } else {
        b.AddEntry(cell, rank, t);
      }
      model.Add(cell, rank, t);
    }
    a.MergeAll(b);
    ASSERT_TRUE(a.CheckInvariants());
    ExpectAgreesWithModel(a, model, {0, 10, 20, 40, 79, 80, 200});
  }
}

TEST(VhllTest, CompactExpiredKeepsWindowedQueriesIntact) {
  VersionedHll vhll(8);
  Rng rng(13);
  for (int i = 0; i < 3000; ++i) {
    vhll.Add(rng.NextBounded(5000), static_cast<Timestamp>(rng.NextBounded(1000)));
  }
  const Timestamp frontier = 200;
  const Duration window = 300;
  const double before = vhll.EstimateBefore(frontier + window);
  const size_t entries_before = vhll.NumEntries();
  vhll.CompactExpired(frontier, window);
  EXPECT_LT(vhll.NumEntries(), entries_before);
  EXPECT_DOUBLE_EQ(vhll.EstimateBefore(frontier + window), before);
  EXPECT_TRUE(vhll.CheckInvariants());
}

TEST(VhllTest, CellListsStayLogarithmic) {
  // Lemma 4: expected undominated pairs per cell is O(log inserts). Insert
  // many items in reverse time order and check the max list length is far
  // below the insert count.
  VersionedHll vhll(4);
  Rng rng(21);
  const int n = 20000;
  for (int i = 0; i < n; ++i) {
    vhll.Add(rng.NextUint64(), static_cast<Timestamp>(n - i));
  }
  size_t max_len = 0;
  for (size_t c = 0; c < vhll.num_cells(); ++c) {
    max_len = std::max(max_len, vhll.cell(c).size());
  }
  // ~ln(20000/16 per cell) ~ 7.1 expected; allow generous slack.
  EXPECT_LE(max_len, 40u);
}

TEST(VhllTest, ClearResets) {
  VersionedHll vhll(6);
  vhll.Add(1, 1);
  vhll.Add(2, 2);
  vhll.Clear();
  EXPECT_EQ(vhll.NumEntries(), 0u);
  EXPECT_DOUBLE_EQ(vhll.Estimate(), 0.0);
}

TEST(VhllTest, MemoryGrowsWithEntries) {
  VersionedHll vhll(6);
  const size_t empty_bytes = vhll.MemoryUsageBytes();
  Rng rng(31);
  for (int i = 0; i < 1000; ++i) {
    vhll.Add(rng.NextUint64(), static_cast<Timestamp>(i));
  }
  EXPECT_GT(vhll.MemoryUsageBytes(), empty_bytes);
}


TEST(VhllTest, MergeWithFloorClampsTimestamps) {
  VersionedHll source(4);
  source.AddEntry(0, 3, 10);
  source.AddEntry(1, 2, 50);
  source.AddEntry(2, 4, 90);
  VersionedHll target(4);
  // floor 40, bound 80: entry (0,3,10) clamps to time 40; (1,2,50) stays;
  // (2,4,90) is filtered by the bound.
  EXPECT_TRUE(target.MergeWithFloor(source, 40, 80));
  ASSERT_EQ(target.cell(0).size(), 1u);
  EXPECT_EQ(target.cell(0)[0].time, 40);
  EXPECT_EQ(target.cell(0)[0].rank, 3);
  ASSERT_EQ(target.cell(1).size(), 1u);
  EXPECT_EQ(target.cell(1)[0].time, 50);
  EXPECT_TRUE(target.cell(2).empty());
  EXPECT_TRUE(target.CheckInvariants());
}

TEST(VhllTest, MergeWithFloorReportsNoChangeWhenDominated) {
  VersionedHll source(4);
  source.AddEntry(0, 2, 30);
  VersionedHll target(4);
  target.AddEntry(0, 5, 10);  // dominates anything with rank <= 5, t >= 10
  EXPECT_FALSE(target.MergeWithFloor(source, 20, 100));
  EXPECT_EQ(target.NumEntries(), 1u);
}

TEST(VhllTest, MergeWithFloorPreservesInvariantsUnderFuzz) {
  Rng rng(77);
  for (int trial = 0; trial < 15; ++trial) {
    VersionedHll a(4);
    VersionedHll b(4);
    for (int i = 0; i < 150; ++i) {
      a.AddEntry(rng.NextBounded(16), static_cast<uint8_t>(1 + rng.NextBounded(12)),
                 static_cast<Timestamp>(rng.NextBounded(200)));
      b.AddEntry(rng.NextBounded(16), static_cast<uint8_t>(1 + rng.NextBounded(12)),
                 static_cast<Timestamp>(rng.NextBounded(200)));
    }
    const Timestamp floor = static_cast<Timestamp>(rng.NextBounded(100));
    const Timestamp bound = floor + static_cast<Timestamp>(rng.NextBounded(150));
    a.MergeWithFloor(b, floor, bound);
    EXPECT_TRUE(a.CheckInvariants()) << "trial " << trial;
  }
}

TEST(VhllTest, AddReturnsWhetherSketchChanged) {
  VersionedHll vhll(6);
  EXPECT_TRUE(vhll.Add(42, 10));
  EXPECT_FALSE(vhll.Add(42, 10));  // identical insert is a no-op
  EXPECT_TRUE(vhll.Add(42, 5));    // earlier sighting improves the entry
}

// --- Differential test: flat merges vs the insert-one-at-a-time rule ----

// The reference: per-cell vectors updated one entry at a time by the
// AddEntry rule the flat merges replaced, with the same four counters.
// Every merge below must leave the real sketch exactly where this one ends.
class ReferenceVhll {
 public:
  struct Pair {
    uint8_t rank;
    Timestamp time;
  };

  explicit ReferenceVhll(size_t num_cells) : cells_(num_cells) {}

  bool AddEntry(size_t c, uint8_t rank, Timestamp t) {
    ++attempts_;
    std::vector<Pair>& list = cells_[c];
    size_t pos = list.size();
    while (pos > 0 && list[pos - 1].time > t) --pos;
    if (pos > 0 && list[pos - 1].rank >= rank) return false;
    while (pos > 0 && list[pos - 1].time == t) --pos;
    size_t end = pos;
    while (end < list.size() && list[end].rank <= rank) ++end;
    if (end == pos) {
      list.insert(list.begin() + static_cast<ptrdiff_t>(pos), Pair{rank, t});
    } else {
      evictions_ += end - pos;
      list[pos] = Pair{rank, t};
      list.erase(list.begin() + static_cast<ptrdiff_t>(pos) + 1,
                 list.begin() + static_cast<ptrdiff_t>(end));
    }
    return true;
  }

  void MergeWindow(const ReferenceVhll& other, Timestamp merge_time,
                   Duration window) {
    const Timestamp bound = merge_time + window;
    for (size_t c = 0; c < cells_.size(); ++c) {
      for (const Pair& e : other.cells_[c]) {
        if (e.time >= bound) break;
        ++scanned_;
        updates_ += AddEntry(c, e.rank, e.time);
      }
    }
  }

  void MergeAll(const ReferenceVhll& other) {
    for (size_t c = 0; c < cells_.size(); ++c) {
      for (const Pair& e : other.cells_[c]) AddEntry(c, e.rank, e.time);
    }
  }

  bool MergeWithFloor(const ReferenceVhll& other, Timestamp floor,
                      Timestamp bound) {
    bool changed = false;
    for (size_t c = 0; c < cells_.size(); ++c) {
      for (const Pair& e : other.cells_[c]) {
        if (e.time >= bound) break;
        changed |= AddEntry(c, e.rank, std::max(e.time, floor));
      }
    }
    return changed;
  }

  const std::vector<Pair>& cell(size_t c) const { return cells_[c]; }
  size_t attempts() const { return attempts_; }
  size_t evictions() const { return evictions_; }
  size_t scanned() const { return scanned_; }
  size_t updates() const { return updates_; }

 private:
  std::vector<std::vector<Pair>> cells_;
  size_t attempts_ = 0;
  size_t evictions_ = 0;
  size_t scanned_ = 0;
  size_t updates_ = 0;
};

// Cell contents, the max-rank cache and all four counters must match.
::testing::AssertionResult SameAsReference(const VersionedHll& vhll,
                                           const ReferenceVhll& ref) {
  for (size_t c = 0; c < vhll.num_cells(); ++c) {
    const std::span<const VersionedHll::Entry> got = vhll.cell(c);
    const std::vector<ReferenceVhll::Pair>& want = ref.cell(c);
    if (got.size() != want.size()) {
      return ::testing::AssertionFailure()
             << "cell " << c << " holds " << got.size() << " entries, want "
             << want.size();
    }
    for (size_t i = 0; i < got.size(); ++i) {
      if (got[i].rank != want[i].rank || got[i].time != want[i].time) {
        return ::testing::AssertionFailure()
               << "cell " << c << " entry " << i << " is ("
               << int{got[i].rank} << ", " << Timestamp{got[i].time}
               << "), want (" << int{want[i].rank} << ", " << want[i].time
               << ")";
      }
    }
    const uint8_t max_rank = want.empty() ? 0 : want.back().rank;
    if (vhll.max_ranks()[c] != max_rank) {
      return ::testing::AssertionFailure() << "max rank of cell " << c;
    }
  }
  if (vhll.NumInsertAttempts() != ref.attempts() ||
      vhll.NumEvictions() != ref.evictions() ||
      vhll.NumMergeEntriesScanned() != ref.scanned() ||
      vhll.NumCellUpdates() != ref.updates()) {
    return ::testing::AssertionFailure()
           << "counters (attempts, evictions, scanned, updates) = ("
           << vhll.NumInsertAttempts() << ", " << vhll.NumEvictions() << ", "
           << vhll.NumMergeEntriesScanned() << ", " << vhll.NumCellUpdates()
           << "), want (" << ref.attempts() << ", " << ref.evictions() << ", "
           << ref.scanned() << ", " << ref.updates() << ")";
  }
  if (!vhll.CheckInvariants()) {
    return ::testing::AssertionFailure() << "invariants violated";
  }
  return ::testing::AssertionSuccess();
}

// Random AddEntry / MergeWindow / MergeAll / MergeWithFloor sequences over
// three sketch pairs. Times come from a narrow range around `base`, so
// equal-time ties are common and window bounds and floors often land
// exactly on entry times; a negative base models the negated timestamps
// source sets and neighborhood profiles feed the sketch.
void RunDifferential(int precision, uint64_t seed, Timestamp base, int ops) {
  Rng rng(seed);
  const size_t beta = size_t{1} << precision;
  // A few cells spread over the sketch keep the lists long enough to merge.
  std::vector<size_t> cells;
  for (int i = 0; i < 16; ++i) cells.push_back(rng.NextBounded(beta));
  cells.push_back(0);
  cells.push_back(beta - 1);
  const uint64_t max_rank = static_cast<uint64_t>(64 - precision + 1);
  const auto time = [&] {
    return base + static_cast<Timestamp>(rng.NextBounded(41)) - 20;
  };
  // A bound equal to some entry's time in `sketch`, else a random time.
  const auto bound_on_entry = [&](const VersionedHll& sketch) {
    const size_t c = cells[rng.NextBounded(cells.size())];
    const std::span<const VersionedHll::Entry> list = sketch.cell(c);
    if (list.empty()) return time();
    return Timestamp{list[rng.NextBounded(list.size())].time};
  };

  std::vector<VersionedHll> sketches(3, VersionedHll(precision, 7));
  std::vector<ReferenceVhll> refs(3, ReferenceVhll(beta));
  for (int op = 0; op < ops; ++op) {
    const size_t i = rng.NextBounded(3);
    const size_t j = (i + 1 + rng.NextBounded(2)) % 3;
    const uint64_t kind = rng.NextBounded(10);
    if (kind < 5) {
      const size_t c = cells[rng.NextBounded(cells.size())];
      // Small ranks most of the time, so equal ranks collide too.
      const uint8_t rank = static_cast<uint8_t>(
          1 + rng.NextBounded(rng.NextBernoulli(0.8) ? 6 : max_rank));
      const Timestamp t = time();
      ASSERT_EQ(sketches[i].AddEntry(c, rank, t), refs[i].AddEntry(c, rank, t))
          << "op " << op;
    } else if (kind < 7) {
      const Duration window = 1 + static_cast<Duration>(rng.NextBounded(30));
      const Timestamp bound = rng.NextBernoulli(0.5)
                                  ? bound_on_entry(sketches[j])
                                  : time() + window;
      sketches[i].MergeWindow(sketches[j], bound - window, window);
      refs[i].MergeWindow(refs[j], bound - window, window);
    } else if (kind < 8) {
      sketches[i].MergeAll(sketches[j]);
      refs[i].MergeAll(refs[j]);
    } else {
      const Timestamp floor = rng.NextBernoulli(0.5)
                                  ? bound_on_entry(sketches[j])
                                  : time();
      const Timestamp bound =
          rng.NextBernoulli(0.3)
              ? bound_on_entry(sketches[j])
              : floor + static_cast<Timestamp>(rng.NextBounded(40));
      ASSERT_EQ(sketches[i].MergeWithFloor(sketches[j], floor, bound),
                refs[i].MergeWithFloor(refs[j], floor, bound))
          << "op " << op;
    }
    ASSERT_TRUE(SameAsReference(sketches[i], refs[i]))
        << "precision " << precision << " seed " << seed << " op " << op
        << " kind " << kind;
  }
}

TEST(VhllDifferentialTest, FlatMergesMatchReferenceAtPrecision4) {
  for (uint64_t seed = 1; seed <= 40; ++seed) {
    RunDifferential(4, seed, /*base=*/0, /*ops=*/400);
  }
}

TEST(VhllDifferentialTest, FlatMergesMatchReferenceOnNegatedTimestamps) {
  for (uint64_t seed = 100; seed <= 120; ++seed) {
    RunDifferential(4, seed, /*base=*/-1'700'000'000'000, /*ops=*/400);
  }
}

TEST(VhllDifferentialTest, FlatMergesMatchReferenceAtPrecision18) {
  for (uint64_t seed = 200; seed <= 202; ++seed) {
    RunDifferential(18, seed, /*base=*/-5, /*ops=*/60);
  }
}

TEST(VhllDifferentialTest, EntryTimeRangeEndsAreStoredExactly) {
  VersionedHll vhll(4);
  ReferenceVhll ref(16);
  for (const Timestamp t :
       {VersionedHll::kMinEntryTime, VersionedHll::kMaxEntryTime,
        Timestamp{-1}, Timestamp{0}}) {
    EXPECT_EQ(vhll.AddEntry(3, 2, t), ref.AddEntry(3, 2, t));
  }
  EXPECT_TRUE(SameAsReference(vhll, ref));
  std::string blob;
  vhll.Serialize(&blob);
  size_t offset = 0;
  const auto parsed = VersionedHll::Deserialize(blob, &offset);
  ASSERT_TRUE(parsed.has_value());
  EXPECT_EQ(parsed->cell(3)[0].time, VersionedHll::kMinEntryTime);
}

TEST(VhllDeathTest, TimestampOutsideEntryRangeAborts) {
  VersionedHll vhll(4);
  EXPECT_DEATH(vhll.AddEntry(0, 1, VersionedHll::kMaxEntryTime + 1),
               "FitsEntryTime");
  EXPECT_DEATH(vhll.Add(42, VersionedHll::kMinEntryTime - 1),
               "FitsEntryTime");
  VersionedHll other(4);
  other.AddEntry(0, 1, 0);
  EXPECT_DEATH(vhll.MergeWithFloor(other, VersionedHll::kMaxEntryTime + 1,
                                   VersionedHll::kMaxEntryTime + 2),
               "kMaxEntryTime");
}

class VhllAccuracyTest : public ::testing::TestWithParam<int> {};

TEST_P(VhllAccuracyTest, EstimateWithinTolerance) {
  const int precision = GetParam();
  VersionedHll vhll(precision);
  const double n = 20000.0;
  Rng rng(precision);
  for (uint64_t i = 0; i < static_cast<uint64_t>(n); ++i) {
    vhll.Add(i, static_cast<Timestamp>(rng.NextBounded(500)));
  }
  const double err = std::abs(vhll.Estimate() - n) / n;
  EXPECT_LT(err, 4.0 * HllStandardError(vhll.num_cells()));
}

INSTANTIATE_TEST_SUITE_P(Precisions, VhllAccuracyTest,
                         ::testing::Values(4, 5, 6, 7, 8, 9, 10));

}  // namespace
}  // namespace ipin
