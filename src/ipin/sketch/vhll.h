#ifndef IPIN_SKETCH_VHLL_H_
#define IPIN_SKETCH_VHLL_H_

#include <cstddef>
#include <cstdint>
#include <optional>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "ipin/graph/types.h"
#include "ipin/obs/memtally.h"

namespace ipin {

/// Byte tally charged for every vHLL buffer allocation (component "vhll");
/// published as the mem.vhll.* gauges.
obs::MemoryTally& VhllMemTally();

/// Versioned HyperLogLog sketch (Section 3.2.2 of the paper).
///
/// Each of the beta = 2^precision cells stores a short list of
/// (rank, timestamp) pairs instead of a single max rank, so the sketch can
/// answer "max rank among items whose timestamp is below a bound" — exactly
/// what the window-constrained Merge of the IRS algorithm needs
/// (an entry of phi(v) with end time t_x may flow into phi(u) via an edge at
/// time t only if t_x - t < omega, i.e. t_x < t + omega).
///
/// Domination (the paper's pruning rule): (r1, t1) dominates (r2, t2) iff
/// t1 <= t2 and r1 >= r2 — an earlier, higher-rank pair makes the other one
/// useless for every possible bound. Undominated lists are therefore
/// strictly increasing in both time and rank; we keep them sorted ascending
/// by time, which makes every windowed query a prefix scan and keeps the
/// expected list length logarithmic (Lemma 4).
///
/// Note on expiry: the paper's generic sliding-window vHLL periodically
/// drops entries far ahead of the scan frontier. In the IRS application
/// those entries still belong to sigma_omega(u) (only their merge
/// eligibility has expired), so dropping them would bias Estimate(); the
/// IRS algorithm therefore never calls CompactExpired. It is provided for
/// callers that only ever issue windowed queries (EstimateBefore).
///
/// Memory layout: one contiguous entry buffer per sketch, cell-major (cell
/// 0's list, then cell 1's, ...), plus beta + 1 u32 offsets so cell c is
/// entries_[offsets_[c], offsets_[c + 1]). A sketch makes three
/// allocations (entries, offsets, max ranks), so the "vhll" tally is
/// charged a few times per node, not per cell. Merges are one linear pass
/// over the node (see MergeCells in vhll.cc): runs of cells the other
/// sketch cannot touch are block-copied, touched cells get a two-pointer
/// Pareto merge, and the result is written once into a per-thread scratch
/// buffer and copied back.
class VersionedHll {
 public:
  /// One (rank, timestamp) pair of a cell list, packed into 8 bytes: the
  /// time is a signed 56-bit field. Every timestamp entering a sketch is
  /// checked against [kMinEntryTime, kMaxEntryTime] (IPIN_CHECK, or a
  /// rejected Deserialize), never truncated. The range holds negated
  /// timestamps (source sets, neighborhood profiles) as well as Unix time in
  /// seconds, milliseconds or microseconds; the edge-list loader rejects
  /// times outside it (IsValidInteractionTime) before they get here.
  struct Entry {
    uint8_t rank : 8 = 0;
    Timestamp time : 56 = 0;
  };
  static_assert(sizeof(Entry) == 8, "Entry must pack into 8 bytes");

  static constexpr Timestamp kMinEntryTime = -(Timestamp{1} << 55);
  static constexpr Timestamp kMaxEntryTime = (Timestamp{1} << 55) - 1;

  /// True when `t` fits an Entry's time field.
  static constexpr bool FitsEntryTime(Timestamp t) {
    return t >= kMinEntryTime && t <= kMaxEntryTime;
  }
  // Every loaded interaction time and its negation fit an entry.
  static_assert(kMinEntryTime <= kMinInteractionTime &&
                kMaxEntryTime >= kMaxInteractionTime);

  /// `precision` must be in [4, 18]; all sketches that will ever be merged
  /// must share `precision` and `salt`.
  explicit VersionedHll(int precision, uint64_t salt = 0);

  /// Inserts item observed at time `t` (hashes the item internally).
  /// Returns true if the sketch changed.
  bool Add(uint64_t item, Timestamp t);

  /// Inserts a pre-computed hash observed at time `t`. Returns true if the
  /// sketch changed.
  bool AddHash(uint64_t hash, Timestamp t);

  /// Inserts an explicit (cell, rank, time) triple, applying domination
  /// pruning (the paper's ApproxAdd). Exposed for merges and tests.
  /// Returns true if the sketch changed (entry kept). `t` must satisfy
  /// FitsEntryTime (checked). A kept entry shifts the offsets of the later
  /// cells: O(beta) at worst, the same order as one merge.
  bool AddEntry(size_t cell, uint8_t rank, Timestamp t);

  /// The paper's ApproxMerge: folds in every entry of `other` whose time t_x
  /// satisfies t_x - merge_time < window.
  void MergeWindow(const VersionedHll& other, Timestamp merge_time,
                   Duration window);

  /// Unrestricted merge (all entries); used when unioning the final
  /// per-node sketches in the influence oracle.
  void MergeAll(const VersionedHll& other);

  /// Merge for sliding-window neighborhood profiles (Kumar et al. 2015):
  /// folds in entries of `other` with time < bound, CLAMPING each merged
  /// timestamp to at least `floor` (in the negated-time encoding this caps
  /// a path's freshness at the connecting edge's timestamp). Returns true
  /// if the sketch changed. `floor` must not exceed kMaxEntryTime (checked).
  bool MergeWithFloor(const VersionedHll& other, Timestamp floor,
                      Timestamp bound);

  /// Estimated number of distinct items ever inserted. O(beta): reads the
  /// per-cell max-rank cache, not the entry lists.
  double Estimate() const;

  /// Estimated number of distinct items with timestamp < `bound`.
  double EstimateBefore(Timestamp bound) const;

  /// As above, but reuses `*scratch` for the rank vector instead of
  /// allocating one per call (hot in oracle serving, where one worker
  /// answers many windowed queries back to back). `*scratch` is resized as
  /// needed; contents on entry are ignored.
  double EstimateBefore(Timestamp bound, std::vector<uint8_t>* scratch) const;

  /// Drops entries that can no longer affect any windowed query with
  /// merge_time <= frontier: entries with time >= frontier + window.
  /// WARNING: biases Estimate() downwards; see class comment.
  void CompactExpired(Timestamp frontier, Duration window);

  /// Resets to the empty sketch.
  void Clear();

  int precision() const { return precision_; }
  uint64_t salt() const { return salt_; }
  size_t num_cells() const { return max_ranks_.size(); }

  /// Total number of stored (rank, time) pairs across all cells.
  size_t NumEntries() const { return entries_.size(); }

  /// Lifetime count of AddEntry calls (before domination filtering); the
  /// ratio NumEntries()/NumInsertAttempts() measures what pruning saves.
  /// Merges count one attempt per entry they fold in, exactly as if each
  /// had gone through AddEntry.
  size_t NumInsertAttempts() const { return insert_attempts_; }

  /// Lifetime count of stored pairs evicted because a newly inserted pair
  /// dominated them (the flip side of NumInsertAttempts' rejected inserts).
  size_t NumEvictions() const { return evictions_; }

  /// Lifetime count of entries examined by MergeWindow (window-eligible
  /// pairs read from the other sketch) and of those that survived
  /// domination filtering and updated a cell. Plain tallies: the merge
  /// loop stays atomics-free and callers roll them up into the registry.
  size_t NumMergeEntriesScanned() const { return merge_entries_scanned_; }
  size_t NumCellUpdates() const { return cell_updates_; }

  /// The raw list of cell `i` (ascending time, strictly ascending rank).
  /// Invalidated by any mutation of the sketch.
  std::span<const Entry> cell(size_t i) const {
    return {entries_.data() + offsets_[i], offsets_[i + 1] - offsets_[i]};
  }

  /// Per-cell max rank (0 for an empty cell), maintained on every mutation.
  /// Contiguous, so cellwise-max union loops (the oracle's hot path) touch
  /// one cache line per 64 cells instead of walking every cell list.
  std::span<const uint8_t> max_ranks() const {
    return {max_ranks_.data(), max_ranks_.size()};
  }

  /// Fills `ranks` (size num_cells) with the per-cell max rank, optionally
  /// bounded: only entries with time < bound count. Used by the oracle's
  /// union-estimate fast path.
  void MaxRanks(Timestamp bound, std::vector<uint8_t>* ranks) const;

  /// Verifies the storage and per-cell invariants: consistent offsets,
  /// strictly ascending time and rank within a cell (no pair dominates
  /// another), no zero rank, and the max-rank cache. Test and Deserialize
  /// helper; O(total entries).
  bool CheckInvariants() const;

  /// Appends a self-contained binary encoding (precision, salt, cell lists)
  /// to *out. Little-endian, versioned; see vhll.cc for the layout.
  void Serialize(std::string* out) const;

  /// Exact size of Serialize's output for a sketch with `num_cells` cells
  /// and `num_entries` stored pairs (lets writers size buffers once).
  static size_t SerializedBytes(size_t num_cells, size_t num_entries);

  /// Reads an encoding produced by Serialize from data starting at *offset,
  /// advancing *offset past it. Returns nullopt on truncation or corruption
  /// (including invariant violations and times outside the Entry range).
  static std::optional<VersionedHll> Deserialize(std::string_view data,
                                                 size_t* offset);

  /// Heap footprint in bytes: the capacities of the entry buffer, the
  /// offsets and the max-rank cache.
  size_t MemoryUsageBytes() const;

 private:
  template <typename T>
  using TalliedVector = std::vector<T, obs::TallyAllocator<T, &VhllMemTally>>;

  // Replaces entries_[begin, old_end) with the `new_len` entries at `src`
  // (which must not point into entries_), moving the entries after it and
  // shifting offsets_[first_shifted..beta] by the size change. Capacity
  // grows by half again when it runs out.
  void Splice(uint32_t begin, uint32_t old_end, const Entry* src,
              size_t new_len, size_t first_shifted);

  // Shared body of the three merges: for every cell, `source(c)` yields the
  // entries to fold in, in (time ascending, rank descending) order — empty
  // for a cell the merge leaves alone — and `max_incoming` bounds their
  // total. Adds the number of those entries that no own entry dominates to
  // *kept and returns the number read.
  template <typename CellSource>
  size_t MergeCells(size_t max_incoming, CellSource&& source, size_t* kept);

  int precision_;
  uint64_t salt_;
  size_t insert_attempts_ = 0;
  size_t evictions_ = 0;
  size_t merge_entries_scanned_ = 0;
  size_t cell_updates_ = 0;
  // All cell lists back to back; cell c owns [offsets_[c], offsets_[c+1]).
  TalliedVector<Entry> entries_;
  TalliedVector<uint32_t> offsets_;
  // Cache of each cell's last (highest) rank, 0 when empty, kept in sync by
  // every mutating method so Estimate() and the union fast paths are
  // O(beta).
  TalliedVector<uint8_t> max_ranks_;
};

}  // namespace ipin

#endif  // IPIN_SKETCH_VHLL_H_
