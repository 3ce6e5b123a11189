#include "ipin/sketch/sketch_arena.h"

#include <algorithm>
#include <cstring>

#include "ipin/common/check.h"
#include "ipin/common/thread_pool.h"
#include "ipin/sketch/kernels.h"

namespace ipin {

obs::MemoryTally& SketchArenaMemTally() {
  static obs::MemoryTally& tally = obs::GetMemoryTally("sketch_arena");
  return tally;
}

SketchArena::SketchArena(
    int precision, uint64_t salt,
    std::span<const std::unique_ptr<VersionedHll>> sketches)
    : precision_(precision),
      salt_(salt),
      beta_(static_cast<size_t>(1) << precision),
      num_nodes_(sketches.size()) {
  IPIN_CHECK_GE(precision, 4);
  IPIN_CHECK_LE(precision, 18);

  // Pass 1 (sequential): assign slots and entry bases in node order, so
  // every array is allocated exactly once and each node's place is fixed.
  slot_of_.resize(num_nodes_, kNoSlot);
  size_t total_entries = 0;
  for (size_t u = 0; u < num_nodes_; ++u) {
    const VersionedHll* sketch = sketches[u].get();
    if (sketch == nullptr) continue;
    IPIN_CHECK_EQ(sketch->precision(), precision_);
    IPIN_CHECK_EQ(sketch->salt(), salt_);
    slot_of_[u] = static_cast<uint32_t>(num_allocated_++);
    slot_entry_base_.push_back(total_entries);
    total_entries += sketch->NumEntries();
  }
  slot_entry_base_.push_back(total_entries);
  slot_entry_base_.shrink_to_fit();

  rank_plane_.resize(num_nodes_ * beta_, 0);
  cell_counts_.resize(num_allocated_ * beta_, 0);
  entry_ranks_.resize(total_entries);
  entry_times_.resize(total_entries);

  // Pass 2 (parallel over nodes): pack. Every node writes only its own row,
  // counts and entry range, so the arena is the same at any thread count.
  // Entries keep their in-cell order (ascending time, strictly ascending
  // rank — the vHLL invariant the kernels rely on).
  // A grain of about 64K cells keeps the scheduling cost small at every
  // precision.
  const size_t grain = std::max<size_t>(1, (size_t{1} << 16) / beta_);
  ParallelFor(0, num_nodes_, grain, [&](size_t lo, size_t hi) {
    for (size_t u = lo; u < hi; ++u) {
      const VersionedHll* sketch = sketches[u].get();
      if (sketch == nullptr) continue;
      const size_t s = slot_of_[u];
      const std::span<const uint8_t> ranks = sketch->max_ranks();
      std::memcpy(rank_plane_.data() + u * beta_, ranks.data(), beta_);
      uint8_t* counts = cell_counts_.data() + s * beta_;
      size_t next_entry = slot_entry_base_[s];
      for (size_t c = 0; c < beta_; ++c) {
        const std::span<const VersionedHll::Entry> list = sketch->cell(c);
        // u8 per-cell counts: an undominated list holds at most 64 entries
        // (strictly ascending u8 ranks bounded by the hash width).
        IPIN_CHECK_LE(list.size(), 64u);
        counts[c] = static_cast<uint8_t>(list.size());
        for (const VersionedHll::Entry& e : list) {
          entry_ranks_[next_entry] = e.rank;
          entry_times_[next_entry] = e.time;
          ++next_entry;
        }
      }
      IPIN_CHECK_EQ(next_entry, slot_entry_base_[s + 1]);
    }
  });
}

size_t SketchArena::NodeNumEntries(NodeId u) const {
  if (!has_node(u)) return 0;
  const size_t s = slot(u);
  return slot_entry_base_[s + 1] - slot_entry_base_[s];
}

double SketchArena::EstimateNode(NodeId u) const {
  return kernels::Dispatched().estimate_from_ranks(
      rank_plane_.data() + static_cast<size_t>(u) * beta_, beta_);
}

double SketchArena::EstimateNodeBefore(NodeId u, Timestamp bound,
                                       std::vector<uint8_t>* scratch) const {
  scratch->assign(beta_, 0);
  BoundedMaxInto(u, bound, scratch->data());
  return kernels::Dispatched().estimate_from_ranks(scratch->data(), beta_);
}

void SketchArena::BoundedMaxInto(NodeId u, Timestamp bound,
                                 uint8_t* dst) const {
  if (!has_node(u)) return;
  const size_t s = slot(u);
  const size_t base = slot_entry_base_[s];
  const size_t total = slot_entry_base_[s + 1] - base;
  static_assert(sizeof(Timestamp) == sizeof(int64_t));
  kernels::Dispatched().bounded_max_into(
      cell_counts_.data() + s * beta_, entry_ranks_.data() + base,
      entry_times_.data() + base, beta_, total, bound, dst);
}

namespace {

// Mirrors the VersionedHll serialization layout (vhll.cc) byte for byte.
constexpr uint8_t kVhllFormatVersion = 1;

template <typename T>
void AppendRaw(std::string* out, T value) {
  out->append(reinterpret_cast<const char*>(&value), sizeof(T));
}

}  // namespace

void SketchArena::SerializeNode(NodeId u, std::string* out) const {
  IPIN_CHECK(has_node(u));
  const size_t s = slot(u);
  const uint8_t* counts = cell_counts_.data() + s * beta_;
  size_t entry = slot_entry_base_[s];
  AppendRaw<uint8_t>(out, kVhllFormatVersion);
  AppendRaw<uint8_t>(out, static_cast<uint8_t>(precision_));
  AppendRaw<uint64_t>(out, salt_);
  for (size_t c = 0; c < beta_; ++c) {
    const size_t n = counts[c];
    AppendRaw<uint32_t>(out, static_cast<uint32_t>(n));
    for (size_t i = 0; i < n; ++i, ++entry) {
      AppendRaw<uint8_t>(out, entry_ranks_[entry]);
      AppendRaw<int64_t>(out, entry_times_[entry]);
    }
  }
}

std::unique_ptr<VersionedHll> SketchArena::MaterializeNode(NodeId u) const {
  // Round-trip through the wire format: exact by construction, and this
  // path (shard extraction) is nowhere near hot.
  std::string blob;
  SerializeNode(u, &blob);
  size_t offset = 0;
  std::optional<VersionedHll> sketch = VersionedHll::Deserialize(blob, &offset);
  IPIN_CHECK(sketch.has_value());
  return std::make_unique<VersionedHll>(std::move(*sketch));
}

bool SketchArena::CheckNodeInvariants(NodeId u) const {
  if (!has_node(u)) return true;
  const size_t s = slot(u);
  const uint8_t* counts = cell_counts_.data() + s * beta_;
  const uint8_t* row = rank_plane_.data() + static_cast<size_t>(u) * beta_;
  size_t entry = slot_entry_base_[s];
  for (size_t c = 0; c < beta_; ++c) {
    const size_t n = counts[c];
    if (n > 64) return false;
    for (size_t i = 0; i < n; ++i) {
      if (entry_ranks_[entry + i] == 0) return false;
      if (i > 0) {
        if (entry_ranks_[entry + i] <= entry_ranks_[entry + i - 1]) {
          return false;
        }
        if (entry_times_[entry + i] < entry_times_[entry + i - 1]) {
          return false;
        }
      }
    }
    const uint8_t expected = n == 0 ? 0 : entry_ranks_[entry + n - 1];
    if (row[c] != expected) return false;
    entry += n;
  }
  return entry == slot_entry_base_[s + 1];
}

size_t SketchArena::MemoryUsageBytes() const {
  return rank_plane_.capacity() * sizeof(uint8_t) +
         slot_of_.capacity() * sizeof(uint32_t) +
         cell_counts_.capacity() * sizeof(uint8_t) +
         slot_entry_base_.capacity() * sizeof(uint64_t) +
         entry_ranks_.capacity() * sizeof(uint8_t) +
         entry_times_.capacity() * sizeof(int64_t);
}

double SketchView::Estimate() const {
  if (hll_ != nullptr) return hll_->Estimate();
  return arena_->EstimateNode(node_);
}

double SketchView::EstimateBefore(Timestamp bound,
                                  std::vector<uint8_t>* scratch) const {
  if (hll_ != nullptr) return hll_->EstimateBefore(bound, scratch);
  return arena_->EstimateNodeBefore(node_, bound, scratch);
}

void SketchView::MaxRanks(Timestamp bound, std::vector<uint8_t>* ranks) const {
  if (hll_ != nullptr) {
    hll_->MaxRanks(bound, ranks);
    return;
  }
  IPIN_CHECK_EQ(ranks->size(), arena_->num_cells());
  arena_->BoundedMaxInto(node_, bound, ranks->data());
}

void SketchView::Serialize(std::string* out) const {
  if (hll_ != nullptr) {
    hll_->Serialize(out);
    return;
  }
  arena_->SerializeNode(node_, out);
}

bool SketchView::CheckInvariants() const {
  if (hll_ != nullptr) return hll_->CheckInvariants();
  return arena_->CheckNodeInvariants(node_);
}

std::unique_ptr<VersionedHll> SketchView::Materialize() const {
  if (hll_ != nullptr) return std::make_unique<VersionedHll>(*hll_);
  return arena_->MaterializeNode(node_);
}

}  // namespace ipin
