#include "ipin/sketch/vhll.h"

#include <algorithm>
#include <cstring>

#include "ipin/common/check.h"
#include "ipin/common/hash.h"
#include "ipin/sketch/estimators.h"

namespace ipin {

obs::MemoryTally& VhllMemTally() {
  static obs::MemoryTally& tally = obs::GetMemoryTally("vhll");
  return tally;
}

namespace {

using Entry = VersionedHll::Entry;

Entry MakeEntry(uint8_t rank, Timestamp time) {
  Entry e;
  e.rank = rank;
  e.time = time;
  return e;
}

// memcpy for entry ranges that may be empty (and then null).
void CopyEntries(Entry* dst, const Entry* src, size_t n) {
  if (n != 0) std::memcpy(dst, src, n * sizeof(Entry));
}

// Per-thread output buffer of the merges; grows to the largest sketch
// merged on the thread and is reused across sketches, so a merge allocates
// nothing in steady state.
std::vector<Entry>& MergeScratch(size_t min_size) {
  thread_local std::vector<Entry> scratch;
  if (scratch.size() < min_size) scratch.resize(min_size + min_size / 2);
  return scratch;
}

// Two-pointer Pareto merge of one cell. `a` is the cell's own list
// (strictly ascending time and rank); `b` holds the entries to fold in, in
// (time ascending, rank descending) order. Walking both in that order, an
// entry belongs to the frontier iff its rank exceeds every rank seen before
// it, so the result is written to `out` in one pass; returns the end of
// the written range. An incoming entry is "kept" — would have changed the
// sketch if inserted on its own — iff no own entry dominates it, i.e. its
// rank exceeds that of the last own entry ordered before it; those are
// added to *kept. This reproduces the insert-one-at-a-time rule exactly:
// the result is the Pareto frontier of both lists, and every entry removed
// on the way was evicted by a kept one (evictions = |a| + kept - |out|).
Entry* MergeCell(const Entry* a, const Entry* a_end, const Entry* b,
                 const Entry* b_end, Entry* out, size_t* kept) {
  uint8_t top = 0;      // highest rank written so far
  uint8_t own_top = 0;  // rank of the last own entry passed
  while (b != b_end) {
    if (a != a_end && (a->time < b->time ||
                       (a->time == b->time && a->rank >= b->rank))) {
      own_top = a->rank;
      if (a->rank > top) {
        top = a->rank;
        *out++ = *a;
      }
      ++a;
    } else {
      *kept += b->rank > own_top;
      if (b->rank > top) {
        top = b->rank;
        *out++ = *b;
      }
      ++b;
    }
  }
  // Own ranks ascend: past the dominated ones, the rest copies as a block.
  while (a != a_end && a->rank <= top) ++a;
  const size_t rest = static_cast<size_t>(a_end - a);
  CopyEntries(out, a, rest);
  return out + rest;
}

}  // namespace

VersionedHll::VersionedHll(int precision, uint64_t salt)
    : precision_(precision), salt_(salt) {
  IPIN_CHECK_GE(precision, 4);
  IPIN_CHECK_LE(precision, 18);
  const size_t beta = static_cast<size_t>(1) << precision;
  offsets_.resize(beta + 1, 0);
  max_ranks_.resize(beta, 0);
}

bool VersionedHll::Add(uint64_t item, Timestamp t) {
  return AddHash(Hash64(item, salt_), t);
}

bool VersionedHll::AddHash(uint64_t hash, Timestamp t) {
  const size_t cell = static_cast<size_t>(hash & (num_cells() - 1));
  const uint64_t rest = hash >> precision_;
  const int r = std::min(RhoLsb(rest), 64 - precision_ + 1);
  return AddEntry(cell, static_cast<uint8_t>(r), t);
}

bool VersionedHll::AddEntry(size_t cell_index, uint8_t rank, Timestamp t) {
  IPIN_DCHECK(cell_index < num_cells());
  IPIN_DCHECK(rank > 0);
  IPIN_CHECK(FitsEntryTime(t));
  ++insert_attempts_;
  const Entry incoming = MakeEntry(rank, t);
  const uint32_t begin = offsets_[cell_index];
  const uint32_t end = offsets_[cell_index + 1];
  const size_t old_len = end - begin;
  std::vector<Entry>& scratch = MergeScratch(old_len + 1);
  size_t kept = 0;
  const Entry* merged_end =
      MergeCell(entries_.data() + begin, entries_.data() + end, &incoming,
                &incoming + 1, scratch.data(), &kept);
  if (kept == 0) return false;  // dominated by an earlier >=-rank entry

  const size_t new_len = static_cast<size_t>(merged_end - scratch.data());
  evictions_ += old_len + 1 - new_len;
  Splice(begin, end, scratch.data(), new_len, cell_index + 1);
  // Ranks ascend within a list, so the cached cell max is just the tail.
  max_ranks_[cell_index] = merged_end[-1].rank;
  return true;
}

void VersionedHll::Splice(uint32_t begin, uint32_t old_end, const Entry* src,
                          size_t new_len, size_t first_shifted) {
  const size_t old_size = entries_.size();
  const size_t old_len = old_end - begin;
  if (new_len > old_len) {
    // 1.5x growth: the buffer is most of a sketch's footprint, and merges
    // grow it by a few entries at a time.
    const size_t new_size = old_size + new_len - old_len;
    if (new_size > entries_.capacity()) {
      entries_.reserve(new_size + new_size / 2);
    }
    entries_.resize(new_size);
  }
  Entry* const own = entries_.data();
  if (old_size > old_end) {
    std::memmove(own + begin + new_len, own + old_end,
                 (old_size - old_end) * sizeof(Entry));
  }
  CopyEntries(own + begin, src, new_len);
  if (new_len < old_len) entries_.resize(old_size + new_len - old_len);
  const uint32_t delta = static_cast<uint32_t>(new_len - old_len);
  for (size_t c = first_shifted; c < offsets_.size(); ++c) {
    offsets_[c] += delta;  // mod 2^32: shrinking wraps back exactly
  }
}

template <typename CellSource>
size_t VersionedHll::MergeCells(size_t max_incoming, CellSource&& source,
                                size_t* kept) {
  const size_t beta = num_cells();
  size_t c = 0;
  std::span<const Entry> in;
  while (c < beta && (in = source(c)).empty()) ++c;
  if (c == beta) return 0;  // nothing to fold in: sketch unchanged

  // Cells before c stay where they are. From c on, merged cells and the
  // untouched runs between them are written to scratch; the untouched tail
  // after the last merged cell is moved in place at the end.
  const size_t old_size = entries_.size();
  const uint32_t start = offsets_[c];
  std::vector<Entry>& scratch = MergeScratch(old_size - start + max_incoming);
  Entry* const base = scratch.data();
  Entry* out = base;
  uint32_t read = start;  // old offset of the next unread own entry
  size_t scanned = 0;
  size_t merged_in = 0;   // own entries of the merged cells
  size_t merged_out = 0;  // entries the merged cells hold afterwards
  size_t kept_here = 0;
  while (true) {
    const uint32_t cell_end = offsets_[c + 1];
    Entry* const cell_out = out;
    out = MergeCell(entries_.data() + read, entries_.data() + cell_end,
                    in.data(), in.data() + in.size(), out, &kept_here);
    scanned += in.size();
    merged_in += cell_end - read;
    merged_out += static_cast<size_t>(out - cell_out);
    max_ranks_[c] = out == cell_out ? 0 : out[-1].rank;
    read = cell_end;
    offsets_[c + 1] = start + static_cast<uint32_t>(out - base);
    size_t run_end = ++c;
    while (run_end < beta && (in = source(run_end)).empty()) ++run_end;
    if (run_end == beta) break;
    if (run_end > c) {
      // Untouched cells [c, run_end): one block copy, offsets shift.
      const uint32_t run_stop = offsets_[run_end];
      const uint32_t delta = start + static_cast<uint32_t>(out - base) - read;
      CopyEntries(out, entries_.data() + read, run_stop - read);
      out += run_stop - read;
      for (size_t k = c + 1; k <= run_end; ++k) offsets_[k] += delta;
      read = run_stop;
      c = run_end;
    }
  }

  Splice(start, read, base, static_cast<size_t>(out - base), c + 1);
  insert_attempts_ += scanned;
  evictions_ += merged_in + kept_here - merged_out;
  *kept += kept_here;
  return scanned;
}

void VersionedHll::MergeWindow(const VersionedHll& other, Timestamp merge_time,
                               Duration window) {
  IPIN_CHECK_EQ(precision_, other.precision_);
  IPIN_CHECK_EQ(salt_, other.salt_);
  const Timestamp bound = merge_time + window;  // keep entries with t < bound
  size_t kept = 0;
  merge_entries_scanned_ += MergeCells(
      other.NumEntries(),
      [&](size_t c) {
        // Ascending time: the in-window entries are a prefix.
        const std::span<const Entry> list = other.cell(c);
        size_t n = 0;
        while (n < list.size() && list[n].time < bound) ++n;
        return list.first(n);
      },
      &kept);
  cell_updates_ += kept;
}

void VersionedHll::MergeAll(const VersionedHll& other) {
  IPIN_CHECK_EQ(precision_, other.precision_);
  IPIN_CHECK_EQ(salt_, other.salt_);
  size_t kept = 0;
  MergeCells(other.NumEntries(), [&](size_t c) { return other.cell(c); },
             &kept);
}

double VersionedHll::Estimate() const {
  return EstimateFromRanks({max_ranks_.data(), max_ranks_.size()});
}

double VersionedHll::EstimateBefore(Timestamp bound) const {
  std::vector<uint8_t> scratch;
  return EstimateBefore(bound, &scratch);
}

double VersionedHll::EstimateBefore(Timestamp bound,
                                    std::vector<uint8_t>* scratch) const {
  scratch->assign(num_cells(), 0);
  MaxRanks(bound, scratch);
  return EstimateFromRanks(*scratch);
}

void VersionedHll::MaxRanks(Timestamp bound,
                            std::vector<uint8_t>* ranks) const {
  IPIN_CHECK_EQ(ranks->size(), num_cells());
  for (size_t c = 0; c < num_cells(); ++c) {
    const std::span<const Entry> list = cell(c);
    // Times ascend and ranks strictly ascend, so the in-window entries are
    // a prefix whose max rank is its last entry — no max fold needed.
    size_t k = 0;
    while (k < list.size() && list[k].time < bound) ++k;
    if (k > 0 && list[k - 1].rank > (*ranks)[c]) {
      (*ranks)[c] = list[k - 1].rank;
    }
  }
}

void VersionedHll::Clear() {
  entries_.clear();
  std::fill(offsets_.begin(), offsets_.end(), 0);
  std::fill(max_ranks_.begin(), max_ranks_.end(), 0);
}

bool VersionedHll::CheckInvariants() const {
  const size_t beta = num_cells();
  if (offsets_.size() != beta + 1 || offsets_[0] != 0 ||
      offsets_[beta] != entries_.size()) {
    return false;
  }
  for (size_t c = 0; c < beta; ++c) {
    if (offsets_[c + 1] < offsets_[c]) return false;
    const std::span<const Entry> list = cell(c);
    if (max_ranks_[c] != (list.empty() ? 0 : list.back().rank)) return false;
    for (size_t i = 0; i < list.size(); ++i) {
      if (list[i].rank == 0) return false;
      // Strictly ascending rank and time: no pair dominates another.
      if (i > 0 && (list[i].rank <= list[i - 1].rank ||
                    list[i].time <= list[i - 1].time)) {
        return false;
      }
    }
  }
  return true;
}

namespace {

// Serialization layout (little-endian):
//   u8  format version (1)
//   u8  precision
//   u64 salt
//   per cell (2^precision of them): u32 count, then count x (u8 rank,
//   i64 time).
constexpr uint8_t kVhllFormatVersion = 1;

template <typename T>
void AppendRaw(std::string* out, T value) {
  out->append(reinterpret_cast<const char*>(&value), sizeof(T));
}

template <typename T>
bool ReadRaw(std::string_view data, size_t* offset, T* value) {
  if (data.size() - *offset < sizeof(T)) return false;
  std::memcpy(value, data.data() + *offset, sizeof(T));
  *offset += sizeof(T);
  return true;
}

}  // namespace

void VersionedHll::Serialize(std::string* out) const {
  AppendRaw<uint8_t>(out, kVhllFormatVersion);
  AppendRaw<uint8_t>(out, static_cast<uint8_t>(precision_));
  AppendRaw<uint64_t>(out, salt_);
  for (size_t c = 0; c < num_cells(); ++c) {
    const std::span<const Entry> list = cell(c);
    AppendRaw<uint32_t>(out, static_cast<uint32_t>(list.size()));
    for (const Entry& e : list) {
      AppendRaw<uint8_t>(out, e.rank);
      AppendRaw<int64_t>(out, e.time);
    }
  }
}

size_t VersionedHll::SerializedBytes(size_t num_cells, size_t num_entries) {
  // u8 version, u8 precision, u64 salt; a u32 count per cell; u8 rank and
  // i64 time per entry.
  return 2 + sizeof(uint64_t) + num_cells * sizeof(uint32_t) +
         num_entries * (sizeof(uint8_t) + sizeof(int64_t));
}

std::optional<VersionedHll> VersionedHll::Deserialize(std::string_view data,
                                                      size_t* offset) {
  uint8_t version = 0;
  uint8_t precision = 0;
  uint64_t salt = 0;
  if (!ReadRaw(data, offset, &version) || version != kVhllFormatVersion) {
    return std::nullopt;
  }
  if (!ReadRaw(data, offset, &precision) || precision < 4 || precision > 18) {
    return std::nullopt;
  }
  if (!ReadRaw(data, offset, &salt)) return std::nullopt;

  VersionedHll sketch(precision, salt);
  for (size_t c = 0; c < sketch.num_cells(); ++c) {
    uint32_t count = 0;
    if (!ReadRaw(data, offset, &count)) return std::nullopt;
    // A cell holds at most 64 undominated ranks; anything larger is corrupt.
    if (count > 64) return std::nullopt;
    for (uint32_t i = 0; i < count; ++i) {
      uint8_t rank = 0;
      int64_t time = 0;
      if (!ReadRaw(data, offset, &rank) || !ReadRaw(data, offset, &time) ||
          !FitsEntryTime(time)) {
        return std::nullopt;
      }
      sketch.entries_.push_back(MakeEntry(rank, time));
    }
    sketch.offsets_[c + 1] = static_cast<uint32_t>(sketch.entries_.size());
    if (count > 0) sketch.max_ranks_[c] = sketch.entries_.back().rank;
  }
  if (!sketch.CheckInvariants()) return std::nullopt;
  sketch.entries_.shrink_to_fit();  // a loaded sketch holds no growth slack
  return sketch;
}

size_t VersionedHll::MemoryUsageBytes() const {
  return entries_.capacity() * sizeof(Entry) +
         offsets_.capacity() * sizeof(uint32_t) +
         max_ranks_.capacity() * sizeof(uint8_t);
}

}  // namespace ipin
