#include "ipin/core/oracle_io.h"

#include <algorithm>
#include <cstring>
#include <fstream>

#include "ipin/common/failpoint.h"
#include "ipin/common/logging.h"
#include "ipin/common/safe_io.h"
#include "ipin/common/string_util.h"
#include "ipin/common/thread_pool.h"
#include "ipin/obs/memtally.h"
#include "ipin/obs/metrics.h"
#include "ipin/obs/progress.h"

namespace ipin {
namespace {

// Serialization buffers and the loaded file buffer charge the "oracle_io"
// tally so index save/load peaks show up in the mem.oracle_io.* gauges.
obs::MemoryTally& OracleIoMemTally() {
  static obs::MemoryTally& tally = obs::GetMemoryTally("oracle_io");
  return tally;
}

// Framed (safe_io) format: file type tag "IIDX", version 2.
//   frame 0: i64 window, u8 precision, u64 salt, u64 num_nodes,
//            u32 chunk_size
//   frame k: u64 first_node, u32 count, then per node
//            u8 present [+ VersionedHll::Serialize blob]
// Chunks cover [0, num_nodes) in order, kChunkSize nodes each, so a dropped
// frame loses exactly one known slice of nodes. Chunks are independent: the
// save serializes them in parallel and the load parses them in parallel.
constexpr uint32_t kIndexFileType = 0x58444949;  // "IIDX" little-endian
constexpr uint32_t kIndexFormatVersion = 2;
constexpr uint32_t kChunkSize = 256;

// The save serializes this many chunks at once, then writes them in order.
// A compile-time bound keeps save memory at a few chunk buffers (about 1 MB
// each at beta 512 and a 10% window) instead of O(index).
constexpr size_t kSaveWindowChunks = 8;

// The smallest chunk frame the save can produce: the 12-byte safe_io frame
// header plus the u64 first_node and u32 count (a torn section may end
// there, so node presence bytes are not counted).
constexpr uint64_t kMinChunkFrameBytes = 12 + 8 + 4;

// Pre-safe_io format (version 1): raw "IPINIDX1" header + body, written
// in place. Still readable for backward compatibility.
constexpr char kLegacyMagic[8] = {'I', 'P', 'I', 'N', 'I', 'D', 'X', '1'};

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

struct IndexHeader {
  int64_t window = 0;
  uint8_t precision = 0;
  uint64_t salt = 0;
  uint64_t num_nodes = 0;
  uint32_t chunk_size = 0;
};

uint64_t NumChunks(const IndexHeader& header) {
  return header.num_nodes / header.chunk_size +
         (header.num_nodes % header.chunk_size != 0 ? 1 : 0);
}

// `file_bytes_left` is what the file holds after the header frame. The
// loader sizes its tables from num_nodes, so the header must be backed by
// bytes: chunk_size is at most the kChunkSize every save writes, and the
// chunk frames it implies must fit in the rest of the file. Together that
// caps num_nodes at about 11 per file byte.
bool ParseIndexHeader(std::string_view payload, size_t file_bytes_left,
                      IndexHeader* header) {
  size_t offset = 0;
  if (!ReadRaw(payload, &offset, &header->window) ||
      !ReadRaw(payload, &offset, &header->precision) ||
      !ReadRaw(payload, &offset, &header->salt) ||
      !ReadRaw(payload, &offset, &header->num_nodes) ||
      !ReadRaw(payload, &offset, &header->chunk_size)) {
    return false;
  }
  return header->window >= 1 && header->precision >= 4 &&
         header->precision <= 18 && header->chunk_size >= 1 &&
         header->chunk_size <= kChunkSize &&
         NumChunks(*header) <= file_bytes_left / kMinChunkFrameBytes;
}

// Parses chunk `section` into `sketches`. It must cover exactly the nodes
// the save put there, so a misplaced (spliced) frame cannot land on another
// section's nodes and parallel parses touch disjoint slots. Returns false on
// any mismatch, leaving none of the section's nodes set.
bool ParseChunk(std::string_view payload, const IndexHeader& header,
                uint64_t section,
                std::vector<std::unique_ptr<VersionedHll>>* sketches) {
  const uint64_t first = section * header.chunk_size;
  const uint64_t count =
      std::min<uint64_t>(header.chunk_size, header.num_nodes - first);
  size_t offset = 0;
  uint64_t first_node = 0;
  uint32_t stored_count = 0;
  if (!ReadRaw(payload, &offset, &first_node) ||
      !ReadRaw(payload, &offset, &stored_count) || first_node != first ||
      stored_count != count) {
    return false;
  }
  const auto fail = [&] {
    for (uint64_t u = first; u < first + count; ++u) (*sketches)[u].reset();
    return false;
  };
  for (uint64_t u = first; u < first + count; ++u) {
    uint8_t present = 0;
    if (!ReadRaw(payload, &offset, &present)) return fail();
    if (present == 0) continue;
    auto sketch = VersionedHll::Deserialize(payload, &offset);
    if (!sketch.has_value() || sketch->precision() != header.precision ||
        sketch->salt() != header.salt) {
      return fail();
    }
    (*sketches)[u] = std::make_unique<VersionedHll>(std::move(*sketch));
  }
  return offset == payload.size() || fail();
}

// Writes chunk `first`..`first + count` in the layout ParseChunk reads,
// sizing *chunk exactly first so the save window holds no growth slack.
void SerializeChunk(const IrsApprox& index, uint64_t first, uint32_t count,
                    std::string* chunk) {
  size_t bytes = sizeof(uint64_t) + sizeof(uint32_t) + count;
  for (uint64_t u = first; u < first + count; ++u) {
    const SketchView sketch = index.Sketch(static_cast<NodeId>(u));
    if (sketch) {
      bytes += VersionedHll::SerializedBytes(sketch.num_cells(),
                                             sketch.NumEntries());
    }
  }
  chunk->clear();
  chunk->reserve(bytes);
  AppendRaw<uint64_t>(chunk, first);
  AppendRaw<uint32_t>(chunk, count);
  for (uint64_t u = first; u < first + count; ++u) {
    const SketchView sketch = index.Sketch(static_cast<NodeId>(u));
    AppendRaw<uint8_t>(chunk, sketch ? 1 : 0);
    if (sketch) sketch.Serialize(chunk);
  }
}

bool HasLegacyMagic(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) return false;
  char magic[sizeof(kLegacyMagic)];
  in.read(magic, sizeof(magic));
  return in.gcount() == sizeof(magic) &&
         std::memcmp(magic, kLegacyMagic, sizeof(kLegacyMagic)) == 0;
}

// Loads the pre-safe_io in-place format: no per-section checksums, so any
// damage makes the whole file unusable (all-or-nothing).
IndexLoadResult LoadLegacyIndex(const std::string& path) {
  IndexLoadResult result;
  const std::optional<std::string> contents = ReadFileBytes(path);
  if (!contents.has_value()) {
    LogError("cannot open index file: " + path);
    result.status = IndexLoadStatus::kMissing;
    return result;
  }
  const std::string& buffer = *contents;
  const obs::ScopedMemoryCharge charge(OracleIoMemTally(), buffer.capacity());
  IPIN_COUNTER_ADD("robustness.index.legacy_loads", 1);

  size_t offset = sizeof(kLegacyMagic);
  int64_t window = 0;
  uint8_t precision = 0;
  uint64_t salt = 0;
  uint64_t num_nodes = 0;
  if (!ReadRaw<int64_t>(buffer, &offset, &window) ||
      !ReadRaw<uint8_t>(buffer, &offset, &precision) ||
      !ReadRaw<uint64_t>(buffer, &offset, &salt) ||
      !ReadRaw<uint64_t>(buffer, &offset, &num_nodes)) {
    LogError("truncated index header: " + path);
    result.status = IndexLoadStatus::kTruncated;
    return result;
  }
  // Each node takes at least its presence byte.
  if (window < 1 || precision < 4 || precision > 18 ||
      num_nodes > buffer.size() - offset) {
    LogError("corrupt index header: " + path);
    result.status = IndexLoadStatus::kCorrupt;
    return result;
  }

  std::vector<std::unique_ptr<VersionedHll>> sketches(num_nodes);
  for (uint64_t u = 0; u < num_nodes; ++u) {
    uint8_t present = 0;
    if (!ReadRaw<uint8_t>(buffer, &offset, &present)) {
      LogError("truncated index body: " + path);
      result.status = IndexLoadStatus::kTruncated;
      return result;
    }
    if (present == 0) continue;
    auto sketch = VersionedHll::Deserialize(buffer, &offset);
    if (!sketch.has_value() || sketch->precision() != precision ||
        sketch->salt() != salt) {
      LogError("corrupt sketch in index file: " + path);
      result.status = IndexLoadStatus::kCorrupt;
      return result;
    }
    sketches[u] = std::make_unique<VersionedHll>(std::move(*sketch));
  }

  IrsApproxOptions options;
  options.precision = precision;
  options.salt = salt;
  result.index.emplace(window, options, std::move(sketches));
  result.status = IndexLoadStatus::kOk;
  return result;
}

}  // namespace

bool SaveInfluenceIndex(const IrsApprox& index, const std::string& path) {
  if (IPIN_FAILPOINT("oracle_io.save").fail) {
    LogError("oracle_io: injected save failure for " + path);
    return false;
  }
  // Its own ledger phase: with the scan linear, writing the index is a
  // large share of a build's wall time. Units are nodes.
  obs::ProgressPhase phase("oracle_io.save", index.num_nodes());
  SafeFileWriter writer(path, kIndexFileType, kIndexFormatVersion);

  std::string header;
  AppendRaw<int64_t>(&header, index.window());
  AppendRaw<uint8_t>(&header, static_cast<uint8_t>(index.options().precision));
  AppendRaw<uint64_t>(&header, index.options().salt);
  AppendRaw<uint64_t>(&header, index.num_nodes());
  AppendRaw<uint32_t>(&header, kChunkSize);
  if (!writer.AppendFrame(header)) return false;

  // Serialize a window of chunks in parallel, then append them in file
  // order; the buffers are reused window after window.
  const uint64_t num_nodes = index.num_nodes();
  const uint64_t num_chunks = (num_nodes + kChunkSize - 1) / kChunkSize;
  std::vector<std::string> window(kSaveWindowChunks);
  obs::ScopedMemoryCharge charge(OracleIoMemTally(), 0);
  for (uint64_t base = 0; base < num_chunks; base += kSaveWindowChunks) {
    const size_t batch = static_cast<size_t>(
        std::min<uint64_t>(kSaveWindowChunks, num_chunks - base));
    const auto count_of = [&](size_t i) {
      return static_cast<uint32_t>(std::min<uint64_t>(
          kChunkSize, num_nodes - (base + i) * kChunkSize));
    };
    ParallelFor(0, batch, 1, [&](size_t lo, size_t hi) {
      for (size_t i = lo; i < hi; ++i) {
        SerializeChunk(index, (base + i) * kChunkSize, count_of(i), &window[i]);
      }
    });
    size_t held = 0;
    for (const std::string& chunk : window) held += chunk.capacity();
    charge.Resize(held);
    for (size_t i = 0; i < batch; ++i) {
      // Torn-section injection: hand safe_io a CRC-consistent but truncated
      // payload, producing a frame that verifies yet fails to parse — the
      // "corrupt section" recovery path, distinct from a torn file.
      const auto short_write = IPIN_FAILPOINT("oracle_io.write.short");
      std::string_view payload = window[i];
      if (short_write.short_write != failpoint::Result::kNoLimit) {
        payload = payload.substr(0, short_write.short_write);
      }
      if (!writer.AppendFrame(payload)) return false;
      phase.Tick(count_of(i));
    }
  }
  return writer.Commit();
}

IndexLoadResult LoadInfluenceIndexDetailed(const std::string& path) {
  IndexLoadResult result;
  if (IPIN_FAILPOINT("oracle_io.load").fail) {
    LogError("oracle_io: injected load failure for " + path);
    return result;  // kMissing
  }

  IndexHeader header;
  std::vector<std::unique_ptr<VersionedHll>> sketches;
  {
    // Read, verify and parse; the seal below has its own phase. Units are
    // sections. The file buffer dies with this scope, before the seal.
    obs::ProgressPhase phase("oracle_io.load", 0);
    SafeFileReader reader;
    const SafeOpenStatus open_status = reader.Open(path, kIndexFileType);
    if (open_status != SafeOpenStatus::kOk) {
      if (open_status == SafeOpenStatus::kCorrupt && HasLegacyMagic(path)) {
        return LoadLegacyIndex(path);
      }
      switch (open_status) {
        case SafeOpenStatus::kMissing:
          LogError("cannot open index file: " + path);
          result.status = IndexLoadStatus::kMissing;
          break;
        case SafeOpenStatus::kTruncated:
          LogError("index file truncated before header: " + path);
          result.status = IndexLoadStatus::kTruncated;
          break;
        default:
          LogError("index file header corrupt: " + path);
          result.status = IndexLoadStatus::kCorrupt;
          break;
      }
      return result;
    }
    const obs::ScopedMemoryCharge charge(OracleIoMemTally(),
                                         reader.buffer_bytes());

    std::string_view payload;
    const FrameStatus header_status = reader.ReadFrame(&payload);
    if (header_status != FrameStatus::kOk ||
        !ParseIndexHeader(payload, reader.remaining_bytes(), &header)) {
      LogError("index header frame unreadable: " + path);
      result.status = header_status == FrameStatus::kTruncated
                          ? IndexLoadStatus::kTruncated
                          : IndexLoadStatus::kCorrupt;
      return result;
    }
    result.sections_total = static_cast<size_t>(NumChunks(header));
    sketches.resize(header.num_nodes);

    // Pass 1, in file order: walk the frames and verify their checksums.
    // A section stays kUnreachable if truncation, an untrustworthy frame
    // header, or a premature clean EOF ends the walk before it.
    enum class Fate : uint8_t {
      kUnreachable,
      kVerified,
      kChecksum,
      kUnparsable,
    };
    std::vector<Fate> fates(result.sections_total, Fate::kUnreachable);
    std::vector<std::string_view> payloads(result.sections_total);
    for (size_t k = 0; k < result.sections_total; ++k) {
      const FrameStatus status = reader.ReadFrame(&payloads[k]);
      if (status == FrameStatus::kOk) {
        fates[k] = Fate::kVerified;
      } else if (status == FrameStatus::kCorrupt && reader.CanContinue()) {
        fates[k] = Fate::kChecksum;
      } else {
        break;
      }
    }

    // Pass 2: parse the verified sections in parallel. Each writes only its
    // own nodes' slots, so the result does not depend on the schedule.
    ParallelFor(0, result.sections_total, 1, [&](size_t lo, size_t hi) {
      for (size_t k = lo; k < hi; ++k) {
        if (fates[k] == Fate::kVerified &&
            !ParseChunk(payloads[k], header, k, &sketches)) {
          fates[k] = Fate::kUnparsable;
        }
      }
      phase.Tick(hi - lo);
    });

    // Report in section order, whatever order the parses finished in.
    size_t unreachable = 0;
    for (size_t k = 0; k < result.sections_total; ++k) {
      switch (fates[k]) {
        case Fate::kVerified:
          break;
        case Fate::kChecksum:
          ++result.sections_dropped;
          LogWarning(StrFormat("index %s: section %zu failed checksum, dropped",
                               path.c_str(), k));
          break;
        case Fate::kUnparsable:
          ++result.sections_dropped;
          LogWarning(StrFormat("index %s: section %zu unparsable, dropped",
                               path.c_str(), k));
          break;
        case Fate::kUnreachable:
          ++unreachable;
          break;
      }
    }
    if (unreachable > 0) {
      result.sections_dropped += unreachable;
      LogWarning(StrFormat("index %s: %zu trailing section(s) unreachable",
                           path.c_str(), unreachable));
    }
  }

  IrsApproxOptions options;
  options.precision = header.precision;
  options.salt = header.salt;
  result.index.emplace(header.window, options, std::move(sketches));
  result.status = result.sections_dropped == 0 ? IndexLoadStatus::kOk
                                               : IndexLoadStatus::kDegraded;
  IPIN_COUNTER_ADD("robustness.index.sections_dropped",
                   result.sections_dropped);
  if (result.status == IndexLoadStatus::kDegraded) {
    IPIN_COUNTER_ADD("robustness.index.degraded_loads", 1);
  }
  IPIN_GAUGE_SET("robustness.index.degraded",
                 result.status == IndexLoadStatus::kDegraded ? 1 : 0);
  return result;
}

std::optional<IrsApprox> LoadInfluenceIndex(const std::string& path) {
  IndexLoadResult result = LoadInfluenceIndexDetailed(path);
  if (result.status == IndexLoadStatus::kDegraded) {
    LogWarning(StrFormat(
        "index %s loaded DEGRADED: %zu of %zu sections dropped", path.c_str(),
        result.sections_dropped, result.sections_total));
  }
  return std::move(result.index);
}

}  // namespace ipin
