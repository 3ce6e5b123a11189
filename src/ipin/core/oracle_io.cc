#include "ipin/core/oracle_io.h"

#include <cstring>
#include <fstream>
#include <sstream>

#include "ipin/common/failpoint.h"
#include "ipin/common/logging.h"
#include "ipin/common/safe_io.h"
#include "ipin/common/string_util.h"
#include "ipin/obs/memtally.h"
#include "ipin/obs/metrics.h"
#include "ipin/obs/progress.h"

namespace ipin {
namespace {

// Serialization buffers charge the "oracle_io" tally so index save/load
// peaks show up in the mem.oracle_io.* gauges.
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
// frame loses exactly one known slice of nodes.
constexpr uint32_t kIndexFileType = 0x58444949;  // "IIDX" little-endian
constexpr uint32_t kIndexFormatVersion = 2;
constexpr uint32_t kChunkSize = 256;

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

bool ParseIndexHeader(std::string_view payload, IndexHeader* header) {
  size_t offset = 0;
  if (!ReadRaw(payload, &offset, &header->window) ||
      !ReadRaw(payload, &offset, &header->precision) ||
      !ReadRaw(payload, &offset, &header->salt) ||
      !ReadRaw(payload, &offset, &header->num_nodes) ||
      !ReadRaw(payload, &offset, &header->chunk_size)) {
    return false;
  }
  return header->window >= 1 && header->precision >= 4 &&
         header->precision <= 18 && header->chunk_size >= 1;
}

// Parses one chunk frame into `sketches`. Returns false (chunk dropped, no
// partial writes visible beyond already-placed sketches) on any mismatch.
bool ParseChunk(std::string_view payload, const IndexHeader& header,
                std::vector<std::unique_ptr<VersionedHll>>* sketches) {
  size_t offset = 0;
  uint64_t first_node = 0;
  uint32_t count = 0;
  if (!ReadRaw(payload, &offset, &first_node) ||
      !ReadRaw(payload, &offset, &count)) {
    return false;
  }
  if (count > header.chunk_size || first_node + count > header.num_nodes) {
    return false;
  }
  for (uint64_t u = first_node; u < first_node + count; ++u) {
    uint8_t present = 0;
    if (!ReadRaw(payload, &offset, &present)) return false;
    if (present == 0) continue;
    auto sketch = VersionedHll::Deserialize(payload, &offset);
    if (!sketch.has_value() || sketch->precision() != header.precision ||
        sketch->salt() != header.salt) {
      return false;
    }
    (*sketches)[u] = std::make_unique<VersionedHll>(std::move(*sketch));
  }
  return offset == payload.size();
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
  std::ifstream in(path, std::ios::binary);
  if (!in) {
    LogError("cannot open index file: " + path);
    result.status = IndexLoadStatus::kMissing;
    return result;
  }
  std::ostringstream contents;
  contents << in.rdbuf();
  const std::string buffer = contents.str();
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
  if (window < 1 || precision < 4 || precision > 18) {
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

  std::string chunk;
  obs::ScopedMemoryCharge charge(OracleIoMemTally(), chunk.capacity());
  for (uint64_t first = 0; first < index.num_nodes(); first += kChunkSize) {
    const uint32_t count = static_cast<uint32_t>(
        std::min<uint64_t>(kChunkSize, index.num_nodes() - first));
    chunk.clear();
    AppendRaw<uint64_t>(&chunk, first);
    AppendRaw<uint32_t>(&chunk, count);
    for (uint64_t u = first; u < first + count; ++u) {
      const SketchView sketch = index.Sketch(static_cast<NodeId>(u));
      AppendRaw<uint8_t>(&chunk, sketch ? 1 : 0);
      if (sketch) sketch.Serialize(&chunk);
    }
    charge.Resize(chunk.capacity());
    // Torn-section injection: hand safe_io a CRC-consistent but truncated
    // payload, producing a frame that verifies yet fails to parse — the
    // "corrupt section" recovery path, distinct from a torn file.
    const auto short_write = IPIN_FAILPOINT("oracle_io.write.short");
    std::string_view payload = chunk;
    if (short_write.short_write != failpoint::Result::kNoLimit) {
      payload = payload.substr(0, short_write.short_write);
    }
    if (!writer.AppendFrame(payload)) return false;
    phase.Tick(count);
  }
  return writer.Commit();
}

IndexLoadResult LoadInfluenceIndexDetailed(const std::string& path) {
  IndexLoadResult result;
  if (IPIN_FAILPOINT("oracle_io.load").fail) {
    LogError("oracle_io: injected load failure for " + path);
    return result;  // kMissing
  }

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

  std::string payload;
  const FrameStatus header_status = reader.ReadFrame(&payload);
  IndexHeader header;
  if (header_status != FrameStatus::kOk || !ParseIndexHeader(payload, &header)) {
    LogError("index header frame unreadable: " + path);
    result.status = header_status == FrameStatus::kTruncated
                        ? IndexLoadStatus::kTruncated
                        : IndexLoadStatus::kCorrupt;
    return result;
  }

  result.sections_total =
      static_cast<size_t>((header.num_nodes + header.chunk_size - 1) /
                          header.chunk_size);
  std::vector<std::unique_ptr<VersionedHll>> sketches(header.num_nodes);
  const obs::ScopedMemoryCharge charge(OracleIoMemTally(),
                                       payload.capacity());
  size_t sections_read = 0;
  while (sections_read < result.sections_total) {
    const FrameStatus status = reader.ReadFrame(&payload);
    if (status == FrameStatus::kOk) {
      ++sections_read;
      if (!ParseChunk(payload, header, &sketches)) {
        ++result.sections_dropped;
        LogWarning(StrFormat("index %s: section %zu unparsable, dropped",
                             path.c_str(), sections_read - 1));
      }
      continue;
    }
    if (status == FrameStatus::kCorrupt && reader.CanContinue()) {
      ++sections_read;
      ++result.sections_dropped;
      LogWarning(StrFormat("index %s: section %zu failed checksum, dropped",
                           path.c_str(), sections_read - 1));
      continue;
    }
    // Truncation, an untrustworthy frame header, or a premature clean EOF:
    // every section not yet seen is unreachable.
    result.sections_dropped += result.sections_total - sections_read;
    LogWarning(StrFormat("index %s: %zu trailing section(s) unreachable",
                         path.c_str(), result.sections_total - sections_read));
    break;
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
