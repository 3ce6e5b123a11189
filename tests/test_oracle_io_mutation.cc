// Seeded mutation fuzzing of the index loader, LoadInfluenceIndexDetailed.
// Index files are untrusted bytes: a server hot-reloads whatever is on disk.
// Every mutated file must satisfy:
//
//   * no crash, and the status is one of the documented ones;
//   * sections_dropped is exactly what the damage predicts. The prediction
//     comes from where the damage sits in the pristine file's frame layout,
//     not from a second loader;
//   * every node outside a dropped section answers EstimateIrsSize exactly
//     as in the pristine file, and every node inside one has no sketch;
//   * loads at 1 and 4 threads agree on status, dropped sections, warnings
//     (in section order) and the sealed arena's bytes.
//
// Mutations: byte flips, truncations, frame-level splices (dropped,
// duplicated, swapped and foreign frames), byte-level splices (checked
// against the per-node invariants only), and header or chunk frames
// re-checksummed with hostile num_nodes, chunk_size, count and first_node
// values.

#include <unistd.h>

#include <algorithm>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <optional>
#include <span>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "ipin/common/logging.h"
#include "ipin/common/random.h"
#include "ipin/common/safe_io.h"
#include "ipin/common/thread_pool.h"
#include "ipin/core/oracle_io.h"
#include "ipin/datasets/synthetic.h"

namespace ipin {
namespace {

// The framed index layout (oracle_io.cc): a 20-byte safe_io file header,
// then frames of u32 len | u32 crc(payload) | u32 crc(len, crc) | payload.
// Frame 0 is the index header; frame k + 1 is chunk k.
constexpr size_t kFileHeaderBytes = 20;
constexpr size_t kFrameHeaderBytes = 12;
constexpr uint64_t kChunkSize = 256;
// Header payload offsets: i64 window, u8 precision, u64 salt, u64 num_nodes,
// u32 chunk_size.
constexpr size_t kNumNodesAt = 17;
constexpr size_t kChunkSizeAt = 25;
// Chunk payload offsets: u64 first_node, u32 count.
constexpr size_t kCountAt = 8;

template <typename T>
T ReadAt(const std::string& bytes, size_t offset) {
  T value;
  std::memcpy(&value, bytes.data() + offset, sizeof(T));
  return value;
}

template <typename T>
void WriteAt(std::string* bytes, size_t offset, T value) {
  std::memcpy(bytes->data() + offset, &value, sizeof(T));
}

std::string Frame(const std::string& payload) {
  std::string frame(kFrameHeaderBytes, '\0');
  WriteAt<uint32_t>(&frame, 0, static_cast<uint32_t>(payload.size()));
  WriteAt<uint32_t>(&frame, 4, Crc32c(payload));
  WriteAt<uint32_t>(&frame, 8, Crc32c(frame.data(), 8));
  return frame + payload;
}

// Byte ranges of a pristine index file's frames.
struct Layout {
  size_t header_end = 0;                 // end of the header frame
  std::vector<size_t> begin, end;        // chunk frames, frame header included
  std::vector<uint64_t> count;           // nodes per chunk
  uint64_t num_nodes = 0;

  std::string Payload(const std::string& file, size_t k) const {
    return file.substr(begin[k] + kFrameHeaderBytes,
                       end[k] - begin[k] - kFrameHeaderBytes);
  }
  std::string HeaderPayload(const std::string& file) const {
    return file.substr(kFileHeaderBytes + kFrameHeaderBytes,
                       header_end - kFileHeaderBytes - kFrameHeaderBytes);
  }
};

Layout ParseLayout(const std::string& file) {
  Layout layout;
  size_t offset = kFileHeaderBytes;
  const auto frame_end = [&file](size_t at) {
    return at + kFrameHeaderBytes + ReadAt<uint32_t>(file, at);
  };
  layout.header_end = frame_end(offset);
  layout.num_nodes =
      ReadAt<uint64_t>(file, offset + kFrameHeaderBytes + kNumNodesAt);
  for (offset = layout.header_end; offset < file.size();
       offset = frame_end(offset)) {
    layout.begin.push_back(offset);
    layout.end.push_back(frame_end(offset));
    layout.count.push_back(
        ReadAt<uint32_t>(file, offset + kFrameHeaderBytes + kCountAt));
  }
  return layout;
}

// What a load of a mutated file must report.
struct Expected {
  IndexLoadStatus status = IndexLoadStatus::kOk;
  std::vector<bool> dropped;  // per section, for usable loads
  uint64_t chunk_size = kChunkSize;  // nodes per section
  bool exact = true;  // false: only the per-node invariants hold
};

Expected Usable(std::vector<bool> dropped, uint64_t chunk_size = kChunkSize) {
  Expected want;
  want.dropped = std::move(dropped);
  want.chunk_size = chunk_size;
  const bool any = std::find(want.dropped.begin(), want.dropped.end(),
                             true) != want.dropped.end();
  want.status = any ? IndexLoadStatus::kDegraded : IndexLoadStatus::kOk;
  return want;
}

Expected Unusable(IndexLoadStatus status) {
  Expected want;
  want.status = status;
  return want;
}

// One load, with everything the thread-count comparison needs.
struct Outcome {
  IndexLoadResult result;
  std::vector<std::string> warnings;
};

Outcome LoadAt(size_t threads, const std::string& path) {
  Outcome out;
  SetGlobalThreads(threads);
  SetLogSink([&out](LogLevel level, const std::string& message) {
    if (level == LogLevel::kWarning) out.warnings.push_back(message);
  });
  out.result = LoadInfluenceIndexDetailed(path);
  SetLogSink({});
  SetGlobalThreads(0);
  return out;
}

template <typename T>
bool SameBytes(std::span<const T> a, std::span<const T> b) {
  return std::equal(a.begin(), a.end(), b.begin(), b.end());
}

bool SameArena(const SketchArena& a, const SketchArena& b) {
  const SketchArena::Planes pa = a.planes();
  const SketchArena::Planes pb = b.planes();
  return SameBytes(pa.rank_plane, pb.rank_plane) &&
         SameBytes(pa.slot_of, pb.slot_of) &&
         SameBytes(pa.cell_counts, pb.cell_counts) &&
         SameBytes(pa.slot_entry_base, pb.slot_entry_base) &&
         SameBytes(pa.entry_ranks, pb.entry_ranks) &&
         SameBytes(pa.entry_times, pb.entry_times);
}

class OracleIoMutationTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    SetLogLevel(LogLevel::kWarning);
    // Five sections (1100 nodes); dense enough that every section holds
    // sketches, so a foreign or misplaced section can never parse.
    const InteractionGraph g =
        GenerateUniformRandomNetwork(1100, 6000, 20000, 17);
    IrsApproxOptions options;
    options.precision = 5;
    options.salt = 3;
    pristine_index_ = new IrsApprox(IrsApprox::Compute(g, 2000, options));
    const std::string path = TempPath("pristine");
    ASSERT_TRUE(SaveInfluenceIndex(*pristine_index_, path));
    pristine_ = new std::string(*ReadFileBytes(path));
    // The same nodes under another salt: its chunk frames sit at the same
    // positions with the same counts but fail the salt check.
    options.salt = 4;
    ASSERT_TRUE(SaveInfluenceIndex(IrsApprox::Compute(g, 2000, options), path));
    foreign_ = new std::string(*ReadFileBytes(path));
    std::remove(path.c_str());
    layout_ = new Layout(ParseLayout(*pristine_));
  }
  static void TearDownTestSuite() {
    delete pristine_index_;
    delete pristine_;
    delete foreign_;
    delete layout_;
    SetLogLevel(LogLevel::kInfo);
  }

  void SetUp() override { path_ = TempPath("mutant"); }
  void TearDown() override { std::remove(path_.c_str()); }

  static std::string TempPath(const std::string& tag) {
    return ::testing::TempDir() + "/ipin_index_mutation_" +
           std::to_string(::getpid()) + "_" + tag + ".bin";
  }

  static const Layout& layout() { return *layout_; }
  static const std::string& pristine() { return *pristine_; }
  static size_t sections() { return layout_->begin.size(); }

  // Loads `bytes` at 1 and 4 threads and checks every invariant.
  void Check(const std::string& bytes, const Expected& want,
             const std::string& what) {
    {
      std::ofstream out(path_, std::ios::binary | std::ios::trunc);
      out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
    }
    const Outcome one = LoadAt(1, path_);
    const Outcome four = LoadAt(4, path_);

    // Both thread counts tell the same story.
    ASSERT_EQ(one.result.status, four.result.status) << what;
    ASSERT_EQ(one.result.sections_total, four.result.sections_total) << what;
    ASSERT_EQ(one.result.sections_dropped, four.result.sections_dropped)
        << what;
    ASSERT_EQ(one.warnings, four.warnings) << what;
    ASSERT_EQ(one.result.usable(), four.result.usable()) << what;
    if (one.result.usable()) {
      ASSERT_TRUE(SameArena(*one.result.index->arena(),
                            *four.result.index->arena()))
          << what;
    }

    const IndexLoadResult& got = one.result;
    if (want.exact) {
      ASSERT_EQ(got.status, want.status) << what;
    } else {
      ASSERT_TRUE(got.status == IndexLoadStatus::kOk ||
                  got.status == IndexLoadStatus::kDegraded ||
                  got.status == IndexLoadStatus::kTruncated ||
                  got.status == IndexLoadStatus::kCorrupt)
          << what;
    }
    ASSERT_EQ(got.usable(), got.status == IndexLoadStatus::kOk ||
                                got.status == IndexLoadStatus::kDegraded)
        << what;
    if (!got.usable()) return;
    ASSERT_LE(got.sections_dropped, got.sections_total) << what;
    ASSERT_EQ(got.status == IndexLoadStatus::kDegraded,
              got.sections_dropped > 0)
        << what;

    const IrsApprox& index = *got.index;
    if (want.exact) {
      ASSERT_EQ(got.sections_total, want.dropped.size()) << what;
      ASSERT_EQ(got.sections_dropped,
                static_cast<size_t>(std::count(want.dropped.begin(),
                                               want.dropped.end(), true)))
          << what;
      for (NodeId u = 0; u < index.num_nodes(); ++u) {
        if (want.dropped[u / want.chunk_size]) {
          ASSERT_FALSE(index.Sketch(u).valid()) << what << " node " << u;
          ASSERT_EQ(index.EstimateIrsSize(u), 0.0) << what << " node " << u;
        } else {
          ASSERT_EQ(index.EstimateIrsSize(u),
                    pristine_index_->EstimateIrsSize(u))
              << what << " node " << u;
        }
      }
      return;
    }
    // Inexact mutations: a node either kept its pristine sketch or lost it.
    for (NodeId u = 0; u < index.num_nodes(); ++u) {
      if (!index.Sketch(u).valid()) continue;
      ASSERT_LT(u, pristine_index_->num_nodes()) << what;
      ASSERT_EQ(index.EstimateIrsSize(u), pristine_index_->EstimateIrsSize(u))
          << what << " node " << u;
    }
  }

  // Prediction for a file whose bytes differ from the pristine one only at
  // `changed` positions (same length).
  static Expected PredictFlips(const std::vector<size_t>& changed) {
    const Layout& l = layout();
    std::vector<bool> dropped(sections(), false);
    for (const size_t pos : changed) {
      if (pos < l.header_end) return Unusable(IndexLoadStatus::kCorrupt);
    }
    for (size_t k = 0; k < sections(); ++k) {
      bool header_hit = false;
      for (const size_t pos : changed) {
        if (pos >= l.begin[k] && pos < l.begin[k] + kFrameHeaderBytes) {
          header_hit = true;
        } else if (pos >= l.begin[k] && pos < l.end[k]) {
          dropped[k] = true;
        }
      }
      if (header_hit) {
        // An untrusted length: this section and every later one are lost.
        std::fill(dropped.begin() + static_cast<ptrdiff_t>(k), dropped.end(),
                  true);
        break;
      }
    }
    return Usable(std::move(dropped));
  }

  // Prediction for the pristine file cut to `length` bytes.
  static Expected PredictTruncation(size_t length) {
    const Layout& l = layout();
    if (length < kFileHeaderBytes) return Unusable(IndexLoadStatus::kTruncated);
    // Nothing after the file header reads as a clean end, which the header
    // frame cannot be.
    if (length == kFileHeaderBytes) return Unusable(IndexLoadStatus::kCorrupt);
    if (length < l.header_end) return Unusable(IndexLoadStatus::kTruncated);
    // The header's sections must fit in what is left (24 bytes each at
    // least), or it is not believed.
    if (sections() * 24 > length - l.header_end) {
      return Unusable(IndexLoadStatus::kCorrupt);
    }
    std::vector<bool> dropped(sections());
    for (size_t k = 0; k < sections(); ++k) dropped[k] = l.end[k] > length;
    return Usable(std::move(dropped));
  }

  // Prediction for pristine headers followed by `frames` chunk frames: a
  // section survives only where its own pristine frame sits at its own
  // position.
  static Expected PredictFrames(const std::vector<std::string>& frames) {
    size_t bytes = 0;
    for (const std::string& f : frames) bytes += f.size();
    if (sections() * 24 > bytes) return Unusable(IndexLoadStatus::kCorrupt);
    std::vector<bool> dropped(sections());
    for (size_t k = 0; k < sections(); ++k) {
      dropped[k] = k >= frames.size() ||
                   frames[k] != pristine().substr(
                                    layout().begin[k],
                                    layout().end[k] - layout().begin[k]);
    }
    return Usable(std::move(dropped));
  }

  static IrsApprox* pristine_index_;
  static std::string* pristine_;
  static std::string* foreign_;
  static Layout* layout_;
  std::string path_;
};

IrsApprox* OracleIoMutationTest::pristine_index_ = nullptr;
std::string* OracleIoMutationTest::pristine_ = nullptr;
std::string* OracleIoMutationTest::foreign_ = nullptr;
Layout* OracleIoMutationTest::layout_ = nullptr;

TEST_F(OracleIoMutationTest, PristineFileLoadsWhole) {
  ASSERT_EQ(sections(), 5u);
  ASSERT_EQ(layout().end.back(), pristine().size());
  for (size_t k = 0; k < sections(); ++k) {
    bool any = false;
    for (uint64_t u = k * kChunkSize; u < (k + 1) * kChunkSize; ++u) {
      any = any || pristine_index_->Sketch(static_cast<NodeId>(u)).valid();
    }
    EXPECT_TRUE(any) << "section " << k << " holds no sketch";
  }
  Check(pristine(), Usable(std::vector<bool>(sections(), false)), "pristine");
}

TEST_F(OracleIoMutationTest, ByteFlips) {
  Rng rng(401);
  for (int trial = 0; trial < 300; ++trial) {
    std::string data = pristine();
    const uint64_t flips = 1 + rng.NextBounded(3);
    for (uint64_t f = 0; f < flips; ++f) {
      // Half the flips aim at the frame headers and index header, where the
      // outcomes differ most; the rest land anywhere.
      size_t pos = rng.NextBounded(data.size());
      if (rng.NextBernoulli(0.5)) {
        const size_t k = rng.NextBounded(sections() + 1);
        pos = k == sections() ? rng.NextBounded(layout().header_end)
                              : layout().begin[k] +
                                    rng.NextBounded(kFrameHeaderBytes);
      }
      data[pos] = static_cast<char>(data[pos] ^ (1 + rng.NextBounded(255)));
    }
    std::vector<size_t> changed;
    for (size_t i = 0; i < data.size(); ++i) {
      if (data[i] != pristine()[i]) changed.push_back(i);
    }
    Check(data, PredictFlips(changed), "flip trial " + std::to_string(trial));
  }
}

TEST_F(OracleIoMutationTest, Truncations) {
  std::vector<size_t> lengths = {0, 7, 8, 19, 20, 21, layout().header_end - 1,
                                 layout().header_end,
                                 layout().header_end + 24 * sections() - 1,
                                 layout().header_end + 24 * sections()};
  for (size_t k = 0; k < sections(); ++k) {
    for (const size_t at : {layout().begin[k], layout().begin[k] + 5,
                            layout().begin[k] + kFrameHeaderBytes,
                            layout().end[k] - 1}) {
      lengths.push_back(at);
    }
  }
  Rng rng(402);
  for (int trial = 0; trial < 60; ++trial) {
    lengths.push_back(rng.NextBounded(pristine().size()));
  }
  for (const size_t length : lengths) {
    Check(pristine().substr(0, length), PredictTruncation(length),
          "truncated to " + std::to_string(length));
  }
}

TEST_F(OracleIoMutationTest, FrameSplices) {
  const size_t head_end = layout().header_end;
  const std::string head = pristine().substr(0, head_end);
  std::vector<std::string> own, foreign;
  for (size_t k = 0; k < sections(); ++k) {
    own.push_back(pristine().substr(layout().begin[k],
                                    layout().end[k] - layout().begin[k]));
  }
  const Layout foreign_layout = ParseLayout(*foreign_);
  ASSERT_EQ(foreign_layout.begin.size(), sections());
  for (size_t k = 0; k < sections(); ++k) {
    foreign.push_back(foreign_->substr(
        foreign_layout.begin[k],
        foreign_layout.end[k] - foreign_layout.begin[k]));
  }
  Rng rng(403);
  for (int trial = 0; trial < 150; ++trial) {
    std::vector<std::string> frames = own;
    const uint64_t edits = 1 + rng.NextBounded(3);
    for (uint64_t e = 0; e < edits && !frames.empty(); ++e) {
      const size_t at = rng.NextBounded(frames.size());
      switch (rng.NextBounded(4)) {
        case 0:  // drop a frame
          frames.erase(frames.begin() + static_cast<ptrdiff_t>(at));
          break;
        case 1:  // duplicate one
          frames.insert(frames.begin() + static_cast<ptrdiff_t>(at),
                        frames[at]);
          break;
        case 2:  // swap two
          std::swap(frames[at], frames[rng.NextBounded(frames.size())]);
          break;
        default:  // a CRC-valid frame from another index, same position
          frames[at] = foreign[std::min(at, foreign.size() - 1)];
          break;
      }
    }
    std::string data = head;
    for (const std::string& f : frames) data += f;
    Check(data, PredictFrames(frames),
          "frame splice trial " + std::to_string(trial));
  }
}

TEST_F(OracleIoMutationTest, ByteSplices) {
  Rng rng(404);
  for (int trial = 0; trial < 150; ++trial) {
    // The other file's header never survives a splice, so its sketches
    // (another salt) cannot be believed.
    const bool self = rng.NextBernoulli(0.5);
    const std::string& other = self ? pristine() : *foreign_;
    const size_t skip = self ? 0 : layout().header_end;
    const size_t cut_a = rng.NextBounded(pristine().size() + 1);
    const size_t cut_b = skip + rng.NextBounded(other.size() - skip + 1);
    Expected want;
    want.exact = false;
    Check(pristine().substr(0, cut_a) + other.substr(cut_b), want,
          "byte splice trial " + std::to_string(trial));
  }
}

TEST_F(OracleIoMutationTest, HostileHeaderValues) {
  const std::string header = layout().HeaderPayload(pristine());
  const std::string chunks = pristine().substr(layout().header_end);
  const uint64_t n = layout().num_nodes;
  const uint64_t kNumNodes[] = {0,         1,          n - 1,
                                n + 1,     n + 300,    uint64_t{1} << 32,
                                uint64_t{1} << 61,     ~uint64_t{0}};
  const uint32_t kChunkSizes[] = {0, 1, 128, 255, 256, 257, 1u << 31,
                                  0xffffffffu};
  for (const uint64_t num_nodes : kNumNodes) {
    for (const uint32_t chunk_size : kChunkSizes) {
      std::string payload = header;
      WriteAt<uint64_t>(&payload, kNumNodesAt, num_nodes);
      WriteAt<uint32_t>(&payload, kChunkSizeAt, chunk_size);
      const std::string data =
          pristine().substr(0, kFileHeaderBytes) + Frame(payload) + chunks;
      const std::string what = "num_nodes " + std::to_string(num_nodes) +
                               " chunk_size " + std::to_string(chunk_size);
      // Believed only with a chunk size the save can write and with
      // enough bytes left for the sections it implies.
      const uint64_t total =
          chunk_size == 0 ? 0 : num_nodes / chunk_size +
                                    (num_nodes % chunk_size != 0 ? 1 : 0);
      if (chunk_size == 0 || chunk_size > kChunkSize ||
          total > chunks.size() / 24) {
        Check(data, Unusable(IndexLoadStatus::kCorrupt), what);
        continue;
      }
      // Section k holds its pristine frame only if the header puts the
      // same nodes there.
      std::vector<bool> dropped(total);
      for (uint64_t k = 0; k < total; ++k) {
        const uint64_t first = k * chunk_size;
        dropped[k] = k >= sections() || first != k * kChunkSize ||
                     std::min<uint64_t>(chunk_size, num_nodes - first) !=
                         layout().count[k];
      }
      Check(data, Usable(std::move(dropped), chunk_size), what);
    }
  }
}

TEST_F(OracleIoMutationTest, HostileChunkFields) {
  const uint64_t kValues[] = {0, 1, 255, 257, 0xffffffffull,
                              uint64_t{1} << 40, ~uint64_t{0}};
  Rng rng(405);
  for (int trial = 0; trial < 80; ++trial) {
    const size_t k = rng.NextBounded(sections());
    std::string payload = layout().Payload(pristine(), k);
    const uint64_t value = kValues[rng.NextBounded(std::size(kValues))];
    const bool count_field = rng.NextBernoulli(0.5);
    if (count_field) {
      WriteAt<uint32_t>(&payload, kCountAt, static_cast<uint32_t>(value));
    } else {
      WriteAt<uint64_t>(&payload, 0, value);
    }
    const bool unchanged = payload == layout().Payload(pristine(), k);
    const std::string data = pristine().substr(0, layout().begin[k]) +
                             Frame(payload) +
                             pristine().substr(layout().end[k]);
    std::vector<bool> dropped(sections(), false);
    dropped[k] = !unchanged;
    Check(data, Usable(std::move(dropped)),
          std::string(count_field ? "count " : "first_node ") +
              std::to_string(value) + " in section " + std::to_string(k));
  }
}

}  // namespace
}  // namespace ipin
