// Seeded mutation fuzzing of VersionedHll::Deserialize. Index files are
// untrusted bytes, and the parser turns them into per-cell offsets of a
// flat entry buffer, so every mutated blob must either be rejected cleanly
// or parse into a sketch that passes CheckInvariants and re-serializes to
// exactly the bytes it was read from (parse -> serialize -> parse is a
// fixed point).

#include <cstring>
#include <optional>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "ipin/common/random.h"
#include "ipin/sketch/vhll.h"

namespace ipin {
namespace {

// Valid blobs to mutate: several precisions and salts, an empty sketch,
// and times that are large, negative (negated timestamps) or tied across
// cells.
std::vector<std::string> SeedBlobs() {
  std::vector<std::string> blobs;
  Rng rng(11);
  const struct {
    int precision;
    int items;
    Timestamp base;
  } kShapes[] = {{4, 0, 0},       {4, 300, 0},        {5, 200, -1000},
                 {6, 500, 1 << 30}, {9, 2000, -(int64_t{1} << 40)}};
  for (const auto& shape : kShapes) {
    VersionedHll sketch(shape.precision, rng.NextUint64());
    for (int i = 0; i < shape.items; ++i) {
      sketch.Add(rng.NextUint64(),
                 shape.base + static_cast<Timestamp>(rng.NextBounded(64)));
    }
    std::string blob;
    sketch.Serialize(&blob);
    blobs.push_back(std::move(blob));
  }
  return blobs;
}

// Parses `data` from offset 0 and checks the contract on acceptance.
void CheckParse(const std::string& data, const std::string& what) {
  size_t offset = 0;
  const std::optional<VersionedHll> parsed =
      VersionedHll::Deserialize(data, &offset);
  if (!parsed.has_value()) return;
  ASSERT_LE(offset, data.size()) << what;
  ASSERT_TRUE(parsed->CheckInvariants()) << what;
  // The encoding is canonical: re-serializing gives back the consumed bytes.
  std::string again;
  parsed->Serialize(&again);
  ASSERT_EQ(again, data.substr(0, offset)) << what;
  size_t again_offset = 0;
  const std::optional<VersionedHll> reparsed =
      VersionedHll::Deserialize(again, &again_offset);
  ASSERT_TRUE(reparsed.has_value()) << what;
  ASSERT_EQ(again_offset, again.size()) << what;
  std::string third;
  reparsed->Serialize(&third);
  ASSERT_EQ(third, again) << what;
  ASSERT_EQ(reparsed->NumEntries(), parsed->NumEntries()) << what;
}

TEST(VhllMutationTest, UnmodifiedBlobsRoundTrip) {
  for (const std::string& blob : SeedBlobs()) {
    size_t offset = 0;
    ASSERT_TRUE(VersionedHll::Deserialize(blob, &offset).has_value());
    EXPECT_EQ(offset, blob.size());
    CheckParse(blob, "unmodified");
  }
}

TEST(VhllMutationTest, ByteFlipsAreRejectedOrParseConsistently) {
  const std::vector<std::string> blobs = SeedBlobs();
  Rng rng(101);
  for (int trial = 0; trial < 3000; ++trial) {
    std::string data = blobs[rng.NextBounded(blobs.size())];
    const uint64_t flips = 1 + rng.NextBounded(4);
    for (uint64_t f = 0; f < flips; ++f) {
      const size_t pos = rng.NextBounded(data.size());
      data[pos] = static_cast<char>(data[pos] ^ (1 + rng.NextBounded(255)));
    }
    CheckParse(data, "flip trial " + std::to_string(trial));
  }
}

TEST(VhllMutationTest, TruncationsAreRejected) {
  Rng rng(202);
  for (const std::string& blob : SeedBlobs()) {
    for (int trial = 0; trial < 300; ++trial) {
      const size_t length = rng.NextBounded(blob.size());
      const std::string data = blob.substr(0, length);
      size_t offset = 0;
      EXPECT_FALSE(VersionedHll::Deserialize(data, &offset).has_value())
          << "length " << length << " of " << blob.size();
    }
  }
}

TEST(VhllMutationTest, SplicesAreRejectedOrParseConsistently) {
  const std::vector<std::string> blobs = SeedBlobs();
  Rng rng(303);
  for (int trial = 0; trial < 3000; ++trial) {
    const std::string& a = blobs[rng.NextBounded(blobs.size())];
    const std::string& b = blobs[rng.NextBounded(blobs.size())];
    const size_t cut_a = rng.NextBounded(a.size() + 1);
    const size_t cut_b = rng.NextBounded(b.size() + 1);
    std::string data = a.substr(0, cut_a) + b.substr(cut_b);
    // Sometimes also overwrite a word with a hostile value: a huge cell
    // count, a time outside the entry range, or all-ones.
    if (rng.NextBernoulli(0.3) && data.size() >= 8) {
      const uint64_t kHostile[] = {0xffffffffull, 65, uint64_t{1} << 55,
                                   ~uint64_t{0}};
      const uint64_t word = kHostile[rng.NextBounded(4)];
      const size_t pos = rng.NextBounded(data.size() - 7);
      std::memcpy(data.data() + pos, &word, sizeof(word));
    }
    CheckParse(data, "splice trial " + std::to_string(trial));
  }
}

TEST(VhllMutationTest, ParsesAtAnOffsetInsideALargerBuffer) {
  // Index chunks concatenate sketches; each parse must stop exactly at its
  // own end and leave the next sketch intact.
  const std::vector<std::string> blobs = SeedBlobs();
  std::string chunk;
  for (const std::string& blob : blobs) chunk += blob;
  size_t offset = 0;
  for (const std::string& blob : blobs) {
    const size_t start = offset;
    const auto parsed = VersionedHll::Deserialize(chunk, &offset);
    ASSERT_TRUE(parsed.has_value());
    EXPECT_EQ(offset - start, blob.size());
  }
  EXPECT_EQ(offset, chunk.size());
}

// Hand-built cells: the layout is u8 version, u8 precision, u64 salt, then
// per cell a u32 count and count x (u8 rank, i64 time).
std::string OneCellBlob(const std::vector<std::pair<uint8_t, int64_t>>& cell0,
                        uint32_t count0) {
  std::string blob;
  const auto put = [&blob](auto value) {
    blob.append(reinterpret_cast<const char*>(&value), sizeof(value));
  };
  put(uint8_t{1});
  put(uint8_t{4});
  put(uint64_t{0});
  put(count0);
  for (const auto& [rank, time] : cell0) {
    put(rank);
    put(time);
  }
  for (int c = 1; c < 16; ++c) put(uint32_t{0});
  return blob;
}

TEST(VhllMutationTest, RejectsSemanticallyInvalidCells) {
  size_t offset = 0;
  // Valid baseline.
  EXPECT_TRUE(
      VersionedHll::Deserialize(OneCellBlob({{1, 5}, {2, 9}}, 2), &offset)
          .has_value());
  const auto rejected = [](const std::string& blob) {
    size_t at = 0;
    return !VersionedHll::Deserialize(blob, &at).has_value();
  };
  // Equal times: (2, 5) dominates (1, 5).
  EXPECT_TRUE(rejected(OneCellBlob({{1, 5}, {2, 5}}, 2)));
  // Descending rank and zero rank.
  EXPECT_TRUE(rejected(OneCellBlob({{2, 5}, {1, 9}}, 2)));
  EXPECT_TRUE(rejected(OneCellBlob({{0, 5}}, 1)));
  // Times outside the 56-bit entry range.
  EXPECT_TRUE(
      rejected(OneCellBlob({{1, VersionedHll::kMaxEntryTime + 1}}, 1)));
  EXPECT_TRUE(
      rejected(OneCellBlob({{1, VersionedHll::kMinEntryTime - 1}}, 1)));
  // A count the bytes cannot back, and one past the 64-entry cap.
  EXPECT_TRUE(rejected(OneCellBlob({{1, 5}}, 2)));
  EXPECT_TRUE(rejected(OneCellBlob({}, 65)));
}

}  // namespace
}  // namespace ipin
