#include "ipin/core/oracle_io.h"

#include <cstdio>
#include <cstring>
#include <fstream>
#include <string>

#include <gtest/gtest.h>

#include "ipin/common/failpoint.h"
#include "ipin/common/logging.h"
#include "ipin/common/random.h"
#include "ipin/common/safe_io.h"
#include "ipin/datasets/synthetic.h"
#include "ipin/sketch/vhll.h"

namespace ipin {
namespace {

class OracleIoTest : public ::testing::Test {
 protected:
  void SetUp() override {
    path_ = ::testing::TempDir() + "/ipin_index_" +
            std::to_string(reinterpret_cast<uintptr_t>(this)) + ".bin";
    SetLogLevel(LogLevel::kError);
  }
  void TearDown() override {
    failpoint::ClearAll();
    std::remove(path_.c_str());
  }

  std::string ReadFileBytes() const {
    std::ifstream in(path_, std::ios::binary);
    return std::string((std::istreambuf_iterator<char>(in)),
                       std::istreambuf_iterator<char>());
  }
  void WriteFileBytes(const std::string& contents) const {
    std::ofstream out(path_, std::ios::binary | std::ios::trunc);
    out << contents;
  }

  std::string path_;
};

TEST(VhllSerializeTest, RoundtripPreservesEverything) {
  VersionedHll original(7, 42);
  Rng rng(5);
  for (int i = 0; i < 5000; ++i) {
    original.Add(rng.NextUint64(),
                 static_cast<Timestamp>(rng.NextBounded(1000)));
  }
  std::string blob;
  original.Serialize(&blob);
  size_t offset = 0;
  const auto restored = VersionedHll::Deserialize(blob, &offset);
  ASSERT_TRUE(restored.has_value());
  EXPECT_EQ(offset, blob.size());
  EXPECT_EQ(restored->precision(), 7);
  EXPECT_EQ(restored->salt(), 42u);
  EXPECT_EQ(restored->NumEntries(), original.NumEntries());
  EXPECT_DOUBLE_EQ(restored->Estimate(), original.Estimate());
  for (size_t c = 0; c < original.num_cells(); ++c) {
    const auto& a = original.cell(c);
    const auto& b = restored->cell(c);
    ASSERT_EQ(a.size(), b.size());
    for (size_t i = 0; i < a.size(); ++i) {
      EXPECT_EQ(a[i].rank, b[i].rank);
      EXPECT_EQ(a[i].time, b[i].time);
    }
  }
}

TEST(VhllSerializeTest, SerializedBytesIsExact) {
  Rng rng(8);
  for (const int precision : {4, 9, 12}) {
    VersionedHll sketch(precision, 3);
    for (int items : {0, 1, 700}) {
      for (int i = 0; i < items; ++i) {
        sketch.Add(rng.NextUint64(),
                   static_cast<Timestamp>(rng.NextBounded(500)));
      }
      std::string blob;
      sketch.Serialize(&blob);
      EXPECT_EQ(blob.size(), VersionedHll::SerializedBytes(
                                 sketch.num_cells(), sketch.NumEntries()))
          << "precision " << precision << " entries " << sketch.NumEntries();
    }
  }
}

TEST(VhllSerializeTest, TruncatedBlobRejected) {
  VersionedHll sketch(5);
  sketch.Add(1, 10);
  sketch.Add(2, 20);
  std::string blob;
  sketch.Serialize(&blob);
  for (const size_t cut : {size_t{0}, size_t{1}, blob.size() / 2,
                           blob.size() - 1}) {
    size_t offset = 0;
    EXPECT_FALSE(
        VersionedHll::Deserialize(std::string_view(blob.data(), cut), &offset)
            .has_value())
        << "cut " << cut;
  }
}

TEST(VhllSerializeTest, CorruptVersionRejected) {
  VersionedHll sketch(5);
  sketch.Add(1, 10);
  std::string blob;
  sketch.Serialize(&blob);
  blob[0] = 99;  // bogus format version
  size_t offset = 0;
  EXPECT_FALSE(VersionedHll::Deserialize(blob, &offset).has_value());
}

TEST(VhllSerializeTest, MultipleSketchesInOneBuffer) {
  VersionedHll a(4, 1);
  VersionedHll b(6, 2);
  a.Add(10, 1);
  b.Add(20, 2);
  std::string blob;
  a.Serialize(&blob);
  b.Serialize(&blob);
  size_t offset = 0;
  const auto ra = VersionedHll::Deserialize(blob, &offset);
  const auto rb = VersionedHll::Deserialize(blob, &offset);
  ASSERT_TRUE(ra.has_value());
  ASSERT_TRUE(rb.has_value());
  EXPECT_EQ(offset, blob.size());
  EXPECT_EQ(ra->precision(), 4);
  EXPECT_EQ(rb->precision(), 6);
  EXPECT_EQ(rb->salt(), 2u);
}

TEST_F(OracleIoTest, IndexRoundtripPreservesEstimates) {
  const InteractionGraph g = GenerateUniformRandomNetwork(120, 1500, 4000, 9);
  IrsApproxOptions options;
  options.precision = 8;
  options.salt = 7;
  const IrsApprox index = IrsApprox::Compute(g, 800, options);

  ASSERT_TRUE(SaveInfluenceIndex(index, path_));
  const auto loaded = LoadInfluenceIndex(path_);
  ASSERT_TRUE(loaded.has_value());

  EXPECT_EQ(loaded->num_nodes(), index.num_nodes());
  EXPECT_EQ(loaded->window(), index.window());
  EXPECT_EQ(loaded->options().precision, 8);
  EXPECT_EQ(loaded->options().salt, 7u);
  EXPECT_EQ(loaded->TotalSketchEntries(), index.TotalSketchEntries());
  EXPECT_EQ(loaded->NumAllocatedSketches(), index.NumAllocatedSketches());
  for (NodeId u = 0; u < g.num_nodes(); ++u) {
    EXPECT_DOUBLE_EQ(loaded->EstimateIrsSize(u), index.EstimateIrsSize(u));
  }
  const std::vector<NodeId> seeds = {0, 10, 20, 30};
  EXPECT_DOUBLE_EQ(loaded->EstimateUnionSize(seeds),
                   index.EstimateUnionSize(seeds));
}

TEST_F(OracleIoTest, MissingFileFails) {
  const IndexLoadResult result =
      LoadInfluenceIndexDetailed("/nonexistent/nothing.bin");
  EXPECT_EQ(result.status, IndexLoadStatus::kMissing);
  EXPECT_FALSE(result.usable());
  EXPECT_FALSE(LoadInfluenceIndex("/nonexistent/nothing.bin").has_value());
}

TEST_F(OracleIoTest, GarbageFileFails) {
  WriteFileBytes("this is definitely not an influence index");
  const IndexLoadResult result = LoadInfluenceIndexDetailed(path_);
  EXPECT_EQ(result.status, IndexLoadStatus::kCorrupt);
  EXPECT_FALSE(result.usable());
}

// Truncation in the new framed format is recoverable: the sections cut off
// are reported dropped and the surviving ones are served (degraded), never
// silently-wrong data.
TEST_F(OracleIoTest, TruncatedIndexDegradesNotLies) {
  const InteractionGraph g = GenerateUniformRandomNetwork(30, 300, 800, 3);
  IrsApproxOptions options;
  options.precision = 6;
  const IrsApprox index = IrsApprox::Compute(g, 200, options);
  ASSERT_TRUE(SaveInfluenceIndex(index, path_));

  std::string contents = ReadFileBytes();
  contents.resize(contents.size() / 2);
  WriteFileBytes(contents);

  const IndexLoadResult result = LoadInfluenceIndexDetailed(path_);
  EXPECT_EQ(result.status, IndexLoadStatus::kDegraded);
  ASSERT_TRUE(result.usable());
  EXPECT_GT(result.sections_dropped, 0u);
  // Nodes whose section was cut off report an empty IRS, not garbage.
  for (NodeId u = 0; u < g.num_nodes(); ++u) {
    const double estimate = result.index->EstimateIrsSize(u);
    EXPECT_TRUE(estimate == 0.0 || estimate == index.EstimateIrsSize(u));
  }
}

// A bit flip inside one section drops only that section: every node outside
// it keeps a bit-identical sketch.
TEST_F(OracleIoTest, CorruptSectionDropsOnlyItself) {
  const InteractionGraph g = GenerateUniformRandomNetwork(600, 4000, 9000, 11);
  IrsApproxOptions options;
  options.precision = 6;
  const IrsApprox index = IrsApprox::Compute(g, 2000, options);
  ASSERT_TRUE(SaveInfluenceIndex(index, path_));

  std::string contents = ReadFileBytes();
  contents[contents.size() * 3 / 4] ^= 0x40;  // lands in a later chunk
  WriteFileBytes(contents);

  const IndexLoadResult result = LoadInfluenceIndexDetailed(path_);
  EXPECT_EQ(result.status, IndexLoadStatus::kDegraded);
  ASSERT_TRUE(result.usable());
  EXPECT_GE(result.sections_total, 3u);
  EXPECT_GT(result.sections_dropped, 0u);
  EXPECT_LT(result.sections_dropped, result.sections_total);
  // The first chunk (nodes 0..255) precedes the flipped byte and must be
  // intact.
  for (NodeId u = 0; u < 256; ++u) {
    EXPECT_DOUBLE_EQ(result.index->EstimateIrsSize(u),
                     index.EstimateIrsSize(u));
  }
}

// A failed save must leave the previous index untouched (atomicity).
TEST_F(OracleIoTest, FailedSaveLeavesOldIndexIntact) {
  const InteractionGraph g = GenerateUniformRandomNetwork(50, 400, 900, 5);
  IrsApproxOptions options;
  options.precision = 6;
  const IrsApprox index = IrsApprox::Compute(g, 300, options);
  ASSERT_TRUE(SaveInfluenceIndex(index, path_));
  const std::string before = ReadFileBytes();

  ASSERT_TRUE(failpoint::Set("safe_io.commit", "error"));
  const IrsApprox other = IrsApprox::Compute(g, 500, options);
  EXPECT_FALSE(SaveInfluenceIndex(other, path_));
  failpoint::ClearAll();

  EXPECT_EQ(ReadFileBytes(), before);
  const auto loaded = LoadInfluenceIndex(path_);
  ASSERT_TRUE(loaded.has_value());
  EXPECT_EQ(loaded->window(), 300);
}

// The oracle_io.write.short failpoint produces CRC-valid but unparsable
// sections — the "torn section" flavor of damage. Load degrades instead of
// crashing or fabricating sketches.
TEST_F(OracleIoTest, TornSectionsDegradeGracefully) {
  const InteractionGraph g = GenerateUniformRandomNetwork(40, 300, 800, 7);
  IrsApproxOptions options;
  options.precision = 6;
  const IrsApprox index = IrsApprox::Compute(g, 200, options);
  ASSERT_TRUE(failpoint::Set("oracle_io.write.short", "short_write(12)"));
  ASSERT_TRUE(SaveInfluenceIndex(index, path_));
  failpoint::ClearAll();

  const IndexLoadResult result = LoadInfluenceIndexDetailed(path_);
  EXPECT_EQ(result.status, IndexLoadStatus::kDegraded);
  ASSERT_TRUE(result.usable());
  EXPECT_EQ(result.sections_dropped, result.sections_total);
  for (NodeId u = 0; u < g.num_nodes(); ++u) {
    EXPECT_DOUBLE_EQ(result.index->EstimateIrsSize(u), 0.0);
  }
}

// Files written by the pre-safe_io in-place format are still readable.
TEST_F(OracleIoTest, LegacyFormatStillLoads) {
  VersionedHll sketch(6, 3);
  sketch.Add(42, 10);
  sketch.Add(7, 20);

  std::string legacy = "IPINIDX1";
  const auto append = [&legacy](const void* p, size_t n) {
    legacy.append(reinterpret_cast<const char*>(p), n);
  };
  const int64_t window = 123;
  const uint8_t precision = 6;
  const uint64_t salt = 3;
  const uint64_t num_nodes = 3;
  append(&window, sizeof(window));
  append(&precision, sizeof(precision));
  append(&salt, sizeof(salt));
  append(&num_nodes, sizeof(num_nodes));
  const uint8_t absent = 0, present = 1;
  append(&absent, 1);
  append(&present, 1);
  sketch.Serialize(&legacy);
  append(&absent, 1);
  WriteFileBytes(legacy);

  const IndexLoadResult result = LoadInfluenceIndexDetailed(path_);
  EXPECT_EQ(result.status, IndexLoadStatus::kOk);
  ASSERT_TRUE(result.usable());
  EXPECT_EQ(result.index->num_nodes(), 3u);
  EXPECT_EQ(result.index->window(), 123);
  ASSERT_TRUE(result.index->Sketch(1).valid());
  EXPECT_DOUBLE_EQ(result.index->EstimateIrsSize(1), sketch.Estimate());
}

// A header frame with valid checksums that claims 2^61 nodes and is
// followed by nothing. Sizing the node table from that count throws
// std::length_error and aborts the process; the load must say kCorrupt.
TEST_F(OracleIoTest, HostileNodeCountIsCorruptNotACrash) {
  std::string header;
  const auto put = [&header](auto value) {
    header.append(reinterpret_cast<const char*>(&value), sizeof(value));
  };
  put(int64_t{100});           // window
  put(uint8_t{9});             // precision
  put(uint64_t{0});            // salt
  put(uint64_t{1} << 61);      // num_nodes
  put(uint32_t{256});          // chunk_size
  {
    SafeFileWriter writer(path_, 0x58444949, 2);  // "IIDX", version 2
    ASSERT_TRUE(writer.AppendFrame(header));
    ASSERT_TRUE(writer.Commit());
  }
  ASSERT_EQ(ReadFileBytes().size(), 61u);
  const IndexLoadResult result = LoadInfluenceIndexDetailed(path_);
  EXPECT_EQ(result.status, IndexLoadStatus::kCorrupt);
  EXPECT_FALSE(result.usable());
}

TEST_F(OracleIoTest, EmptyIndexRoundtrips) {
  IrsApproxOptions options;
  options.precision = 6;
  const IrsApprox index(5, 10, options);  // no interactions processed
  ASSERT_TRUE(SaveInfluenceIndex(index, path_));
  const auto loaded = LoadInfluenceIndex(path_);
  ASSERT_TRUE(loaded.has_value());
  EXPECT_EQ(loaded->num_nodes(), 5u);
  EXPECT_EQ(loaded->NumAllocatedSketches(), 0u);
}

}  // namespace
}  // namespace ipin
