#include "ipin/common/safe_io.h"

#include <cstdio>
#include <fstream>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "ipin/common/crc32c_internal.h"
#include "ipin/common/failpoint.h"
#include "ipin/common/logging.h"
#include "ipin/common/random.h"

namespace ipin {
namespace {

constexpr uint32_t kType = 0x54534554;  // "TEST"
constexpr uint32_t kOtherType = 0x52485430;

class SafeIoTest : public ::testing::Test {
 protected:
  void SetUp() override {
    path_ = ::testing::TempDir() + "/ipin_safeio_" +
            std::to_string(reinterpret_cast<uintptr_t>(this)) + ".bin";
    SetLogLevel(LogLevel::kError);
  }
  void TearDown() override {
    failpoint::ClearAll();
    std::remove(path_.c_str());
  }

  void WriteFrames(const std::vector<std::string>& payloads,
                   uint32_t version = 1) {
    SafeFileWriter writer(path_, kType, version);
    for (const auto& p : payloads) ASSERT_TRUE(writer.AppendFrame(p));
    ASSERT_TRUE(writer.Commit());
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

TEST(Crc32cTest, KnownVectors) {
  // RFC 3720 test vector: crc32c of 32 zero bytes.
  const std::string zeros(32, '\0');
  EXPECT_EQ(Crc32c(zeros), 0x8a9136aau);
  // Standard check value: crc32c("123456789").
  EXPECT_EQ(Crc32c("123456789"), 0xe3069283u);
  EXPECT_EQ(Crc32c(""), 0u);
}

TEST(Crc32cTest, SeedChainsIncrementally) {
  const std::string data = "the quick brown fox";
  const uint32_t whole = Crc32c(data);
  const uint32_t chained =
      Crc32c(data.substr(7), Crc32c(data.substr(0, 7)));
  EXPECT_EQ(whole, chained);
}

// The CRC32C instruction and the portable table must agree on every length,
// start alignment and seed: files written on one machine are read on
// another.
TEST(Crc32cTest, HardwareMatchesPortable) {
  const internal::Crc32cFn hardware = internal::Crc32cHardware();
  if (hardware == nullptr) GTEST_SKIP() << "no CRC32C instruction here";
  Rng rng(7);
  std::string buffer(4096 + 8, '\0');
  for (char& c : buffer) c = static_cast<char>(rng.NextBounded(256));
  for (int trial = 0; trial < 2000; ++trial) {
    const size_t align = static_cast<size_t>(trial % 8);
    const size_t size = rng.NextBounded(4097);
    const auto seed = static_cast<uint32_t>(rng.NextUint64());
    const char* data = buffer.data() + align;
    ASSERT_EQ(hardware(data, size, seed),
              internal::Crc32cPortable(data, size, seed))
        << "size " << size << " align " << align << " seed " << seed;
    // Chaining at a split point gives the one-shot checksum either way.
    const size_t cut = rng.NextBounded(size + 1);
    ASSERT_EQ(hardware(data + cut, size - cut, hardware(data, cut, seed)),
              internal::Crc32cPortable(data, size, seed))
        << "size " << size << " cut " << cut;
  }
  EXPECT_EQ(Crc32c(buffer), internal::Crc32cPortable(buffer.data(),
                                                     buffer.size(), 0));
}

TEST_F(SafeIoTest, ReadFileBytesReadsWholeFile) {
  std::string contents(300000, '\0');
  for (size_t i = 0; i < contents.size(); ++i) {
    contents[i] = static_cast<char>(i * 131 % 251);
  }
  WriteFileBytes(contents);
  EXPECT_EQ(ipin::ReadFileBytes(path_), contents);
  WriteFileBytes("");
  EXPECT_EQ(ipin::ReadFileBytes(path_), "");
  EXPECT_FALSE(ipin::ReadFileBytes(path_ + ".absent").has_value());
}

TEST_F(SafeIoTest, RoundtripMultipleFrames) {
  WriteFrames({"alpha", std::string(10000, 'x'), "", "omega"}, 7);
  SafeFileReader reader;
  ASSERT_EQ(reader.Open(path_, kType), SafeOpenStatus::kOk);
  EXPECT_EQ(reader.version(), 7u);
  std::string_view payload;
  ASSERT_EQ(reader.ReadFrame(&payload), FrameStatus::kOk);
  EXPECT_EQ(payload, "alpha");
  ASSERT_EQ(reader.ReadFrame(&payload), FrameStatus::kOk);
  EXPECT_EQ(payload, std::string(10000, 'x'));
  ASSERT_EQ(reader.ReadFrame(&payload), FrameStatus::kOk);
  EXPECT_EQ(payload, "");
  ASSERT_EQ(reader.ReadFrame(&payload), FrameStatus::kOk);
  EXPECT_EQ(payload, "omega");
  EXPECT_EQ(reader.ReadFrame(&payload), FrameStatus::kEndOfFile);
}

TEST_F(SafeIoTest, MissingFile) {
  SafeFileReader reader;
  EXPECT_EQ(reader.Open(path_ + ".nope", kType), SafeOpenStatus::kMissing);
}

TEST_F(SafeIoTest, WrongFileTypeRejected) {
  WriteFrames({"data"});
  SafeFileReader reader;
  EXPECT_EQ(reader.Open(path_, kOtherType), SafeOpenStatus::kCorrupt);
}

TEST_F(SafeIoTest, TruncatedHeaderDetected) {
  WriteFrames({"data"});
  WriteFileBytes(ReadFileBytes().substr(0, 10));
  SafeFileReader reader;
  EXPECT_EQ(reader.Open(path_, kType), SafeOpenStatus::kTruncated);
}

TEST_F(SafeIoTest, CorruptHeaderDetected) {
  WriteFrames({"data"});
  std::string bytes = ReadFileBytes();
  bytes[9] ^= 0xff;  // inside file_type
  WriteFileBytes(bytes);
  SafeFileReader reader;
  EXPECT_EQ(reader.Open(path_, kType), SafeOpenStatus::kCorrupt);
}

// Payload corruption is contained: the damaged frame reports kCorrupt and
// the reader continues with the following frames.
TEST_F(SafeIoTest, CorruptPayloadSkippedReaderContinues) {
  WriteFrames({"first", "second", "third"});
  std::string bytes = ReadFileBytes();
  // Header is 20 bytes, each frame header 12; flip a byte of "second"'s
  // payload: 20 + (12 + 5) + 12 = 49.
  bytes[49] ^= 0x01;
  WriteFileBytes(bytes);

  SafeFileReader reader;
  ASSERT_EQ(reader.Open(path_, kType), SafeOpenStatus::kOk);
  std::string_view payload;
  ASSERT_EQ(reader.ReadFrame(&payload), FrameStatus::kOk);
  EXPECT_EQ(payload, "first");
  EXPECT_EQ(reader.ReadFrame(&payload), FrameStatus::kCorrupt);
  EXPECT_TRUE(reader.CanContinue());
  ASSERT_EQ(reader.ReadFrame(&payload), FrameStatus::kOk);
  EXPECT_EQ(payload, "third");
  EXPECT_EQ(reader.ReadFrame(&payload), FrameStatus::kEndOfFile);
}

// A corrupted frame *header* cannot be trusted for resync: the reader stops.
TEST_F(SafeIoTest, CorruptFrameHeaderEndsFile) {
  WriteFrames({"first", "second", "third"});
  std::string bytes = ReadFileBytes();
  bytes[20 + 17 + 1] ^= 0xff;  // length field of the second frame header
  WriteFileBytes(bytes);

  SafeFileReader reader;
  ASSERT_EQ(reader.Open(path_, kType), SafeOpenStatus::kOk);
  std::string_view payload;
  ASSERT_EQ(reader.ReadFrame(&payload), FrameStatus::kOk);
  EXPECT_EQ(reader.ReadFrame(&payload), FrameStatus::kCorrupt);
  EXPECT_FALSE(reader.CanContinue());
  EXPECT_EQ(reader.ReadFrame(&payload), FrameStatus::kEndOfFile);
}

TEST_F(SafeIoTest, TruncationMidFrameDetected) {
  WriteFrames({"first", "second"});
  const std::string bytes = ReadFileBytes();
  WriteFileBytes(bytes.substr(0, bytes.size() - 3));

  SafeFileReader reader;
  ASSERT_EQ(reader.Open(path_, kType), SafeOpenStatus::kOk);
  std::string_view payload;
  ASSERT_EQ(reader.ReadFrame(&payload), FrameStatus::kOk);
  EXPECT_EQ(reader.ReadFrame(&payload), FrameStatus::kTruncated);
  EXPECT_FALSE(reader.CanContinue());
}

// Abandoning a writer (destruction without Commit) must leave the previous
// destination untouched and no temp litter.
TEST_F(SafeIoTest, AbandonedWriterLeavesDestinationIntact) {
  WriteFrames({"original"});
  const std::string before = ReadFileBytes();
  {
    SafeFileWriter writer(path_, kType, 1);
    ASSERT_TRUE(writer.AppendFrame("replacement"));
    // no Commit
  }
  EXPECT_EQ(ReadFileBytes(), before);
}

TEST_F(SafeIoTest, FailedCommitLeavesDestinationIntact) {
  WriteFrames({"original"});
  const std::string before = ReadFileBytes();
  ASSERT_TRUE(failpoint::Set("safe_io.rename", "error"));
  SafeFileWriter writer(path_, kType, 1);
  ASSERT_TRUE(writer.AppendFrame("replacement"));
  EXPECT_FALSE(writer.Commit());
  failpoint::ClearAll();
  EXPECT_EQ(ReadFileBytes(), before);
}

// The safe_io.write.short failpoint simulates a torn write: the file ends
// mid-frame and the reader reports truncation instead of garbage.
TEST_F(SafeIoTest, ShortWriteFailpointYieldsTruncatedFile) {
  {
    SafeFileWriter writer(path_, kType, 1);  // header written whole
    ASSERT_TRUE(failpoint::Set("safe_io.write.short", "short_write(6)"));
    ASSERT_TRUE(writer.AppendFrame("this payload will be cut"));
    failpoint::ClearAll();
    ASSERT_TRUE(writer.Commit());
  }

  SafeFileReader reader;
  ASSERT_EQ(reader.Open(path_, kType), SafeOpenStatus::kOk);
  std::string_view payload;
  EXPECT_EQ(reader.ReadFrame(&payload), FrameStatus::kTruncated);
}

TEST_F(SafeIoTest, WriteErrorFailpointFailsAppend) {
  ASSERT_TRUE(failpoint::Set("safe_io.write", "error"));
  SafeFileWriter writer(path_, kType, 1);
  EXPECT_FALSE(writer.AppendFrame("doomed"));
  EXPECT_FALSE(writer.ok());
  EXPECT_FALSE(writer.Commit());
}

TEST_F(SafeIoTest, LooksLikeSafeFileDetectsFormat) {
  WriteFrames({"x"});
  EXPECT_TRUE(LooksLikeSafeFile(path_));
  WriteFileBytes("IPINIDX1 something legacy");
  EXPECT_FALSE(LooksLikeSafeFile(path_));
  EXPECT_FALSE(LooksLikeSafeFile(path_ + ".absent"));
}

TEST_F(SafeIoTest, EmptyFileIsTruncated) {
  WriteFileBytes("");
  SafeFileReader reader;
  EXPECT_EQ(reader.Open(path_, kType), SafeOpenStatus::kTruncated);
}

}  // namespace
}  // namespace ipin
