#include "ipin/common/safe_io.h"

#include <fcntl.h>
#include <sys/stat.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cstdio>
#include <cstring>
#include <fstream>

#include "ipin/common/crc32c_internal.h"
#include "ipin/common/failpoint.h"
#include "ipin/common/logging.h"

#if defined(__x86_64__)
#define IPIN_CRC32C_X86 1
#include <nmmintrin.h>
#elif defined(__aarch64__) && defined(__ARM_FEATURE_CRC32)
#define IPIN_CRC32C_ARM 1
#include <arm_acle.h>
#endif

namespace ipin {
namespace {

constexpr char kMagic[8] = {'I', 'P', 'I', 'N', 'S', 'A', 'F', '1'};
constexpr size_t kHeaderSize = sizeof(kMagic) + 3 * sizeof(uint32_t);
constexpr size_t kFrameHeaderSize = 3 * sizeof(uint32_t);

// CRC-32C (Castagnoli, reflected polynomial 0x82F63B78), byte-at-a-time
// table: the portable fallback for CPUs without a CRC32C instruction.
const uint32_t* Crc32cTable() {
  static const uint32_t* table = [] {
    auto* t = new uint32_t[256];
    for (uint32_t i = 0; i < 256; ++i) {
      uint32_t crc = i;
      for (int bit = 0; bit < 8; ++bit) {
        crc = (crc >> 1) ^ ((crc & 1) ? 0x82F63B78u : 0u);
      }
      t[i] = crc;
    }
    return t;
  }();
  return table;
}

template <typename T>
void AppendRaw(std::string* out, T value) {
  out->append(reinterpret_cast<const char*>(&value), sizeof(T));
}

// The hardware loops consume one byte at a time up to 8-byte alignment, then
// one 64-bit word per instruction, then the tail bytes. Every index byte goes
// through here twice per build-and-open, which is what makes the
// instruction worth ~15x over the table.
#ifdef IPIN_CRC32C_X86
__attribute__((target("sse4.2"))) uint32_t Crc32cSse42(const void* data,
                                                       size_t size,
                                                       uint32_t seed) {
  const auto* bytes = static_cast<const unsigned char*>(data);
  uint32_t crc = ~seed;
  for (; size > 0 && (reinterpret_cast<uintptr_t>(bytes) & 7) != 0; --size) {
    crc = _mm_crc32_u8(crc, *bytes++);
  }
  uint64_t crc64 = crc;
  for (; size >= 8; size -= 8, bytes += 8) {
    uint64_t word;
    std::memcpy(&word, bytes, sizeof(word));
    crc64 = _mm_crc32_u64(crc64, word);
  }
  crc = static_cast<uint32_t>(crc64);
  for (; size > 0; --size) crc = _mm_crc32_u8(crc, *bytes++);
  return ~crc;
}
#endif

#ifdef IPIN_CRC32C_ARM
uint32_t Crc32cArm(const void* data, size_t size, uint32_t seed) {
  const auto* bytes = static_cast<const unsigned char*>(data);
  uint32_t crc = ~seed;
  for (; size > 0 && (reinterpret_cast<uintptr_t>(bytes) & 7) != 0; --size) {
    crc = __crc32cb(crc, *bytes++);
  }
  for (; size >= 8; size -= 8, bytes += 8) {
    uint64_t word;
    std::memcpy(&word, bytes, sizeof(word));
    crc = __crc32cd(crc, word);
  }
  for (; size > 0; --size) crc = __crc32cb(crc, *bytes++);
  return ~crc;
}
#endif

template <typename T>
T ReadRawAt(const std::string& buffer, size_t offset) {
  T value;
  std::memcpy(&value, buffer.data() + offset, sizeof(T));
  return value;
}

std::string DirectoryOf(const std::string& path) {
  const size_t slash = path.find_last_of('/');
  if (slash == std::string::npos) return ".";
  if (slash == 0) return "/";
  return path.substr(0, slash);
}

}  // namespace

namespace internal {

uint32_t Crc32cPortable(const void* data, size_t size, uint32_t seed) {
  const uint32_t* table = Crc32cTable();
  const auto* bytes = static_cast<const unsigned char*>(data);
  uint32_t crc = ~seed;
  for (size_t i = 0; i < size; ++i) {
    crc = (crc >> 8) ^ table[(crc ^ bytes[i]) & 0xff];
  }
  return ~crc;
}

Crc32cFn Crc32cHardware() {
#if defined(IPIN_CRC32C_X86)
  return __builtin_cpu_supports("sse4.2") ? &Crc32cSse42 : nullptr;
#elif defined(IPIN_CRC32C_ARM)
  return &Crc32cArm;
#else
  return nullptr;
#endif
}

}  // namespace internal

uint32_t Crc32c(const void* data, size_t size, uint32_t seed) {
  static const internal::Crc32cFn crc32c = [] {
    const internal::Crc32cFn hardware = internal::Crc32cHardware();
    return hardware != nullptr ? hardware : &internal::Crc32cPortable;
  }();
  return crc32c(data, size, seed);
}

std::optional<std::string> ReadFileBytes(const std::string& path) {
  const int fd = ::open(path.c_str(), O_RDONLY | O_CLOEXEC);
  if (fd < 0) return std::nullopt;
  // Regular files are read straight into a buffer of their exact size; the
  // loop keeps reading past st_size, so pipes and growing files work too.
  struct stat st;
  std::string bytes;
  if (::fstat(fd, &st) == 0 && S_ISREG(st.st_mode)) {
    bytes.resize(static_cast<size_t>(st.st_size));
  }
  size_t filled = 0;
  char tail[1 << 16];
  for (;;) {
    const bool in_buffer = filled < bytes.size();
    char* dst = in_buffer ? bytes.data() + filled : tail;
    const size_t want = in_buffer ? bytes.size() - filled : sizeof(tail);
    const ssize_t got = ::read(fd, dst, want);
    if (got < 0) {
      if (errno == EINTR) continue;
      ::close(fd);
      return std::nullopt;
    }
    if (got == 0) break;
    if (!in_buffer) bytes.append(tail, static_cast<size_t>(got));
    filled += static_cast<size_t>(got);
  }
  ::close(fd);
  bytes.resize(filled);  // the file shrank while being read
  return bytes;
}

SafeFileWriter::SafeFileWriter(std::string path, uint32_t file_type,
                               uint32_t version)
    : path_(std::move(path)),
      tmp_path_(path_ + ".tmp." + std::to_string(::getpid())) {
  if (IPIN_FAILPOINT("safe_io.open").fail) {
    LogError("safe_io: injected open failure for " + path_);
    return;
  }
  fd_ = ::open(tmp_path_.c_str(), O_WRONLY | O_CREAT | O_TRUNC, 0644);
  if (fd_ < 0) {
    LogError("safe_io: cannot create temp file " + tmp_path_ + ": " +
             std::strerror(errno));
    return;
  }
  ok_ = true;

  std::string header;
  header.append(kMagic, sizeof(kMagic));
  AppendRaw<uint32_t>(&header, file_type);
  AppendRaw<uint32_t>(&header, version);
  AppendRaw<uint32_t>(&header, Crc32c(header));
  ok_ = WriteAll(header);
}

SafeFileWriter::~SafeFileWriter() {
  if (!committed_) Abandon();
}

void SafeFileWriter::Abandon() {
  if (fd_ >= 0) {
    ::close(fd_);
    fd_ = -1;
    ::unlink(tmp_path_.c_str());
  }
  ok_ = false;
}

bool SafeFileWriter::WriteAll(std::string_view head, std::string_view body) {
  if (IPIN_FAILPOINT("safe_io.write").fail) {
    LogError("safe_io: injected write failure for " + path_);
    return false;
  }
  // Torn-write injection: silently persist only a prefix of this write and
  // report success, so the committed file ends up truncated mid-frame —
  // exactly what the reader's kTruncated detection must catch.
  size_t limit = IPIN_FAILPOINT("safe_io.write.short").short_write;
  for (std::string_view part : {head, body}) {
    part = part.substr(0, limit);
    limit -= part.size();
    while (!part.empty()) {
      const ssize_t written = ::write(fd_, part.data(), part.size());
      if (written < 0) {
        if (errno == EINTR) continue;
        LogError("safe_io: write to " + tmp_path_ + " failed: " +
                 std::strerror(errno));
        return false;
      }
      part.remove_prefix(static_cast<size_t>(written));
    }
  }
  return true;
}

bool SafeFileWriter::AppendFrame(std::string_view payload) {
  if (!ok_) return false;
  std::string header;
  AppendRaw<uint32_t>(&header, static_cast<uint32_t>(payload.size()));
  AppendRaw<uint32_t>(&header, Crc32c(payload));
  AppendRaw<uint32_t>(&header, Crc32c(header));  // guards the length itself
  ok_ = WriteAll(header, payload);
  return ok_;
}

bool SafeFileWriter::Commit() {
  if (!ok_) {
    Abandon();
    return false;
  }
  // A crash_after_n failpoint here simulates the process dying after the
  // data was written but before it became durable/visible.
  if (IPIN_FAILPOINT("safe_io.commit").fail) {
    LogError("safe_io: injected commit failure for " + path_);
    Abandon();
    return false;
  }
  if (IPIN_FAILPOINT("safe_io.fsync").fail || ::fsync(fd_) != 0) {
    LogError("safe_io: fsync of " + tmp_path_ + " failed");
    Abandon();
    return false;
  }
  ::close(fd_);
  fd_ = -1;
  if (IPIN_FAILPOINT("safe_io.rename").fail ||
      ::rename(tmp_path_.c_str(), path_.c_str()) != 0) {
    LogError("safe_io: rename to " + path_ + " failed");
    ::unlink(tmp_path_.c_str());
    ok_ = false;
    return false;
  }
  committed_ = true;
  // Make the rename itself durable. Failure here is logged but not fatal:
  // the data file is complete and correctly named.
  const int dir_fd = ::open(DirectoryOf(path_).c_str(), O_RDONLY);
  if (dir_fd >= 0) {
    if (::fsync(dir_fd) != 0) {
      LogWarning("safe_io: directory fsync failed for " + path_);
    }
    ::close(dir_fd);
  }
  return true;
}

SafeOpenStatus SafeFileReader::Open(const std::string& path,
                                    uint32_t expected_type) {
  buffer_.clear();
  offset_ = 0;
  exhausted_ = false;
  if (IPIN_FAILPOINT("safe_io.read").fail) {
    LogError("safe_io: injected read failure for " + path);
    exhausted_ = true;
    return SafeOpenStatus::kMissing;
  }
  std::optional<std::string> contents = ReadFileBytes(path);
  if (!contents.has_value()) {
    exhausted_ = true;
    return SafeOpenStatus::kMissing;
  }
  buffer_ = std::move(*contents);
  if (buffer_.size() < sizeof(kMagic)) {
    exhausted_ = true;
    return SafeOpenStatus::kTruncated;
  }
  if (std::memcmp(buffer_.data(), kMagic, sizeof(kMagic)) != 0) {
    exhausted_ = true;
    return SafeOpenStatus::kCorrupt;
  }
  if (buffer_.size() < kHeaderSize) {
    exhausted_ = true;
    return SafeOpenStatus::kTruncated;
  }
  const auto file_type = ReadRawAt<uint32_t>(buffer_, sizeof(kMagic));
  version_ = ReadRawAt<uint32_t>(buffer_, sizeof(kMagic) + 4);
  const auto header_crc = ReadRawAt<uint32_t>(buffer_, sizeof(kMagic) + 8);
  if (Crc32c(buffer_.data(), kHeaderSize - sizeof(uint32_t)) != header_crc ||
      file_type != expected_type) {
    exhausted_ = true;
    return SafeOpenStatus::kCorrupt;
  }
  offset_ = kHeaderSize;
  return SafeOpenStatus::kOk;
}

FrameStatus SafeFileReader::ReadFrame(std::string_view* payload) {
  *payload = {};
  if (exhausted_) return FrameStatus::kEndOfFile;
  if (offset_ == buffer_.size()) {
    exhausted_ = true;
    return FrameStatus::kEndOfFile;
  }
  if (buffer_.size() - offset_ < kFrameHeaderSize) {
    exhausted_ = true;
    return FrameStatus::kTruncated;
  }
  const auto payload_len = ReadRawAt<uint32_t>(buffer_, offset_);
  const auto payload_crc = ReadRawAt<uint32_t>(buffer_, offset_ + 4);
  const auto header_crc = ReadRawAt<uint32_t>(buffer_, offset_ + 8);
  if (Crc32c(buffer_.data() + offset_, 2 * sizeof(uint32_t)) != header_crc) {
    // The length field cannot be trusted, so later frames are unreachable.
    exhausted_ = true;
    return FrameStatus::kCorrupt;
  }
  if (buffer_.size() - offset_ - kFrameHeaderSize < payload_len) {
    exhausted_ = true;
    return FrameStatus::kTruncated;
  }
  const char* data = buffer_.data() + offset_ + kFrameHeaderSize;
  offset_ += kFrameHeaderSize + payload_len;
  if (Crc32c(static_cast<const void*>(data), payload_len) != payload_crc) {
    return FrameStatus::kCorrupt;  // this frame only; the next is intact
  }
  *payload = std::string_view(data, payload_len);
  return FrameStatus::kOk;
}

bool LooksLikeSafeFile(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) return false;
  char magic[sizeof(kMagic)];
  in.read(magic, sizeof(magic));
  return in.gcount() == sizeof(magic) &&
         std::memcmp(magic, kMagic, sizeof(kMagic)) == 0;
}

}  // namespace ipin
