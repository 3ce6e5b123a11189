#ifndef IPIN_COMMON_CRC32C_INTERNAL_H_
#define IPIN_COMMON_CRC32C_INTERNAL_H_

#include <cstddef>
#include <cstdint>

// The two CRC-32C implementations behind ipin::Crc32c (common/safe_io.h),
// exposed so tests can compare them directly. Production code calls
// Crc32c, which picks the hardware one when the CPU has it.

namespace ipin::internal {

using Crc32cFn = uint32_t (*)(const void* data, size_t size, uint32_t seed);

/// Bytewise table implementation; runs everywhere.
uint32_t Crc32cPortable(const void* data, size_t size, uint32_t seed);

/// The CRC32C-instruction implementation, or nullptr when this CPU (or
/// build target) has none.
Crc32cFn Crc32cHardware();

}  // namespace ipin::internal

#endif  // IPIN_COMMON_CRC32C_INTERNAL_H_
