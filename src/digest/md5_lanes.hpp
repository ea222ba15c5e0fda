// Lane-parallel MD5: many equal-length messages hashed together.
//
// One MD5 stream is a serial chain of 64 dependent steps per block, so a
// single page cannot be hashed much faster than Md5 does. Distinct pages
// are independent streams, though: this kernel runs kMd5Lanes of them in
// the 32-bit lanes of one vector, each lane executing RFC 1321 exactly as
// Md5 does on its own message. It is portable GCC/Clang `vector_size`
// code: the compiler lowers the 8-lane vector to whatever the target's
// baseline SIMD offers (two SSE2 registers on plain x86-64), with no
// runtime dispatch.
//
// The vector type never appears in this interface: callers pass plain
// bytes and receive Digest128 values, bit-identical to Md5Digest of each
// message (tests/digest_test.cpp pins that). The streaming Md5 class stays
// the general-purpose path; this one serves batches of page images.
#pragma once

#include <cstddef>
#include <span>

#include "digest/digest.hpp"

namespace vecycle {

/// Messages one pass of the kernel hashes together.
inline constexpr std::size_t kMd5Lanes = 8;

/// MD5 of `out.size()` messages of `length` bytes each, laid back to back
/// in `messages` (message i is bytes [i * length, (i + 1) * length)), so
/// messages.size() must equal length * out.size(). Any length, including
/// 0, and any count are accepted; out[i] == Md5Digest(message i) bit for
/// bit. Messages are hashed kMd5Lanes at a time; a final group that does
/// not fill the lanes repeats its last message in the spare lanes.
void Md5Lanes(std::span<const std::byte> messages, std::size_t length,
              std::span<Digest128> out);

}  // namespace vecycle
