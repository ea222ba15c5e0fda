#include "digest/md5_lanes.hpp"

#include <algorithm>
#include <cstdint>
#include <cstring>

#include "common/check.hpp"

namespace vecycle {
namespace {

// One 32-bit lane per message. The type stays inside this file: passing
// it across a translation unit would tie the ABI to the target's vector
// registers (GCC's -Wpsabi), so every helper below is forced inline and
// takes vectors by reference.
using Lanes = std::uint32_t __attribute__((vector_size(kMd5Lanes * 4)));

#define VECYCLE_LANES_INLINE [[gnu::always_inline]] inline

// RFC 1321 §3.4's steps, lane-wise, with the reduced round functions the
// scalar Md5 uses (src/digest/md5.cpp):
//   F(b, c, d) = d ^ (b & (c ^ d))    G(b, c, d) = c ^ (d & (b ^ c))
//   H(b, c, d) = b ^ c ^ d            I(b, c, d) = c ^ (b | ~d)
VECYCLE_LANES_INLINE void Finish(Lanes& a, const Lanes& b, const Lanes& sum,
                                 std::uint32_t s) {
  a = b + ((sum << s) | (sum >> (32 - s)));
}

VECYCLE_LANES_INLINE void StepF(Lanes& a, const Lanes& b, const Lanes& c,
                                const Lanes& d, const Lanes& x,
                                std::uint32_t s, std::uint32_t t) {
  Finish(a, b, a + (d ^ (b & (c ^ d))) + x + t, s);
}

VECYCLE_LANES_INLINE void StepG(Lanes& a, const Lanes& b, const Lanes& c,
                                const Lanes& d, const Lanes& x,
                                std::uint32_t s, std::uint32_t t) {
  Finish(a, b, a + (c ^ (d & (b ^ c))) + x + t, s);
}

VECYCLE_LANES_INLINE void StepH(Lanes& a, const Lanes& b, const Lanes& c,
                                const Lanes& d, const Lanes& x,
                                std::uint32_t s, std::uint32_t t) {
  Finish(a, b, a + (b ^ c ^ d) + x + t, s);
}

VECYCLE_LANES_INLINE void StepI(Lanes& a, const Lanes& b, const Lanes& c,
                                const Lanes& d, const Lanes& x,
                                std::uint32_t s, std::uint32_t t) {
  Finish(a, b, a + (c ^ (b | ~d)) + x + t, s);
}

/// One 64-byte block of every lane's message: `x[j]` holds message word j
/// of each lane.
VECYCLE_LANES_INLINE void Compress(Lanes (&state)[4], const Lanes (&x)[16]) {
  Lanes a = state[0];
  Lanes b = state[1];
  Lanes c = state[2];
  Lanes d = state[3];

  // Round 1.
  StepF(a, b, c, d, x[0], 7, 0xd76aa478);
  StepF(d, a, b, c, x[1], 12, 0xe8c7b756);
  StepF(c, d, a, b, x[2], 17, 0x242070db);
  StepF(b, c, d, a, x[3], 22, 0xc1bdceee);
  StepF(a, b, c, d, x[4], 7, 0xf57c0faf);
  StepF(d, a, b, c, x[5], 12, 0x4787c62a);
  StepF(c, d, a, b, x[6], 17, 0xa8304613);
  StepF(b, c, d, a, x[7], 22, 0xfd469501);
  StepF(a, b, c, d, x[8], 7, 0x698098d8);
  StepF(d, a, b, c, x[9], 12, 0x8b44f7af);
  StepF(c, d, a, b, x[10], 17, 0xffff5bb1);
  StepF(b, c, d, a, x[11], 22, 0x895cd7be);
  StepF(a, b, c, d, x[12], 7, 0x6b901122);
  StepF(d, a, b, c, x[13], 12, 0xfd987193);
  StepF(c, d, a, b, x[14], 17, 0xa679438e);
  StepF(b, c, d, a, x[15], 22, 0x49b40821);

  // Round 2.
  StepG(a, b, c, d, x[1], 5, 0xf61e2562);
  StepG(d, a, b, c, x[6], 9, 0xc040b340);
  StepG(c, d, a, b, x[11], 14, 0x265e5a51);
  StepG(b, c, d, a, x[0], 20, 0xe9b6c7aa);
  StepG(a, b, c, d, x[5], 5, 0xd62f105d);
  StepG(d, a, b, c, x[10], 9, 0x02441453);
  StepG(c, d, a, b, x[15], 14, 0xd8a1e681);
  StepG(b, c, d, a, x[4], 20, 0xe7d3fbc8);
  StepG(a, b, c, d, x[9], 5, 0x21e1cde6);
  StepG(d, a, b, c, x[14], 9, 0xc33707d6);
  StepG(c, d, a, b, x[3], 14, 0xf4d50d87);
  StepG(b, c, d, a, x[8], 20, 0x455a14ed);
  StepG(a, b, c, d, x[13], 5, 0xa9e3e905);
  StepG(d, a, b, c, x[2], 9, 0xfcefa3f8);
  StepG(c, d, a, b, x[7], 14, 0x676f02d9);
  StepG(b, c, d, a, x[12], 20, 0x8d2a4c8a);

  // Round 3.
  StepH(a, b, c, d, x[5], 4, 0xfffa3942);
  StepH(d, a, b, c, x[8], 11, 0x8771f681);
  StepH(c, d, a, b, x[11], 16, 0x6d9d6122);
  StepH(b, c, d, a, x[14], 23, 0xfde5380c);
  StepH(a, b, c, d, x[1], 4, 0xa4beea44);
  StepH(d, a, b, c, x[4], 11, 0x4bdecfa9);
  StepH(c, d, a, b, x[7], 16, 0xf6bb4b60);
  StepH(b, c, d, a, x[10], 23, 0xbebfbc70);
  StepH(a, b, c, d, x[13], 4, 0x289b7ec6);
  StepH(d, a, b, c, x[0], 11, 0xeaa127fa);
  StepH(c, d, a, b, x[3], 16, 0xd4ef3085);
  StepH(b, c, d, a, x[6], 23, 0x04881d05);
  StepH(a, b, c, d, x[9], 4, 0xd9d4d039);
  StepH(d, a, b, c, x[12], 11, 0xe6db99e5);
  StepH(c, d, a, b, x[15], 16, 0x1fa27cf8);
  StepH(b, c, d, a, x[2], 23, 0xc4ac5665);

  // Round 4.
  StepI(a, b, c, d, x[0], 6, 0xf4292244);
  StepI(d, a, b, c, x[7], 10, 0x432aff97);
  StepI(c, d, a, b, x[14], 15, 0xab9423a7);
  StepI(b, c, d, a, x[5], 21, 0xfc93a039);
  StepI(a, b, c, d, x[12], 6, 0x655b59c3);
  StepI(d, a, b, c, x[3], 10, 0x8f0ccc92);
  StepI(c, d, a, b, x[10], 15, 0xffeff47d);
  StepI(b, c, d, a, x[1], 21, 0x85845dd1);
  StepI(a, b, c, d, x[8], 6, 0x6fa87e4f);
  StepI(d, a, b, c, x[15], 10, 0xfe2ce6e0);
  StepI(c, d, a, b, x[6], 15, 0xa3014314);
  StepI(b, c, d, a, x[13], 21, 0x4e0811a1);
  StepI(a, b, c, d, x[4], 6, 0xf7537e82);
  StepI(d, a, b, c, x[11], 10, 0xbd3af235);
  StepI(c, d, a, b, x[2], 15, 0x2ad7d2bb);
  StepI(b, c, d, a, x[9], 21, 0xeb86d391);

  state[0] += a;
  state[1] += b;
  state[2] += c;
  state[3] += d;
}

VECYCLE_LANES_INLINE std::uint32_t LoadLe32(const std::uint8_t* p) {
  return static_cast<std::uint32_t>(p[0]) |
         (static_cast<std::uint32_t>(p[1]) << 8) |
         (static_cast<std::uint32_t>(p[2]) << 16) |
         (static_cast<std::uint32_t>(p[3]) << 24);
}

/// Transposes the 64-byte block at `offset` of every lane's message into
/// message words: x[j][l] = word j of lane l.
VECYCLE_LANES_INLINE void LoadBlock(
    const std::uint8_t* const (&lane)[kMd5Lanes], std::size_t offset,
    Lanes (&x)[16]) {
  for (std::size_t j = 0; j < 16; ++j) {
    for (std::size_t l = 0; l < kMd5Lanes; ++l) {
      x[j][l] = LoadLe32(lane[l] + offset + 4 * j);
    }
  }
}

/// The digest of one lane, packed as Md5::Finalize packs it: the RFC's
/// little-endian output bytes read big-endian into the two words.
Digest128 Pack(std::uint32_t a, std::uint32_t b, std::uint32_t c,
               std::uint32_t d) {
  return Digest128::FromWords(
      (static_cast<std::uint64_t>(__builtin_bswap32(a)) << 32) |
          __builtin_bswap32(b),
      (static_cast<std::uint64_t>(__builtin_bswap32(c)) << 32) |
          __builtin_bswap32(d));
}

#undef VECYCLE_LANES_INLINE

}  // namespace

void Md5Lanes(std::span<const std::byte> messages, std::size_t length,
              std::span<Digest128> out) {
  VEC_CHECK_MSG(messages.size() == length * out.size(),
                "Md5Lanes: messages is not out.size() messages of length");
  if (out.empty()) return;
  const auto* base = reinterpret_cast<const std::uint8_t*>(messages.data());
  const std::size_t full_blocks = length / 64;
  const std::size_t tail = length % 64;
  const std::size_t pad_blocks = tail < 56 ? 1 : 2;

  // The padding depends only on the length, so it is built once: the 0x80
  // terminator right after the tail bytes, zeros, then the 64-bit bit
  // length closing the last block.
  std::uint8_t pad[128] = {};
  pad[tail] = 0x80;
  const std::uint64_t bit_length = static_cast<std::uint64_t>(length) * 8;
  for (std::size_t i = 0; i < 8; ++i) {
    pad[pad_blocks * 64 - 8 + i] =
        static_cast<std::uint8_t>(bit_length >> (8 * i));
  }
  // Without tail bytes the final block is `pad` itself in every lane, so
  // its words are broadcast once instead of transposed per group.
  Lanes pad_words[16] = {};
  for (std::size_t j = 0; j < 16; ++j) {
    pad_words[j] = Lanes{} + LoadLe32(pad + 4 * j);
  }
  std::uint8_t tails[kMd5Lanes][128] = {};

  for (std::size_t group = 0; group < out.size(); group += kMd5Lanes) {
    const std::size_t count = std::min(kMd5Lanes, out.size() - group);
    const std::uint8_t* lane[kMd5Lanes] = {};
    for (std::size_t l = 0; l < kMd5Lanes; ++l) {
      lane[l] = base + (group + std::min(l, count - 1)) * length;
    }
    Lanes state[4] = {Lanes{} + 0x67452301u, Lanes{} + 0xefcdab89u,
                      Lanes{} + 0x98badcfeu, Lanes{} + 0x10325476u};
    Lanes x[16] = {};
    for (std::size_t block = 0; block < full_blocks; ++block) {
      LoadBlock(lane, block * 64, x);
      Compress(state, x);
    }
    if (tail == 0) {
      Compress(state, pad_words);
    } else {
      const std::uint8_t* tail_lane[kMd5Lanes] = {};
      for (std::size_t l = 0; l < kMd5Lanes; ++l) {
        std::memcpy(tails[l], pad, sizeof(pad));
        std::memcpy(tails[l], lane[l] + full_blocks * 64, tail);
        tail_lane[l] = tails[l];
      }
      for (std::size_t block = 0; block < pad_blocks; ++block) {
        LoadBlock(tail_lane, block * 64, x);
        Compress(state, x);
      }
    }
    for (std::size_t l = 0; l < count; ++l) {
      out[group + l] =
          Pack(state[0][l], state[1][l], state[2][l], state[3][l]);
    }
  }
}

}  // namespace vecycle
