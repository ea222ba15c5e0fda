#include "digest/md5.hpp"

#include <cstring>

#include "common/check.hpp"

namespace vecycle {
namespace {

constexpr std::uint32_t Rotl(std::uint32_t x, std::uint32_t c) {
  return (x << c) | (x >> (32 - c));
}

// The four rounds' steps (RFC 1321 §3.4): a = b + ((a + fn(b, c, d) + x +
// t) <<< s) for message word x, rotation s and the sine-derived constant
// t = floor(2^32 * |sin(step)|), with each round function in its reduced
// form:
//   F(b, c, d) = (b & c) | (~b & d)  ==  d ^ (b & (c ^ d))
//   G(b, c, d) = (b & d) | (c & ~d)  ==  c ^ (d & (b ^ c))
//   H(b, c, d) = b ^ c ^ d
//   I(b, c, d) = c ^ (b | ~d)
inline void StepF(std::uint32_t& a, std::uint32_t b, std::uint32_t c,
                  std::uint32_t d, std::uint32_t x, std::uint32_t s,
                  std::uint32_t t) {
  a = b + Rotl(a + (d ^ (b & (c ^ d))) + x + t, s);
}

inline void StepG(std::uint32_t& a, std::uint32_t b, std::uint32_t c,
                  std::uint32_t d, std::uint32_t x, std::uint32_t s,
                  std::uint32_t t) {
  a = b + Rotl(a + (c ^ (d & (b ^ c))) + x + t, s);
}

inline void StepH(std::uint32_t& a, std::uint32_t b, std::uint32_t c,
                  std::uint32_t d, std::uint32_t x, std::uint32_t s,
                  std::uint32_t t) {
  a = b + Rotl(a + (b ^ c ^ d) + x + t, s);
}

inline void StepI(std::uint32_t& a, std::uint32_t b, std::uint32_t c,
                  std::uint32_t d, std::uint32_t x, std::uint32_t s,
                  std::uint32_t t) {
  a = b + Rotl(a + (c ^ (b | ~d)) + x + t, s);
}

std::uint32_t LoadLe32(const std::uint8_t* p) {
  return static_cast<std::uint32_t>(p[0]) |
         (static_cast<std::uint32_t>(p[1]) << 8) |
         (static_cast<std::uint32_t>(p[2]) << 16) |
         (static_cast<std::uint32_t>(p[3]) << 24);
}

void StoreLe32(std::uint8_t* p, std::uint32_t v) {
  p[0] = static_cast<std::uint8_t>(v);
  p[1] = static_cast<std::uint8_t>(v >> 8);
  p[2] = static_cast<std::uint8_t>(v >> 16);
  p[3] = static_cast<std::uint8_t>(v >> 24);
}

}  // namespace

Md5::Md5() : state_{0x67452301u, 0xefcdab89u, 0x98badcfeu, 0x10325476u} {}

void Md5::ProcessBlock(const std::uint8_t* block) {
  std::array<std::uint32_t, 16> x{};
  for (std::size_t i = 0; i < 16; ++i) x[i] = LoadLe32(block + i * 4);

  std::uint32_t a = state_[0];
  std::uint32_t b = state_[1];
  std::uint32_t c = state_[2];
  std::uint32_t d = state_[3];

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

  state_[0] += a;
  state_[1] += b;
  state_[2] += c;
  state_[3] += d;
}

void Md5::Update(const void* data, std::size_t size) {
  VEC_CHECK_MSG(!finalized_, "Md5::Update after Finalize");
  const auto* p = static_cast<const std::uint8_t*>(data);
  std::size_t fill = total_bytes_ % 64;
  total_bytes_ += size;

  if (fill != 0) {
    const std::size_t want = 64 - fill;
    const std::size_t take = size < want ? size : want;
    std::memcpy(buffer_.data() + fill, p, take);
    p += take;
    size -= take;
    fill += take;
    if (fill == 64) ProcessBlock(buffer_.data());
  }
  while (size >= 64) {
    ProcessBlock(p);
    p += 64;
    size -= 64;
  }
  if (size > 0) std::memcpy(buffer_.data(), p, size);
}

void Md5::Update(std::span<const std::byte> data) {
  Update(data.data(), data.size());
}

Digest128 Md5::Finalize() {
  VEC_CHECK_MSG(!finalized_, "Md5::Finalize called twice");
  finalized_ = true;

  const std::uint64_t bit_len = total_bytes_ * 8;
  // Append the 0x80 terminator, zero padding, then the 64-bit length.
  static constexpr std::uint8_t kPad[64] = {0x80};
  const std::size_t fill = total_bytes_ % 64;
  const std::size_t pad_len = fill < 56 ? 56 - fill : 120 - fill;

  finalized_ = false;  // allow the padding Updates below
  Update(kPad, pad_len);
  std::uint8_t len_bytes[8];
  StoreLe32(len_bytes, static_cast<std::uint32_t>(bit_len));
  StoreLe32(len_bytes + 4, static_cast<std::uint32_t>(bit_len >> 32));
  Update(len_bytes, 8);
  finalized_ = true;

  std::uint8_t out[16];
  for (int i = 0; i < 4; ++i) {
    StoreLe32(out + i * 4, state_[static_cast<std::size_t>(i)]);
  }
  // Pack big-endian so ToHex() matches md5sum output ordering.
  Digest128 d;
  for (int i = 0; i < 8; ++i) {
    d.words[0] = (d.words[0] << 8) | out[i];
    d.words[1] = (d.words[1] << 8) | out[8 + i];
  }
  return d;
}

Digest128 Md5Digest(const void* data, std::size_t size) {
  Md5 md5;
  md5.Update(data, size);
  return md5.Finalize();
}

Digest128 Md5Digest(std::span<const std::byte> data) {
  return Md5Digest(data.data(), data.size());
}

}  // namespace vecycle
