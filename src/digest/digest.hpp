// Digest value types shared by all checksum algorithms.
//
// VeCycle identifies page content by strong checksum (§3.4: MD5 by default,
// replaceable by SHA-1/SHA-256 if collision resistance is a concern). All
// algorithms in this library produce a Digest128 — SHA-1 output is
// truncated to 128 bits, FNV is widened — so the migration protocol,
// checkpoint index and fingerprints are agnostic to the algorithm choice.
#pragma once

#include <array>
#include <compare>
#include <cstdint>
#include <string>

#include "common/rng.hpp"

namespace vecycle {

/// 128-bit digest value. Ordered (for the sorted checksum index of §3.3);
/// the open-addressing digest tables place it with SlotHash.
struct Digest128 {
  std::array<std::uint64_t, 2> words{};

  constexpr auto operator<=>(const Digest128&) const = default;

  /// Lowercase hex rendering, most significant byte first.
  [[nodiscard]] std::string ToHex() const;

  /// Builds a digest directly from two words; used by tests and by the
  /// synthetic-content fast path.
  static constexpr Digest128 FromWords(std::uint64_t hi, std::uint64_t lo) {
    return Digest128{{hi, lo}};
  }
};

/// Slot index for the open-addressing digest tables (DigestSet,
/// DigestMap): one SplitMix64 round over both words. Cryptographic
/// digests are uniform in either word, but an FNV-widened digest is
/// FromWords(fnv, 0) — a hash of words[1] alone sends every one of them
/// to the same slot and turns probing quadratic.
[[nodiscard]] constexpr std::uint64_t SlotHash(const Digest128& digest) {
  return SplitMix64(digest.words[0] ^
                    (digest.words[1] * 0x9e3779b97f4a7c15ull))
      .Next();
}

/// Identifies which checksum algorithm a component should use. §3.4
/// discusses the trade-off: MD5 is the prototype default; FNV is the kind
/// of cheap non-cryptographic hash sender-side dedup can get away with
/// (candidates are verified locally); SHA-1 is the "if MD5 is deemed a
/// risk" replacement.
enum class DigestAlgorithm { kMd5, kSha1, kSha256, kFnv1a };

const char* ToString(DigestAlgorithm algorithm);

/// Digest size on the wire, in bytes. MD5 and truncated SHA-1 are carried
/// as 16 bytes; FNV-1a as 8. This feeds the §3.2 bulk-checksum-exchange
/// traffic accounting (4 GiB VM -> 16 MiB of MD5 checksums).
constexpr std::uint64_t WireSizeBytes(DigestAlgorithm algorithm) {
  return algorithm == DigestAlgorithm::kFnv1a ? 8 : 16;
}

}  // namespace vecycle
