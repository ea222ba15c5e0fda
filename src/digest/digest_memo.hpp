// Process-wide (per-thread) memo of materialized page digests.
//
// Guest page content in this simulation is a pure function of the page's
// content seed, so the real MD5/SHA of a materialized 4 KiB page is a pure
// function of (algorithm, seed). Every migration leg builds a fresh
// destination memory and a fresh checkpoint index over the very seeds the
// source just hashed; this table lets each distinct content be expanded
// and hashed once per thread instead of once per object and pass. No page
// image is kept anywhere: on a miss, vm::ContentDigest expands the image
// from the seed into a stack buffer, hashes it and records only the
// digest. It is the only digest cache in the library: seed-mode digests
// are a pure mix and need none.
// Results are bit-identical by construction (the computation is pure),
// only wall-clock time changes — simulated CPU time is charged by the
// ChecksumEngine and is unaffected.
//
// The table is thread_local: a per-thread flat open-addressing map keeps a
// lookup at one or two cache lines with no synchronization on the hot
// path. Threads simply build independent memos.
#pragma once

#include <cstdint>
#include <optional>
#include <vector>

#include "digest/digest.hpp"

namespace vecycle {

class SeedDigestMemo {
 public:
  /// The calling thread's memo.
  static SeedDigestMemo& Instance();

  /// Cached digest for (algorithm, seed), or nullopt on a miss.
  [[nodiscard]] std::optional<Digest128> Find(DigestAlgorithm algorithm,
                                              std::uint64_t seed);

  /// Records a computed digest. No-op once the table holds kMaxEntries
  /// (a bound, not an eviction policy: long processes stop growing the
  /// table and simply compute the tail honestly).
  void Store(DigestAlgorithm algorithm, std::uint64_t seed,
             const Digest128& digest);

  [[nodiscard]] std::uint64_t Hits() const { return hits_; }
  [[nodiscard]] std::uint64_t Misses() const { return misses_; }
  [[nodiscard]] std::uint64_t Size() const { return size_; }

  /// Drops every entry and resets the counters (tests, benchmarks).
  void Clear();

  static constexpr std::uint64_t kMaxEntries = 1ull << 20;

 private:
  struct Slot {
    std::uint64_t seed = 0;
    std::uint16_t tag = 0;  // algorithm + 1; 0 = free
    Digest128 digest;
  };

  [[nodiscard]] std::uint64_t ProbeStart(std::uint64_t seed,
                                         std::uint16_t tag) const;
  void Grow();

  std::vector<Slot> slots_;
  std::uint64_t mask_ = 0;  // slots_.size() - 1 (power-of-two table)
  std::uint64_t size_ = 0;
  std::uint64_t hits_ = 0;
  std::uint64_t misses_ = 0;
};

}  // namespace vecycle
