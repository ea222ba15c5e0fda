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
//
// Scans that digest many pages at once go through vm::ContentDigests,
// which probes a block of seeds with FindMany — every probe's first slot
// prefetched before any is walked, so a block pays about one memory
// latency rather than one per probe — then expands the block's distinct
// misses into a buffer of kMd5Lanes page images, hashes them together
// with the lane-parallel MD5 kernel (digest/md5_lanes.hpp) and Stores
// them. Counters and stored entries come out as the per-seed
// Find-then-Store loop leaves them.
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
#include <span>
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

  /// Find for a batch: probes seeds[i] for every i, in order, counting
  /// hits and misses exactly as that many Find calls would. On a hit
  /// found[i] is true and out[i] holds the digest; on a miss found[i] is
  /// false and out[i] is untouched. The first slot of every probe is
  /// prefetched before any chain is walked, so the batch's cache misses
  /// overlap instead of queuing one behind the other.
  void FindMany(DigestAlgorithm algorithm,
                std::span<const std::uint64_t> seeds,
                std::span<Digest128> out, std::span<bool> found);

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
  /// The slot holding (tag, seed), or null; counts nothing.
  [[nodiscard]] const Slot* Lookup(std::uint64_t seed,
                                   std::uint16_t tag) const;
  void Grow();

  std::vector<Slot> slots_;
  std::uint64_t mask_ = 0;  // slots_.size() - 1 (power-of-two table)
  std::uint64_t size_ = 0;
  std::uint64_t hits_ = 0;
  std::uint64_t misses_ = 0;
};

}  // namespace vecycle
