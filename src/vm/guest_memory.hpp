// Page-granular guest memory model.
//
// Every technique the paper studies — sender-side deduplication, dirty-page
// tracking, and VeCycle's content-based redundancy elimination — depends
// only on (a) which pages carry identical content and (b) which pages were
// written when. GuestMemory therefore identifies each page's content by a
// 64-bit seed: equal seed ⇔ equal content. Two representations share that
// semantic:
//
//  * kSeedOnly   — only the seed vector is stored (8 B/page instead of
//                  4 KiB/page), letting benches model 6 GiB VMs (1.57 M
//                  pages) in ~12 MiB. Digests are computed over the seed.
//  * kMaterialized — a real 4 KiB byte image per page, deterministically
//                  expanded from the seed. Digests are computed over the
//                  bytes, and integration tests use this mode to prove the
//                  migration protocol reconstructs memory byte-for-byte.
//
// Writes bump a per-page generation counter, which is exactly the dirty
// tracking state Miyakodori keeps (§4.3). A generation counts writes, not
// content updates: WriteBurst() applies `count` back-to-back writes as one
// content update (only the last store's content survives) and one
// generation bump of `count`, so workloads cost O(pages touched) rather
// than O(writes) while every counter reads as if each store ran.
#pragma once

#include <cstddef>
#include <cstdint>
#include <span>
#include <vector>

#include "common/rng.hpp"
#include "common/units.hpp"
#include "digest/digest.hpp"

namespace vecycle::vm {

using PageId = std::uint64_t;

/// Content seed 0 denotes the all-zero page (freshly booted machines are
/// full of them, §2.1).
inline constexpr std::uint64_t kZeroPageSeed = 0;

enum class ContentMode { kSeedOnly, kMaterialized };

/// Deterministically expands a content seed into a full 4 KiB page image.
/// Seed 0 expands to all zeros. Equal seeds always expand to equal bytes,
/// and (for practical purposes) distinct seeds to distinct bytes.
void MaterializePage(std::uint64_t seed, std::span<std::byte> out);

class GuestMemory {
 public:
  GuestMemory(Bytes ram_size, ContentMode mode,
              DigestAlgorithm algorithm = DigestAlgorithm::kMd5);

  [[nodiscard]] std::uint64_t PageCount() const { return seeds_.size(); }
  [[nodiscard]] Bytes RamSize() const { return Pages(PageCount()); }
  [[nodiscard]] ContentMode Mode() const { return mode_; }
  [[nodiscard]] DigestAlgorithm Algorithm() const { return algorithm_; }

  [[nodiscard]] std::uint64_t Seed(PageId page) const;

  /// Every page's content seed, by page index — the whole-memory
  /// counterpart of Seed(). Callers snapshot this at departure time as
  /// the delta-encoding baseline of a future return migration.
  [[nodiscard]] const std::vector<std::uint64_t>& Seeds() const {
    return seeds_;
  }

  /// Overwrites `page` with new content. Bumps the generation counter even
  /// if the seed is unchanged (a store is a store — this is what makes
  /// dirty tracking overestimate, §4.3).
  void WritePage(PageId page, std::uint64_t content_seed) {
    WriteBurst(page, 1, content_seed);
  }

  /// `count` back-to-back writes to `page`, the last of which stores
  /// `content_seed`: generation and TotalWrites() rise by `count`, and
  /// the content (the page image, in kMaterialized mode) is updated
  /// once. A count of 0 changes nothing.
  void WriteBurst(PageId page, std::uint64_t count,
                  std::uint64_t content_seed);

  /// Copies content from one frame to another, as the guest kernel does
  /// when compacting or COW-duplicating memory. Dirties the destination.
  void CopyPage(PageId from, PageId to);

  /// Per-page generation counter (Miyakodori state). Starts at 0.
  [[nodiscard]] std::uint64_t Generation(PageId page) const;
  [[nodiscard]] const std::vector<std::uint64_t>& Generations() const {
    return generations_;
  }

  /// Replaces the generation vector wholesale. The write-generation state
  /// is part of the VM, not of the host: when a migration completes, the
  /// destination's reconstructed memory adopts the source's counters so
  /// dirty tracking stays continuous across hosts (as Miyakodori's
  /// hypervisor-maintained vector does).
  void SetGenerations(std::vector<std::uint64_t> generations);

  /// Total writes ever applied; cheap global change detector for tests.
  [[nodiscard]] std::uint64_t TotalWrites() const { return total_writes_; }

  /// Strong digest of the page's content with the configured algorithm.
  /// In kMaterialized mode this hashes the real 4 KiB image; in kSeedOnly
  /// mode it hashes the 8-byte seed — equal-iff-equal-content either way.
  ///
  /// Memoized per page, keyed on the generation counter: re-digesting an
  /// unmodified page (every strategy sweep, every migration round, the
  /// post-migration incoming-digest scan) is a cache hit instead of a
  /// fresh MD5. Writes invalidate by bumping the generation;
  /// SetGenerations re-stamps valid entries (content is unchanged there).
  [[nodiscard]] Digest128 PageDigest(PageId page) const;

  /// Fast 64-bit content hash for fingerprinting and analysis. Collision
  /// probability over millions of pages is negligible for statistics.
  /// Memoized with the same generation-keyed scheme as PageDigest.
  [[nodiscard]] std::uint64_t ContentHash64(PageId page) const;

  /// Toggles digest/hash memoization (on by default). Disabling clears
  /// the caches; results must be byte-identical either way — the switch
  /// exists so tests and benches can prove exactly that, and so
  /// memory-constrained million-page sweeps can opt out of the
  /// 24 B/page cache footprint.
  void SetDigestCacheEnabled(bool enabled);
  [[nodiscard]] bool DigestCacheEnabled() const { return cache_enabled_; }

  /// Memoization counters (benchmarks and cache tests).
  [[nodiscard]] std::uint64_t DigestCacheHits() const { return cache_hits_; }
  [[nodiscard]] std::uint64_t DigestCacheMisses() const {
    return cache_misses_;
  }

  /// Copies the page's (possibly expanded) bytes into `out` (4 KiB).
  void ReadPage(PageId page, std::span<std::byte> out) const;

  /// Direct view of a materialized page; invalid in kSeedOnly mode.
  [[nodiscard]] std::span<const std::byte> PageBytes(PageId page) const;

  /// True iff both memories have identical content page-by-page.
  [[nodiscard]] bool ContentEquals(const GuestMemory& other) const;

  /// Order-sensitive 64-bit digest of the whole image's content; equal iff
  /// page-by-page content is equal. The audit layer compares source and
  /// destination fingerprints after every migration.
  [[nodiscard]] std::uint64_t ContentFingerprint() const;

  [[nodiscard]] std::uint64_t CountZeroPages() const;

 private:
  void CheckPage(PageId page) const;
  [[nodiscard]] Digest128 ComputePageDigest(PageId page) const;

  ContentMode mode_;
  DigestAlgorithm algorithm_;
  std::vector<std::uint64_t> seeds_;
  std::vector<std::uint64_t> generations_;
  std::vector<std::byte> backing_;  // PageCount()*kPageSize in kMaterialized
  std::uint64_t total_writes_ = 0;

  // Digest memoization. A cache entry is valid iff its key equals the
  // page's current generation + 1 (0 = never cached); every write bumps
  // the generation, so stale entries can never be observed. Vectors are
  // allocated lazily on the first digest/hash call and are `mutable`
  // because memoization does not change observable content (the simulator
  // is single-threaded by design).
  mutable std::vector<Digest128> digest_cache_;
  mutable std::vector<std::uint64_t> digest_cache_key_;
  mutable std::vector<std::uint64_t> hash64_cache_;
  mutable std::vector<std::uint64_t> hash64_cache_key_;
  mutable std::uint64_t cache_hits_ = 0;
  mutable std::uint64_t cache_misses_ = 0;
  bool cache_enabled_ = true;
};

/// Initial memory composition, following the structure the Memory Buddies
/// traces exhibit (§2.2, Fig. 4): a few percent zero pages, a duplicate
/// pool (shared libraries / page-cache copies) drawn from a small set of
/// distinct contents, and unique content everywhere else.
struct MemoryProfile {
  double zero_fraction = 0.03;
  double duplicate_fraction = 0.08;
  /// Number of distinct contents the duplicate pool draws from.
  std::uint64_t duplicate_pool_size = 512;

  /// Validates and fills `memory`; page placement is randomized with `rng`
  /// so duplicates and zeros are scattered as in real address spaces.
  void Apply(GuestMemory& memory, Xoshiro256& rng) const;
};

}  // namespace vecycle::vm
