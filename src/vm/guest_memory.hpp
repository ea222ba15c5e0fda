// Page-granular guest memory model.
//
// Every technique the paper studies — sender-side deduplication, dirty-page
// tracking, and VeCycle's content-based redundancy elimination — depends
// only on (a) which pages carry identical content and (b) which pages were
// written when. GuestMemory therefore identifies each page's content by a
// 64-bit seed: equal seed ⇔ equal content. Memory stores only the seed
// and the generation counter of each page (16 B/page instead of 4 KiB),
// letting benches model 6 GiB VMs (1.57 M pages) in ~24 MiB. In both
// modes a page's 4 KiB image is expanded from its seed when something
// reads it (ReadPage); no image is kept resident. The two modes differ in
// how page content is named:
//
//  * kSeedOnly   — a page digest is a bijective mix of the seed:
//                  collision-free, and free to compute.
//  * kMaterialized — a page digest is real MD5/SHA over the expanded
//                  4 KiB image (memoized per seed), and integration tests
//                  use this mode to prove the migration protocol
//                  reconstructs memory byte-for-byte.
//
// ContentDigest() is the one definition of page content identity in both
// modes; GuestMemory, checkpoint indexes and the destination's cross-checks
// all name content through it. Its batch form, ContentDigests(), gives the
// same values and serves the scans that hash many pages at once (the
// source's round scan, checkpoint index builds, the arrived-state digest
// set): in materialized mode it hashes memo misses several pages at a
// time with the lane-parallel MD5 kernel (digest/md5_lanes.hpp).
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

/// The identity of the page content `seed` generates, under `algorithm`.
///  * kSeedOnly: words[0] = SplitMix64(seed + 1) — ContentHash64 — and
///    words[1] = SplitMix64 of the seed salted by the algorithm. Injective
///    in (seed, algorithm), so it never collides; simulated checksum cost
///    is charged by sim::ChecksumEngine, not by this computation.
///  * kMaterialized: the real digest of the 4 KiB page image, memoized per
///    (algorithm, seed) in SeedDigestMemo. On a miss it expands the image
///    from the seed and hashes it.
/// ContentDigests is the batch form and the one whole-memory and per-batch
/// scans use.
[[nodiscard]] Digest128 ContentDigest(ContentMode mode,
                                      DigestAlgorithm algorithm,
                                      std::uint64_t seed);

/// out[i] = ContentDigest(mode, algorithm, seeds[i]) for every i, with the
/// same SeedDigestMemo Hits()/Misses() counts and stored entries as that
/// loop, computed in batches:
///  * kSeedOnly: a straight loop of the mix; no memo, no allocation.
///  * kMaterialized: per block of seeds, the memo is probed for the
///    block's distinct seeds through FindMany (prefetched probes); the
///    distinct misses — a seed repeated in the block is hashed once — are
///    expanded into a buffer of kMd5Lanes page images and hashed together
///    by the lane kernel (Md5Lanes; SHA-1, SHA-256 and FNV hash one image
///    at a time), then stored. A call allocates nothing: the lane buffer
///    (kMd5Lanes x 4 KiB) and the block's bookkeeping are per-thread
///    scratch.
void ContentDigests(ContentMode mode, DigestAlgorithm algorithm,
                    std::span<const std::uint64_t> seeds,
                    std::span<Digest128> out);

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
  /// the content seed is updated once. A count of 0 changes nothing.
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

  /// ContentDigest of the page's seed under this memory's mode and
  /// algorithm.
  [[nodiscard]] Digest128 PageDigest(PageId page) const;

  /// out[i] = PageDigest(pages[i]) for every i, through ContentDigests.
  void PageDigests(std::span<const PageId> pages,
                   std::span<Digest128> out) const;

  /// 64-bit content hash for fingerprinting and analysis: words[0] of the
  /// seed-mode ContentDigest, in both modes.
  [[nodiscard]] std::uint64_t ContentHash64(PageId page) const;

  /// Expands the page's 4 KiB image from its seed into `out`.
  void ReadPage(PageId page, std::span<std::byte> out) const;

  /// True iff both memories have identical content page-by-page.
  [[nodiscard]] bool ContentEquals(const GuestMemory& other) const;

  /// Order-sensitive 64-bit digest of the whole image's content; equal iff
  /// page-by-page content is equal. The audit layer compares source and
  /// destination fingerprints after every migration.
  [[nodiscard]] std::uint64_t ContentFingerprint() const;

  [[nodiscard]] std::uint64_t CountZeroPages() const;

 private:
  void CheckPage(PageId page) const;

  ContentMode mode_;
  DigestAlgorithm algorithm_;
  std::vector<std::uint64_t> seeds_;
  std::vector<std::uint64_t> generations_;
  std::uint64_t total_writes_ = 0;
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
