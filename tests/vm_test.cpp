// Guest memory model: dual content representation, digests, generation
// counters, dirty snapshots, memory profiles, and workload mutators.
#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <cmath>
#include <set>
#include <string>
#include <vector>

#include "common/check.hpp"
#include "digest/hasher.hpp"
#include "vm/dirty_tracker.hpp"
#include "vm/guest_memory.hpp"
#include "vm/workload.hpp"

namespace vecycle::vm {
namespace {

// --- Page materialization. ---

TEST(MaterializePage, ZeroSeedGivesZeroPage) {
  std::array<std::byte, kPageSize> page;
  MaterializePage(kZeroPageSeed, page);
  for (const auto b : page) EXPECT_EQ(b, std::byte{0});
}

TEST(MaterializePage, IsDeterministic) {
  std::array<std::byte, kPageSize> a;
  std::array<std::byte, kPageSize> b;
  MaterializePage(12345, a);
  MaterializePage(12345, b);
  EXPECT_EQ(a, b);
}

TEST(MaterializePage, DistinctSeedsGiveDistinctContent) {
  std::array<std::byte, kPageSize> a;
  std::array<std::byte, kPageSize> b;
  MaterializePage(1, a);
  MaterializePage(2, b);
  EXPECT_NE(a, b);
}

// --- GuestMemory basics. ---

TEST(GuestMemory, GeometryFromRamSize) {
  GuestMemory memory(MiB(1), ContentMode::kSeedOnly);
  EXPECT_EQ(memory.PageCount(), 256u);
  EXPECT_EQ(memory.RamSize(), MiB(1));
}

TEST(GuestMemory, UnalignedRamSizeThrows) {
  EXPECT_THROW(GuestMemory(Bytes{kPageSize + 1}, ContentMode::kSeedOnly),
               CheckFailure);
}

TEST(GuestMemory, StartsAllZeroPages) {
  GuestMemory memory(MiB(1), ContentMode::kSeedOnly);
  EXPECT_EQ(memory.CountZeroPages(), memory.PageCount());
}

TEST(GuestMemory, WriteChangesSeedAndGeneration) {
  GuestMemory memory(MiB(1), ContentMode::kSeedOnly);
  memory.WritePage(7, 999);
  EXPECT_EQ(memory.Seed(7), 999u);
  EXPECT_EQ(memory.Generation(7), 1u);
  EXPECT_EQ(memory.Generation(8), 0u);
  EXPECT_EQ(memory.TotalWrites(), 1u);
}

TEST(GuestMemory, RewriteWithSameContentStillBumpsGeneration) {
  // This is the semantic that makes dirty tracking overestimate (§4.3).
  GuestMemory memory(MiB(1), ContentMode::kSeedOnly);
  memory.WritePage(3, 42);
  memory.WritePage(3, 42);
  EXPECT_EQ(memory.Generation(3), 2u);
}

TEST(GuestMemory, CopyPageMovesContentAndDirtiesDestination) {
  GuestMemory memory(MiB(1), ContentMode::kSeedOnly);
  memory.WritePage(1, 42);
  memory.CopyPage(1, 2);
  EXPECT_EQ(memory.Seed(2), 42u);
  EXPECT_EQ(memory.Generation(2), 1u);
  EXPECT_EQ(memory.Generation(1), 1u);  // source untouched by the copy
}

TEST(GuestMemory, OutOfRangeAccessThrows) {
  GuestMemory memory(MiB(1), ContentMode::kSeedOnly);
  EXPECT_THROW((void)memory.Seed(memory.PageCount()), CheckFailure);
  EXPECT_THROW(memory.WritePage(memory.PageCount(), 1), CheckFailure);
}

// --- Write bursts. ---

TEST(WriteBurst, ZeroCountIsANoOp) {
  GuestMemory memory(MiB(1), ContentMode::kMaterialized);
  memory.WritePage(5, 77);
  memory.WriteBurst(5, 0, 88);
  EXPECT_EQ(memory.Seed(5), 77u);
  EXPECT_EQ(memory.Generation(5), 1u);
  EXPECT_EQ(memory.TotalWrites(), 1u);
  std::array<std::byte, kPageSize> bytes;
  MaterializePage(77, bytes);
  EXPECT_TRUE(std::equal(bytes.begin(), bytes.end(),
                         memory.PageBytes(5).begin()));
}

TEST(WriteBurst, GenerationAndTotalRiseByCount) {
  GuestMemory memory(MiB(1), ContentMode::kSeedOnly);
  memory.WritePage(9, 1);
  memory.WriteBurst(9, 1000, 2);
  memory.WriteBurst(10, 7, 3);
  EXPECT_EQ(memory.Seed(9), 2u);
  EXPECT_EQ(memory.Generation(9), 1001u);
  EXPECT_EQ(memory.Generation(10), 7u);
  EXPECT_EQ(memory.Generation(11), 0u);
  EXPECT_EQ(memory.TotalWrites(), 1008u);
}

TEST(WriteBurst, MaterializesTheLastStoredContent) {
  GuestMemory memory(MiB(1), ContentMode::kMaterialized);
  memory.WriteBurst(3, 12, 4242);
  std::array<std::byte, kPageSize> bytes;
  MaterializePage(memory.Seed(3), bytes);
  EXPECT_TRUE(std::equal(bytes.begin(), bytes.end(),
                         memory.PageBytes(3).begin()));
}

TEST(WriteBurst, OutOfRangePageThrows) {
  GuestMemory memory(MiB(1), ContentMode::kSeedOnly);
  EXPECT_THROW(memory.WriteBurst(memory.PageCount(), 3, 1), CheckFailure);
  EXPECT_THROW(memory.WriteBurst(memory.PageCount(), 0, 1), CheckFailure);
  EXPECT_EQ(memory.TotalWrites(), 0u);
}

// --- Digest semantics across modes. ---

TEST(GuestMemory, EqualSeedsGiveEqualDigestsWithinMode) {
  for (const auto mode :
       {ContentMode::kSeedOnly, ContentMode::kMaterialized}) {
    GuestMemory memory(MiB(1), mode);
    memory.WritePage(0, 123);
    memory.WritePage(1, 123);
    memory.WritePage(2, 456);
    EXPECT_EQ(memory.PageDigest(0), memory.PageDigest(1));
    EXPECT_NE(memory.PageDigest(0), memory.PageDigest(2));
  }
}

TEST(GuestMemory, ContentHashMatchesAcrossModes) {
  GuestMemory seeded(MiB(1), ContentMode::kSeedOnly);
  GuestMemory materialized(MiB(1), ContentMode::kMaterialized);
  seeded.WritePage(0, 77);
  materialized.WritePage(0, 77);
  EXPECT_EQ(seeded.ContentHash64(0), materialized.ContentHash64(0));
}

TEST(GuestMemory, MaterializedDigestHashesRealBytes) {
  GuestMemory memory(MiB(1), ContentMode::kMaterialized);
  memory.WritePage(0, 55);
  // Independently materialize and hash; must match PageDigest.
  std::array<std::byte, kPageSize> bytes;
  MaterializePage(55, bytes);
  const auto expected =
      ComputeDigest(memory.Algorithm(), bytes.data(), bytes.size());
  EXPECT_EQ(memory.PageDigest(0), expected);
}

TEST(GuestMemory, ReadPageAgreesWithPageBytes) {
  GuestMemory memory(MiB(1), ContentMode::kMaterialized);
  memory.WritePage(4, 99);
  std::array<std::byte, kPageSize> copy;
  memory.ReadPage(4, copy);
  const auto view = memory.PageBytes(4);
  EXPECT_TRUE(std::equal(copy.begin(), copy.end(), view.begin()));
}

TEST(GuestMemory, PageBytesThrowsInSeedMode) {
  GuestMemory memory(MiB(1), ContentMode::kSeedOnly);
  EXPECT_THROW((void)memory.PageBytes(0), CheckFailure);
}

TEST(GuestMemory, ContentEqualsComparesContent) {
  GuestMemory a(MiB(1), ContentMode::kSeedOnly);
  GuestMemory b(MiB(1), ContentMode::kSeedOnly);
  a.WritePage(0, 1);
  b.WritePage(0, 1);
  EXPECT_TRUE(a.ContentEquals(b));
  b.WritePage(0, 2);
  EXPECT_FALSE(a.ContentEquals(b));
}

TEST(GuestMemory, SetGenerationsAdoptsVector) {
  GuestMemory memory(MiB(1), ContentMode::kSeedOnly);
  std::vector<std::uint64_t> generations(memory.PageCount(), 9);
  memory.SetGenerations(generations);
  EXPECT_EQ(memory.Generation(0), 9u);
  EXPECT_THROW(memory.SetGenerations({1, 2, 3}), CheckFailure);
}

// --- Digest memoization. ---

/// Honest recomputation of what PageDigest should return, bypassing every
/// cache layer.
Digest128 HonestDigest(const GuestMemory& memory, PageId page) {
  if (memory.Mode() == ContentMode::kMaterialized) {
    std::array<std::byte, kPageSize> bytes;
    MaterializePage(memory.Seed(page), bytes);
    return ComputeDigest(memory.Algorithm(), bytes.data(), bytes.size());
  }
  const std::uint64_t seed = memory.Seed(page);
  return ComputeDigest(memory.Algorithm(), &seed, sizeof(seed));
}

TEST(DigestCache, CachedAndUncachedDigestsAreByteIdentical) {
  for (const auto mode :
       {ContentMode::kSeedOnly, ContentMode::kMaterialized}) {
    GuestMemory cached(MiB(1), mode);
    GuestMemory uncached(MiB(1), mode);
    uncached.SetDigestCacheEnabled(false);
    Xoshiro256 rng(0xcafe);
    for (PageId p = 0; p < cached.PageCount(); ++p) {
      const std::uint64_t seed = rng.Next();
      cached.WritePage(p, seed);
      uncached.WritePage(p, seed);
    }
    for (PageId p = 0; p < cached.PageCount(); ++p) {
      EXPECT_EQ(cached.PageDigest(p), uncached.PageDigest(p));
      // Second read serves from the cache; still identical.
      EXPECT_EQ(cached.PageDigest(p), uncached.PageDigest(p));
      EXPECT_EQ(cached.ContentHash64(p), uncached.ContentHash64(p));
    }
    EXPECT_GT(cached.DigestCacheHits(), 0u);
    EXPECT_EQ(uncached.DigestCacheHits(), 0u);
  }
}

TEST(DigestCache, WritePageInvalidates) {
  for (const auto mode :
       {ContentMode::kSeedOnly, ContentMode::kMaterialized}) {
    GuestMemory memory(MiB(1), mode);
    memory.WritePage(0, 111);
    const auto before = memory.PageDigest(0);
    memory.WritePage(0, 222);
    const auto after = memory.PageDigest(0);
    EXPECT_NE(before, after);
    EXPECT_EQ(after, HonestDigest(memory, 0));
  }
}

TEST(DigestCache, WriteBurstInvalidates) {
  for (const auto mode :
       {ContentMode::kSeedOnly, ContentMode::kMaterialized}) {
    GuestMemory memory(MiB(1), mode);
    memory.WritePage(0, 111);
    const auto before = memory.PageDigest(0);
    const auto hash_before = memory.ContentHash64(0);
    memory.WriteBurst(0, 5, 222);
    const auto misses = memory.DigestCacheMisses();
    const auto after = memory.PageDigest(0);
    EXPECT_EQ(memory.DigestCacheMisses(), misses + 1);
    EXPECT_NE(before, after);
    EXPECT_EQ(after, HonestDigest(memory, 0));
    EXPECT_NE(memory.ContentHash64(0), hash_before);
  }
}

TEST(DigestCache, CopyPageInvalidatesDestination) {
  GuestMemory memory(MiB(1), ContentMode::kSeedOnly);
  memory.WritePage(0, 111);
  memory.WritePage(1, 222);
  const auto dest_before = memory.PageDigest(1);
  memory.CopyPage(0, 1);
  EXPECT_NE(memory.PageDigest(1), dest_before);
  EXPECT_EQ(memory.PageDigest(1), memory.PageDigest(0));
}

TEST(DigestCache, SetGenerationsKeepsDigestsValid) {
  GuestMemory memory(MiB(1), ContentMode::kSeedOnly);
  memory.WritePage(0, 333);
  const auto digest = memory.PageDigest(0);  // cached at generation 1
  std::vector<std::uint64_t> generations(memory.PageCount(), 0);
  memory.SetGenerations(generations);  // content untouched
  EXPECT_EQ(memory.PageDigest(0), digest);
  EXPECT_EQ(memory.PageDigest(0), HonestDigest(memory, 0));
}

TEST(DigestCache, GenerationAliasingAfterSetGenerationsIsSafe) {
  // The dangerous interleaving: cache a digest at generation g, rewind
  // the counters with SetGenerations, then write until the counter
  // climbs back to g. A naive generation-keyed cache would serve the
  // stale digest for the new content.
  GuestMemory memory(MiB(1), ContentMode::kSeedOnly);
  memory.WritePage(0, 444);  // generation 1
  const auto stale = memory.PageDigest(0);
  std::vector<std::uint64_t> generations(memory.PageCount(), 0);
  memory.SetGenerations(generations);  // back to generation 0
  memory.WritePage(0, 555);  // generation 1 again, new content
  EXPECT_NE(memory.PageDigest(0), stale);
  EXPECT_EQ(memory.PageDigest(0), HonestDigest(memory, 0));
}

TEST(DigestCache, SetGenerationsDropsEntriesStaledByEarlierWrites) {
  // The other dangerous interleaving: cache a digest, *overwrite* the
  // page (staling the entry), then SetGenerations. Re-stamping every
  // nonzero key would resurrect the stale digest as valid under the new
  // counters. This is exactly the destination-side sequence during a
  // checkpoint-assisted migration: ApplyRecord computes PageDigest for
  // the in-place check, then WritePage fetches the real content, then
  // Finalize adopts the source's generation counters.
  GuestMemory memory(MiB(1), ContentMode::kSeedOnly);
  memory.WritePage(0, 666);                    // generation 1
  const auto stale = memory.PageDigest(0);     // cached at generation 1
  memory.WritePage(0, 777);                    // generation 2, entry stale
  std::vector<std::uint64_t> generations(memory.PageCount(), 5);
  memory.SetGenerations(generations);
  EXPECT_NE(memory.PageDigest(0), stale);
  EXPECT_EQ(memory.PageDigest(0), HonestDigest(memory, 0));
}

TEST(DigestCache, HitAndMissCountersTrack) {
  GuestMemory memory(MiB(1), ContentMode::kSeedOnly);
  memory.WritePage(0, 1);
  EXPECT_EQ(memory.DigestCacheMisses(), 0u);
  (void)memory.PageDigest(0);
  EXPECT_EQ(memory.DigestCacheMisses(), 1u);
  EXPECT_EQ(memory.DigestCacheHits(), 0u);
  (void)memory.PageDigest(0);
  EXPECT_EQ(memory.DigestCacheHits(), 1u);
  memory.WritePage(0, 2);
  (void)memory.PageDigest(0);
  EXPECT_EQ(memory.DigestCacheMisses(), 2u);
}

TEST(DigestCache, ContentFingerprintUnaffectedByCaching) {
  GuestMemory cached(MiB(1), ContentMode::kSeedOnly);
  GuestMemory uncached(MiB(1), ContentMode::kSeedOnly);
  uncached.SetDigestCacheEnabled(false);
  for (PageId p = 0; p < cached.PageCount(); ++p) {
    cached.WritePage(p, p * 31 + 7);
    uncached.WritePage(p, p * 31 + 7);
  }
  const auto before = cached.ContentFingerprint();
  for (PageId p = 0; p < cached.PageCount(); ++p) {
    (void)cached.PageDigest(p);  // warm the cache
  }
  EXPECT_EQ(cached.ContentFingerprint(), before);
  EXPECT_EQ(cached.ContentFingerprint(), uncached.ContentFingerprint());
}

// --- Memory profile. ---

TEST(MemoryProfile, CompositionMatchesRequestedFractions) {
  GuestMemory memory(MiB(64), ContentMode::kSeedOnly);  // 16384 pages
  Xoshiro256 rng(1);
  MemoryProfile profile;
  profile.zero_fraction = 0.05;
  profile.duplicate_fraction = 0.10;
  profile.Apply(memory, rng);

  const double zeros = static_cast<double>(memory.CountZeroPages()) /
                       static_cast<double>(memory.PageCount());
  EXPECT_NEAR(zeros, 0.05, 0.01);

  std::set<std::uint64_t> unique;
  for (PageId p = 0; p < memory.PageCount(); ++p) {
    unique.insert(memory.Seed(p));
  }
  const double dup_fraction =
      1.0 - static_cast<double>(unique.size()) /
                static_cast<double>(memory.PageCount());
  // Zero pages collapse to one seed; dup pool of 512 seeds absorbs ~10%.
  EXPECT_NEAR(dup_fraction, 0.15, 0.03);
}

TEST(MemoryProfile, InvalidFractionsThrow) {
  GuestMemory memory(MiB(1), ContentMode::kSeedOnly);
  Xoshiro256 rng(1);
  MemoryProfile profile;
  profile.zero_fraction = 0.6;
  profile.duplicate_fraction = 0.6;
  EXPECT_THROW(profile.Apply(memory, rng), CheckFailure);
}

// --- Dirty snapshots. ---

TEST(DirtySnapshot, DetectsWrites) {
  GuestMemory memory(MiB(1), ContentMode::kSeedOnly);
  DirtySnapshot snapshot(memory);
  memory.WritePage(10, 1);
  memory.WritePage(20, 2);
  EXPECT_TRUE(snapshot.IsDirty(memory, 10));
  EXPECT_FALSE(snapshot.IsDirty(memory, 11));
  EXPECT_EQ(snapshot.CountDirty(memory), 2u);
  EXPECT_EQ(snapshot.DirtyPages(memory), (std::vector<PageId>{10, 20}));
}

TEST(DirtySnapshot, MismatchedGeometryThrows) {
  GuestMemory small(MiB(1), ContentMode::kSeedOnly);
  GuestMemory big(MiB(2), ContentMode::kSeedOnly);
  DirtySnapshot snapshot(small);
  EXPECT_THROW((void)snapshot.CountDirty(big), CheckFailure);
}

// --- Workloads. ---

TEST(IdleWorkload, WritesAtConfiguredRate) {
  GuestMemory memory(MiB(16), ContentMode::kSeedOnly);
  IdleWorkload::Config config;
  config.write_rate_pages_per_s = 4.0;
  IdleWorkload workload(config);
  workload.Advance(memory, Seconds(100.0));
  EXPECT_EQ(memory.TotalWrites(), 400u);
}

TEST(IdleWorkload, CarriesFractionalWritesAcrossSteps) {
  GuestMemory memory(MiB(16), ContentMode::kSeedOnly);
  IdleWorkload::Config config;
  config.write_rate_pages_per_s = 0.5;
  IdleWorkload workload(config);
  for (int i = 0; i < 100; ++i) workload.Advance(memory, Seconds(1.0));
  EXPECT_EQ(memory.TotalWrites(), 50u);
}

TEST(IdleWorkload, WritesStayInHotRegion) {
  GuestMemory memory(MiB(64), ContentMode::kSeedOnly);
  IdleWorkload::Config config;
  config.write_rate_pages_per_s = 100.0;
  config.hot_region_pages = 128;
  IdleWorkload workload(config);
  DirtySnapshot snapshot(memory);
  workload.Advance(memory, Seconds(100.0));
  for (const PageId page : snapshot.DirtyPages(memory)) {
    EXPECT_LT(page, 128u);
  }
}

TEST(UniformRandomWorkload, SpreadsWritesAcrossRam) {
  GuestMemory memory(MiB(16), ContentMode::kSeedOnly);  // 4096 pages
  UniformRandomWorkload workload(100.0, /*seed=*/3);
  DirtySnapshot snapshot(memory);
  workload.Advance(memory, Seconds(20.0));
  const auto dirty = snapshot.DirtyPages(memory);
  // 2000 writes over 4096 pages: expect wide coverage, some collisions.
  EXPECT_GT(dirty.size(), 1500u);
  EXPECT_LT(dirty.size(), 2001u);
}

TEST(HotspotWorkload, ConcentratesWrites) {
  GuestMemory memory(MiB(64), ContentMode::kSeedOnly);  // 16384 pages
  HotspotWorkload::Config config;
  config.write_rate_pages_per_s = 1000.0;
  config.hot_fraction = 0.1;
  config.hot_probability = 0.9;
  HotspotWorkload workload(config);
  DirtySnapshot snapshot(memory);
  workload.Advance(memory, Seconds(10.0));
  const auto hot_boundary =
      static_cast<PageId>(0.1 * static_cast<double>(memory.PageCount()));
  std::uint64_t hot_writes = 0;
  std::uint64_t total = 0;
  for (const PageId page : snapshot.DirtyPages(memory)) {
    ++total;
    if (page < hot_boundary) ++hot_writes;
  }
  EXPECT_GT(total, 0u);
  // Dirty-page fraction in the hot region must dominate.
  EXPECT_GT(static_cast<double>(hot_writes) / static_cast<double>(total),
            0.5);
}

TEST(SequentialRamdisk, FillCoversConfiguredSpan) {
  GuestMemory memory(MiB(16), ContentMode::kSeedOnly);
  SequentialRamdiskWorkload ramdisk(memory.PageCount(), 0.9, /*seed=*/5);
  ramdisk.Fill(memory);
  EXPECT_EQ(ramdisk.PageSpan(),
            static_cast<std::uint64_t>(0.9 * memory.PageCount()));
  // All ramdisk pages have fresh (non-zero) content.
  for (std::uint64_t i = 0; i < ramdisk.PageSpan(); ++i) {
    EXPECT_NE(memory.Seed(ramdisk.FirstPage() + i), kZeroPageSeed);
  }
}

TEST(SequentialRamdisk, UpdateFractionTouchesExactCount) {
  GuestMemory memory(MiB(16), ContentMode::kSeedOnly);
  SequentialRamdiskWorkload ramdisk(memory.PageCount(), 0.9, /*seed=*/5);
  ramdisk.Fill(memory);
  DirtySnapshot snapshot(memory);
  ramdisk.UpdateFraction(memory, 0.25);
  const auto expected =
      static_cast<std::uint64_t>(0.25 * static_cast<double>(ramdisk.PageSpan()));
  EXPECT_EQ(snapshot.CountDirty(memory), expected);
}

TEST(SequentialRamdisk, UpdatesStayInsideRamdisk) {
  GuestMemory memory(MiB(16), ContentMode::kSeedOnly);
  SequentialRamdiskWorkload ramdisk(memory.PageCount(), 0.5, /*seed=*/5);
  ramdisk.Fill(memory);
  DirtySnapshot snapshot(memory);
  ramdisk.UpdateFraction(memory, 1.0);
  for (const PageId page : snapshot.DirtyPages(memory)) {
    EXPECT_LT(page, ramdisk.FirstPage() + ramdisk.PageSpan());
  }
}

TEST(PageRemapWorkload, PreservesContentMultiset) {
  GuestMemory memory(MiB(16), ContentMode::kSeedOnly);
  Xoshiro256 rng(1);
  MemoryProfile{}.Apply(memory, rng);

  std::multiset<std::uint64_t> before;
  for (PageId p = 0; p < memory.PageCount(); ++p) {
    before.insert(memory.Seed(p));
  }

  PageRemapWorkload workload(50.0, /*seed=*/9);
  workload.Advance(memory, Seconds(10.0));

  std::multiset<std::uint64_t> after;
  for (PageId p = 0; p < memory.PageCount(); ++p) {
    after.insert(memory.Seed(p));
  }
  EXPECT_EQ(before, after);
  // ...but pages were dirtied (the Fig. 5 dirty-tracking overestimate).
  EXPECT_GT(memory.TotalWrites(), memory.PageCount());
}

TEST(CompositeWorkload, RunsAllParts) {
  GuestMemory memory(MiB(16), ContentMode::kSeedOnly);
  CompositeWorkload composite;
  composite.Add(std::make_unique<UniformRandomWorkload>(10.0, 1));
  composite.Add(std::make_unique<UniformRandomWorkload>(20.0, 2));
  composite.Advance(memory, Seconds(10.0));
  EXPECT_EQ(memory.TotalWrites(), 300u);
}

// --- Per-page write counts vs the per-write loop. ---
//
// Idle, Uniform and Hotspot workloads draw how many of an interval's
// writes land on each page and apply each page's count as a WriteBurst.
// The reference below is the per-write loop they replaced: one page draw
// and one WritePage per write. Both must agree in distribution on what
// the rest of the simulator can observe — which pages are dirty, how
// many writes each took — and exactly on the write totals.

enum class Writer { kIdle, kUniform, kHotspot };

constexpr std::uint64_t kEquivPages = 1024;  // 4 MiB
constexpr std::uint64_t kEquivHotPages = 256;

std::unique_ptr<Workload> MakeWriter(Writer writer, double hot_probability,
                                     double rate, std::uint64_t seed) {
  switch (writer) {
    case Writer::kIdle:
      return std::make_unique<IdleWorkload>(IdleWorkload::Config{
          .write_rate_pages_per_s = rate,
          .hot_region_pages = kEquivHotPages,
          .seed = seed});
    case Writer::kUniform:
      return std::make_unique<UniformRandomWorkload>(rate, seed);
    case Writer::kHotspot:
      return std::make_unique<HotspotWorkload>(HotspotWorkload::Config{
          .write_rate_pages_per_s = rate,
          .hot_fraction = static_cast<double>(kEquivHotPages) / kEquivPages,
          .hot_probability = hot_probability,
          .seed = seed});
  }
  return nullptr;
}

std::uint64_t ReferenceFreshSeed(Xoshiro256& rng) {
  std::uint64_t s;
  do {
    s = rng.Next() & ~(1ull << 63);
  } while (s == kZeroPageSeed);
  return s;
}

/// The per-write loop: `writes` single-page writes, exactly as the
/// workloads applied them before per-page counts.
void ReferenceWrites(Writer writer, double hot_probability,
                     std::uint64_t writes, Xoshiro256& rng,
                     GuestMemory& memory) {
  const std::uint64_t n = memory.PageCount();
  for (std::uint64_t i = 0; i < writes; ++i) {
    PageId page = 0;
    switch (writer) {
      case Writer::kIdle:
        page = rng.NextBelow(kEquivHotPages);
        break;
      case Writer::kUniform:
        page = rng.NextBelow(n);
        break;
      case Writer::kHotspot:
        page = rng.NextBool(hot_probability) ? rng.NextBelow(kEquivHotPages)
                                             : rng.NextBelow(n);
        break;
    }
    memory.WritePage(page, ReferenceFreshSeed(rng));
  }
}

/// What one interval's writes look like from outside the workload.
struct WriteShape {
  double touched = 0;      ///< pages with a nonzero generation
  double hot_share = 0;    ///< fraction of those below kEquivHotPages
  double max_count = 0;    ///< largest per-page write count
};

struct Moments {
  double mean = 0;
  double variance = 0;
};

Moments MomentsOf(const std::vector<double>& xs) {
  Moments m;
  for (const double x : xs) m.mean += x;
  m.mean /= static_cast<double>(xs.size());
  for (const double x : xs) m.variance += (x - m.mean) * (x - m.mean);
  m.variance /= static_cast<double>(xs.size() - 1);
  return m;
}

WriteShape ShapeOf(const GuestMemory& memory) {
  WriteShape shape;
  std::uint64_t hot = 0;
  for (PageId page = 0; page < memory.PageCount(); ++page) {
    const std::uint64_t count = memory.Generation(page);
    if (count == 0) continue;
    shape.touched += 1;
    if (page < kEquivHotPages) ++hot;
    shape.max_count = std::max(shape.max_count, static_cast<double>(count));
  }
  shape.hot_share = shape.touched > 0 ? static_cast<double>(hot) / shape.touched
                                      : 0.0;
  return shape;
}

/// Means agree within 5 standard errors of their difference (plus a
/// small floor for near-constant statistics); variances within 2x.
void ExpectSameDistribution(const std::vector<double>& fast,
                            const std::vector<double>& reference,
                            const char* what) {
  const Moments f = MomentsOf(fast);
  const Moments r = MomentsOf(reference);
  const double se =
      std::sqrt((f.variance + r.variance) / static_cast<double>(fast.size()));
  EXPECT_NEAR(f.mean, r.mean, 5.0 * se + 1e-3 * std::fabs(r.mean) + 1e-9)
      << what;
  if (r.variance > 1e-6 || f.variance > 1e-6) {
    EXPECT_GT(f.variance, 0.5 * r.variance) << what;
    EXPECT_LT(f.variance, 2.0 * r.variance) << what;
  }
}

struct EquivalenceCase {
  Writer writer;
  double hot_probability;
  std::uint64_t writes;
};

class PageWriteCounts : public ::testing::TestWithParam<EquivalenceCase> {};

TEST_P(PageWriteCounts, MatchThePerWriteLoopInDistribution) {
  const auto [writer, hot_probability, writes] = GetParam();
  constexpr int kSeeds = 240;
  std::vector<double> touched[2], hot_share[2], max_count[2];
  for (int seed = 1; seed <= kSeeds; ++seed) {
    // Per-page counts through the workload.
    GuestMemory fast(Pages(kEquivPages), ContentMode::kSeedOnly);
    MakeWriter(writer, hot_probability, static_cast<double>(writes),
               static_cast<std::uint64_t>(seed))
        ->Advance(fast, Seconds(1.0));
    // Exact invariants: the write total, the per-page generation deltas,
    // and the region the writes may land in.
    ASSERT_EQ(fast.TotalWrites(), writes);
    std::uint64_t generation_sum = 0;
    for (PageId page = 0; page < fast.PageCount(); ++page) {
      const std::uint64_t delta = fast.Generation(page);
      generation_sum += delta;
      const bool confined = writer == Writer::kIdle ||
                            (writer == Writer::kHotspot &&
                             hot_probability == 1.0);
      if (confined && page >= kEquivHotPages) {
        ASSERT_EQ(delta, 0u) << "page " << page << " outside the region";
      }
      ASSERT_EQ(delta == 0, fast.Seed(page) == kZeroPageSeed);
    }
    ASSERT_EQ(generation_sum, writes);

    GuestMemory reference(Pages(kEquivPages), ContentMode::kSeedOnly);
    Xoshiro256 rng(static_cast<std::uint64_t>(seed) + 0x5eed0000);
    ReferenceWrites(writer, hot_probability, writes, rng, reference);

    int i = 0;
    for (const GuestMemory* memory : {&fast, &reference}) {
      const WriteShape shape = ShapeOf(*memory);
      touched[i].push_back(shape.touched);
      hot_share[i].push_back(shape.hot_share);
      max_count[i].push_back(shape.max_count);
      ++i;
    }
  }
  ExpectSameDistribution(touched[0], touched[1], "touched pages");
  ExpectSameDistribution(hot_share[0], hot_share[1], "hot-region share");
  ExpectSameDistribution(max_count[0], max_count[1], "max per-page writes");
}

std::string EquivalenceCaseName(
    const ::testing::TestParamInfo<EquivalenceCase>& info) {
  std::string name = info.param.writer == Writer::kIdle      ? "idle"
                     : info.param.writer == Writer::kUniform ? "uniform"
                                                             : "hotspot";
  return name + "_p" +
         std::to_string(static_cast<int>(info.param.hot_probability * 100)) +
         "_w" + std::to_string(info.param.writes);
}

// Sparse: fewer writes than the region has pages (pages drawn directly).
// Dense: several to many writes per page (conditional binomials).
INSTANTIATE_TEST_SUITE_P(
    Writers, PageWriteCounts,
    ::testing::Values(EquivalenceCase{Writer::kIdle, 0.0, 100},
                      EquivalenceCase{Writer::kIdle, 0.0, 768},
                      EquivalenceCase{Writer::kIdle, 0.0, 20000},
                      EquivalenceCase{Writer::kUniform, 0.0, 300},
                      EquivalenceCase{Writer::kUniform, 0.0, 3000},
                      EquivalenceCase{Writer::kUniform, 0.0, 40000},
                      EquivalenceCase{Writer::kHotspot, 0.0, 300},
                      EquivalenceCase{Writer::kHotspot, 0.0, 20000},
                      EquivalenceCase{Writer::kHotspot, 0.9, 200},
                      EquivalenceCase{Writer::kHotspot, 0.9, 1500},
                      EquivalenceCase{Writer::kHotspot, 0.9, 20000},
                      EquivalenceCase{Writer::kHotspot, 1.0, 200},
                      EquivalenceCase{Writer::kHotspot, 1.0, 20000}),
    EquivalenceCaseName);

TEST(PageWriteCounts, TotalWritesFollowTheRateAcrossUnevenSteps) {
  // Millisecond-scale steps as pre-copy rounds take them: the fractional
  // carry must add up to exactly the per-step floor sum.
  constexpr double kRate = 1234.5;
  for (const Writer writer :
       {Writer::kIdle, Writer::kUniform, Writer::kHotspot}) {
    GuestMemory memory(Pages(kEquivPages), ContentMode::kSeedOnly);
    auto workload = MakeWriter(writer, 0.9, kRate, 17);
    double carry = 0.0;
    std::uint64_t expected = 0;
    for (int step = 0; step < 500; ++step) {
      const SimDuration dt = Milliseconds(3.7 + 0.013 * step);
      const double exact = kRate * ToSeconds(dt) + carry;
      const double whole = std::floor(exact);
      carry = exact - whole;
      expected += static_cast<std::uint64_t>(whole);
      workload->Advance(memory, dt);
      ASSERT_EQ(memory.TotalWrites(), expected);
    }
  }
}

}  // namespace
}  // namespace vecycle::vm
