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
#include "digest/digest_memo.hpp"
#include "digest/hasher.hpp"
#include "digest/md5.hpp"
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

// Page images hashed by md5sum (GNU coreutils); these pin the MD5 kernel
// on whole 4 KiB pages, beyond the RFC 1321 suite in digest_test.
TEST(MaterializePage, Md5OfTheImageIsPinned) {
  std::array<std::byte, kPageSize> page;
  MaterializePage(55, page);
  EXPECT_EQ(Md5Digest(page).ToHex(), "b7922990d31be2a9c2e3f5b7d5bf5207");
}

TEST(MaterializePage, Md5OverUnevenUpdatesIsPinned) {
  std::array<std::byte, kPageSize> page;
  MaterializePage(0xfeed, page);
  // Chunks that start and end mid-block, fill it exactly, and span it.
  constexpr std::array<std::size_t, 8> kChunks = {1, 63, 64, 65,
                                                  7, 127, 128, 500};
  Md5 md5;
  std::size_t offset = 0;
  for (std::size_t i = 0; offset < page.size(); ++i) {
    const std::size_t len =
        std::min(kChunks[i % kChunks.size()], page.size() - offset);
    md5.Update(std::span<const std::byte>(page).subspan(offset, len));
    offset += len;
  }
  EXPECT_EQ(md5.Finalize().ToHex(), "558b988e34f8efc28cd53b35bc7f74c2");
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
  std::array<std::byte, kPageSize> expected;
  std::array<std::byte, kPageSize> read;
  MaterializePage(77, expected);
  memory.ReadPage(5, read);
  EXPECT_EQ(read, expected);
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
  std::array<std::byte, kPageSize> expected;
  std::array<std::byte, kPageSize> read;
  MaterializePage(4242, expected);
  memory.ReadPage(3, read);
  EXPECT_EQ(read, expected);
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
  // It is the high word of the seed-mode content identity.
  EXPECT_EQ(seeded.ContentHash64(0),
            ContentDigest(ContentMode::kSeedOnly, DigestAlgorithm::kSha1, 77)
                .words[0]);
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
  // The page's bytes are those its seed expands to, and only a write
  // changes them.
  GuestMemory memory(MiB(1), ContentMode::kMaterialized);
  memory.WritePage(4, 99);
  std::array<std::byte, kPageSize> expected;
  std::array<std::byte, kPageSize> first;
  std::array<std::byte, kPageSize> second;
  MaterializePage(99, expected);
  memory.ReadPage(4, first);
  memory.WritePage(5, 100);
  memory.ReadPage(4, second);
  EXPECT_EQ(first, expected);
  EXPECT_EQ(second, expected);
  EXPECT_THROW(memory.ReadPage(4, std::span<std::byte>(first).first(8)),
               CheckFailure);
}

TEST(GuestMemory, MaterializedMemoryHoldsNoPageImages) {
  // 2 Mi pages: 32 MiB of seeds and generations, no 8 GiB of bytes.
  GuestMemory memory(GiB(8), ContentMode::kMaterialized);
  const PageId last = memory.PageCount() - 1;
  memory.WritePage(last, 55);
  EXPECT_EQ(memory.PageDigest(last).ToHex(),
            "b7922990d31be2a9c2e3f5b7d5bf5207");
  EXPECT_EQ(memory.CountZeroPages(), memory.PageCount() - 1);
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

// --- Page content identity (ContentDigest). ---

/// Independent recomputation of what PageDigest must return, from the
/// spec rather than the library: the real digest of the expanded bytes
/// in materialized mode; in seed mode the SplitMix64 pair — (seed + 1)
/// in the high word, the algorithm-salted seed in the low word.
Digest128 HonestDigest(const GuestMemory& memory, PageId page) {
  const std::uint64_t seed = memory.Seed(page);
  if (memory.Mode() == ContentMode::kMaterialized) {
    std::array<std::byte, kPageSize> bytes;
    MaterializePage(seed, bytes);
    return ComputeDigest(memory.Algorithm(), bytes.data(), bytes.size());
  }
  const std::uint64_t salt =
      (static_cast<std::uint64_t>(memory.Algorithm()) + 1) *
      0x9e3779b97f4a7c15ull;
  return Digest128::FromWords(SplitMix64(seed + 1).Next(),
                              SplitMix64(seed ^ salt).Next());
}

constexpr std::array<ContentMode, 2> kModes = {ContentMode::kSeedOnly,
                                               ContentMode::kMaterialized};

TEST(ContentDigest, SeedModeIsInjectiveAndSeparatesAlgorithms) {
  constexpr std::array<DigestAlgorithm, 4> kAlgorithms = {
      DigestAlgorithm::kMd5, DigestAlgorithm::kSha1, DigestAlgorithm::kSha256,
      DigestAlgorithm::kFnv1a};
  // Zero, small consecutive seeds, both halves of MemoryProfile's seed
  // space (high bit clear/set), and the extremes.
  std::vector<std::uint64_t> seeds = {kZeroPageSeed, ~0ull, 1ull << 63};
  for (std::uint64_t s = 1; s <= 2048; ++s) seeds.push_back(s);
  Xoshiro256 rng(0x5eed);
  for (int i = 0; i < 8192; ++i) seeds.push_back(rng.Next());

  std::set<Digest128> all;
  for (const auto seed : seeds) {
    for (const auto algorithm : kAlgorithms) {
      const auto digest =
          ContentDigest(ContentMode::kSeedOnly, algorithm, seed);
      EXPECT_EQ(digest.words[0], SplitMix64(seed + 1).Next());
      all.insert(digest);
    }
  }
  // Every (seed, algorithm) pair named distinct content.
  EXPECT_EQ(all.size(), seeds.size() * kAlgorithms.size());
}

TEST(ContentDigest, PageDigestFollowsTheSpecInBothModes) {
  for (const auto mode : kModes) {
    GuestMemory memory(MiB(1), mode);
    Xoshiro256 rng(0xcafe);
    for (PageId p = 0; p < memory.PageCount(); ++p) {
      memory.WritePage(p, rng.Next());
    }
    for (PageId p = 0; p < memory.PageCount(); ++p) {
      EXPECT_EQ(memory.PageDigest(p), HonestDigest(memory, p));
      EXPECT_EQ(memory.PageDigest(p),
                ContentDigest(mode, memory.Algorithm(), memory.Seed(p)));
    }
  }
}

TEST(ContentDigest, MaterializedMemoIsInvisible) {
  // A cold memo hashes (the caller's bytes, or bytes expanded from the
  // seed); a warm one answers from the table. Both must agree with real
  // MD5 over the page image.
  GuestMemory memory(MiB(1), ContentMode::kMaterialized);
  memory.WritePage(0, 0xfeed);
  SeedDigestMemo::Instance().Clear();
  const auto from_seed = ContentDigest(ContentMode::kMaterialized,
                                       DigestAlgorithm::kMd5, 0xfeed);
  SeedDigestMemo::Instance().Clear();
  const auto from_bytes = memory.PageDigest(0);
  const auto warm = memory.PageDigest(0);
  EXPECT_EQ(SeedDigestMemo::Instance().Hits(), 1u);
  EXPECT_EQ(from_seed, HonestDigest(memory, 0));
  EXPECT_EQ(from_bytes, HonestDigest(memory, 0));
  EXPECT_EQ(warm, HonestDigest(memory, 0));
}

// --- ContentDigests: the batch form of ContentDigest. ---

constexpr std::array<DigestAlgorithm, 4> kAllAlgorithms = {
    DigestAlgorithm::kMd5, DigestAlgorithm::kSha1, DigestAlgorithm::kSha256,
    DigestAlgorithm::kFnv1a};

/// What one pass over a seed list produced and did to the memo.
struct DigestPass {
  std::vector<Digest128> digests;
  std::uint64_t hits = 0;
  std::uint64_t misses = 0;
  std::uint64_t size = 0;  // memo entries afterwards
};

DigestPass PerSeedPass(ContentMode mode, DigestAlgorithm algorithm,
                       const std::vector<std::uint64_t>& seeds) {
  auto& memo = SeedDigestMemo::Instance();
  const std::uint64_t hits = memo.Hits();
  const std::uint64_t misses = memo.Misses();
  DigestPass pass;
  for (const auto seed : seeds) {
    pass.digests.push_back(ContentDigest(mode, algorithm, seed));
  }
  pass.hits = memo.Hits() - hits;
  pass.misses = memo.Misses() - misses;
  pass.size = memo.Size();
  return pass;
}

DigestPass BatchPass(ContentMode mode, DigestAlgorithm algorithm,
                     const std::vector<std::uint64_t>& seeds) {
  auto& memo = SeedDigestMemo::Instance();
  const std::uint64_t hits = memo.Hits();
  const std::uint64_t misses = memo.Misses();
  DigestPass pass;
  pass.digests.resize(seeds.size());
  ContentDigests(mode, algorithm, seeds, pass.digests);
  pass.hits = memo.Hits() - hits;
  pass.misses = memo.Misses() - misses;
  pass.size = memo.Size();
  return pass;
}

/// Zero-page seeds, seeds repeated within a 256-seed block and across
/// blocks, and unique seeds, over three blocks and a partial one.
std::vector<std::uint64_t> MixedSeeds() {
  std::vector<std::uint64_t> seeds;
  Xoshiro256 rng(0xba7c4);
  for (int i = 0; i < 700; ++i) {
    const std::uint64_t coin = rng.NextBelow(10);
    if (coin == 0) {
      seeds.push_back(kZeroPageSeed);
    } else if (coin <= 2) {
      seeds.push_back(0x1000 + rng.NextBelow(16));  // a small pool
    } else if (coin == 3 && !seeds.empty()) {
      seeds.push_back(seeds[rng.NextBelow(seeds.size())]);
    } else {
      seeds.push_back(rng.Next());
    }
  }
  return seeds;
}

/// The memo a pass starts from: cold, warmed by the per-seed path over
/// every third seed, or holding kMaxEntries (or five fewer) unrelated
/// entries.
enum class MemoState { kCold, kWarm, kFull, kNearlyFull };

void ExpectBatchMatchesPerSeed(MemoState state) {
  const auto seeds = MixedSeeds();
  auto& memo = SeedDigestMemo::Instance();
  memo.Clear();
  if (state == MemoState::kFull || state == MemoState::kNearlyFull) {
    // Seeds no random draw in MixedSeeds will meet: they count toward
    // kMaxEntries but never answer the test's probes.
    const std::uint64_t fill = SeedDigestMemo::kMaxEntries -
                               (state == MemoState::kFull ? 0 : 5);
    for (std::uint64_t i = 0; i < fill; ++i) {
      memo.Store(DigestAlgorithm::kMd5, 0xf111000000000000ull + i,
                 Digest128::FromWords(i, i));
    }
    ASSERT_EQ(memo.Size(), fill);
  }
  const SeedDigestMemo start = memo;
  for (const auto mode : kModes) {
    for (const auto algorithm : kAllAlgorithms) {
      SCOPED_TRACE(::testing::Message()
                   << "mode " << static_cast<int>(mode) << " algorithm "
                   << ToString(algorithm));
      // Seed mode never touches the memo, so only materialized passes
      // need it reset to the start state.
      const auto prepare = [&] {
        if (mode == ContentMode::kSeedOnly) return;
        memo = start;
        if (state != MemoState::kWarm) return;
        for (std::size_t i = 0; i < seeds.size(); i += 3) {
          static_cast<void>(ContentDigest(mode, algorithm, seeds[i]));
        }
      };
      prepare();
      const DigestPass per_seed = PerSeedPass(mode, algorithm, seeds);
      prepare();
      const DigestPass batch = BatchPass(mode, algorithm, seeds);
      EXPECT_EQ(batch.digests, per_seed.digests);
      EXPECT_EQ(batch.hits, per_seed.hits);
      EXPECT_EQ(batch.misses, per_seed.misses);
      EXPECT_EQ(batch.size, per_seed.size);
      if (mode == ContentMode::kSeedOnly) {
        EXPECT_EQ(batch.hits + batch.misses, 0u);  // no memo in seed mode
      } else {
        EXPECT_EQ(batch.hits + batch.misses, seeds.size());
      }
    }
  }
  memo.Clear();
}

TEST(ContentDigests, MatchThePerSeedLoopOnAColdMemo) {
  ExpectBatchMatchesPerSeed(MemoState::kCold);
}

TEST(ContentDigests, MatchThePerSeedLoopOnAWarmMemo) {
  ExpectBatchMatchesPerSeed(MemoState::kWarm);
}

TEST(ContentDigests, MatchThePerSeedLoopOnAFullMemo) {
  // Store no longer records: every repeat of a missed seed misses again.
  ExpectBatchMatchesPerSeed(MemoState::kFull);
}

TEST(ContentDigests, MatchThePerSeedLoopOnAMemoThatFillsMidBatch) {
  // Only the first five distinct misses are recorded, in first-occurrence
  // order; repeats of later ones miss.
  ExpectBatchMatchesPerSeed(MemoState::kNearlyFull);
}

TEST(ContentDigests, EmptyAndZeroSeedBatches) {
  for (const auto mode : kModes) {
    ContentDigests(mode, DigestAlgorithm::kMd5, {}, {});
    const std::vector<std::uint64_t> zeros(300, kZeroPageSeed);
    SeedDigestMemo::Instance().Clear();
    const DigestPass batch = BatchPass(mode, DigestAlgorithm::kMd5, zeros);
    SeedDigestMemo::Instance().Clear();
    const DigestPass per_seed =
        PerSeedPass(mode, DigestAlgorithm::kMd5, zeros);
    EXPECT_EQ(batch.digests, per_seed.digests);
    EXPECT_EQ(batch.hits, per_seed.hits);
    EXPECT_EQ(batch.misses, per_seed.misses);
  }
  std::array<std::byte, kPageSize> zero_page{};
  EXPECT_EQ(ContentDigest(ContentMode::kMaterialized, DigestAlgorithm::kMd5,
                          kZeroPageSeed),
            Md5Digest(zero_page));
  SeedDigestMemo::Instance().Clear();
}

TEST(ContentDigests, MismatchedSpansThrow) {
  std::vector<std::uint64_t> seeds = {1, 2, 3};
  std::vector<Digest128> out(2);
  for (const auto mode : kModes) {
    EXPECT_THROW(ContentDigests(mode, DigestAlgorithm::kMd5, seeds, out),
                 CheckFailure);
  }
}

TEST(GuestMemory, PageDigestsMatchPageDigest) {
  for (const auto mode : kModes) {
    GuestMemory memory(MiB(2), mode);
    Xoshiro256 rng(0xd16e);
    MemoryProfile{}.Apply(memory, rng);
    std::vector<PageId> pages;
    for (PageId p = 0; p < memory.PageCount(); p += 1 + rng.NextBelow(3)) {
      pages.push_back(p);
    }
    pages.push_back(pages.front());  // repeats are allowed
    std::vector<Digest128> out(pages.size());
    SeedDigestMemo::Instance().Clear();
    memory.PageDigests(pages, out);
    for (std::size_t i = 0; i < pages.size(); ++i) {
      EXPECT_EQ(out[i], memory.PageDigest(pages[i]));
    }
    const std::vector<PageId> out_of_range = {memory.PageCount()};
    std::vector<Digest128> one(1);
    EXPECT_THROW(memory.PageDigests(out_of_range, one), CheckFailure);
  }
  SeedDigestMemo::Instance().Clear();
}

TEST(DigestCache, WritePageInvalidates) {
  for (const auto mode : kModes) {
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
  for (const auto mode : kModes) {
    GuestMemory memory(MiB(1), mode);
    memory.WritePage(0, 111);
    const auto before = memory.PageDigest(0);
    const auto hash_before = memory.ContentHash64(0);
    memory.WriteBurst(0, 5, 222);
    const auto after = memory.PageDigest(0);
    EXPECT_NE(before, after);
    EXPECT_EQ(after, HonestDigest(memory, 0));
    EXPECT_NE(memory.ContentHash64(0), hash_before);
  }
}

TEST(DigestCache, CopyPageInvalidatesDestination) {
  for (const auto mode : kModes) {
    GuestMemory memory(MiB(1), mode);
    memory.WritePage(0, 111);
    memory.WritePage(1, 222);
    const auto dest_before = memory.PageDigest(1);
    memory.CopyPage(0, 1);
    EXPECT_NE(memory.PageDigest(1), dest_before);
    EXPECT_EQ(memory.PageDigest(1), memory.PageDigest(0));
    EXPECT_EQ(memory.PageDigest(1), HonestDigest(memory, 1));
  }
}

TEST(DigestCache, SetGenerationsKeepsDigestsValid) {
  for (const auto mode : kModes) {
    GuestMemory memory(MiB(1), mode);
    memory.WritePage(0, 333);
    const auto digest = memory.PageDigest(0);
    std::vector<std::uint64_t> generations(memory.PageCount(), 0);
    memory.SetGenerations(generations);  // content untouched
    EXPECT_EQ(memory.PageDigest(0), digest);
    EXPECT_EQ(memory.PageDigest(0), HonestDigest(memory, 0));
  }
}

TEST(DigestCache, GenerationAliasingAfterSetGenerationsIsSafe) {
  // Digest a page at generation g, rewind the counters with
  // SetGenerations, then write until the counter climbs back to g: the
  // digest must follow the new content, not the counter.
  for (const auto mode : kModes) {
    GuestMemory memory(MiB(1), mode);
    memory.WritePage(0, 444);  // generation 1
    const auto stale = memory.PageDigest(0);
    std::vector<std::uint64_t> generations(memory.PageCount(), 0);
    memory.SetGenerations(generations);  // back to generation 0
    memory.WritePage(0, 555);            // generation 1 again, new content
    EXPECT_NE(memory.PageDigest(0), stale);
    EXPECT_EQ(memory.PageDigest(0), HonestDigest(memory, 0));
  }
}

TEST(DigestCache, SetGenerationsDropsEntriesStaledByEarlierWrites) {
  // The destination-side sequence of a checkpoint-assisted migration:
  // ApplyRecord digests the restored page for the in-place check, then
  // WritePage fetches the real content, then Finalize adopts the
  // source's generation counters. The digest must name the new content.
  for (const auto mode : kModes) {
    GuestMemory memory(MiB(1), mode);
    memory.WritePage(0, 666);  // generation 1
    const auto stale = memory.PageDigest(0);
    memory.WritePage(0, 777);  // generation 2
    std::vector<std::uint64_t> generations(memory.PageCount(), 5);
    memory.SetGenerations(generations);
    EXPECT_NE(memory.PageDigest(0), stale);
    EXPECT_EQ(memory.PageDigest(0), HonestDigest(memory, 0));
  }
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
