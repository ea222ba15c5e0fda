#include "vm/guest_memory.hpp"

#include <algorithm>
#include <array>
#include <cstring>

#include "common/check.hpp"
#include "digest/digest_memo.hpp"
#include "digest/hasher.hpp"
#include "digest/md5_lanes.hpp"

namespace vecycle::vm {

void MaterializePage(std::uint64_t seed, std::span<std::byte> out) {
  VEC_CHECK(out.size() == kPageSize);
  if (seed == kZeroPageSeed) {
    std::memset(out.data(), 0, out.size());
    return;
  }
  Xoshiro256 rng(seed);
  auto* p = out.data();
  for (std::size_t i = 0; i < kPageSize; i += 8) {
    const std::uint64_t word = rng.Next();
    std::memcpy(p + i, &word, 8);
  }
}

namespace {

Digest128 SeedModeDigest(DigestAlgorithm algorithm, std::uint64_t seed) {
  // Odd multiplier: distinct algorithms give distinct salts.
  const std::uint64_t salt =
      (static_cast<std::uint64_t>(algorithm) + 1) * 0x9e3779b97f4a7c15ull;
  return Digest128::FromWords(SplitMix64(seed + 1).Next(),
                              SplitMix64(seed ^ salt).Next());
}

// ContentDigests works through its seeds in blocks of this many: a
// block's memo probes are prefetched together and its misses hashed
// kMd5Lanes at a time. A source round-scan batch (batch_pages, 256 by
// default) is one block.
constexpr std::size_t kDigestBlock = 256;

/// One thread's scratch for ContentDigests' materialized path: a block's
/// distinct seeds in first-occurrence order, where each first occurs,
/// each position's index among them, a small open-addressing table
/// (index + 1; 0 = free) that finds them, their digests, and the lane
/// buffer of kMd5Lanes page images the misses expand into. Per thread,
/// like SeedDigestMemo, so a call allocates nothing.
struct DigestScratch {
  std::array<std::uint64_t, kDigestBlock> distinct{};
  std::array<std::uint16_t, kDigestBlock> first_at{};
  std::array<std::uint16_t, kDigestBlock> index_of{};
  std::array<std::uint16_t, 2 * kDigestBlock> table{};
  std::array<Digest128, kDigestBlock> digests{};
  std::array<bool, kDigestBlock> found{};
  std::array<std::uint64_t, kDigestBlock> miss_seeds{};
  std::array<Digest128, kDigestBlock> miss_digests{};
  std::array<std::byte, kMd5Lanes * kPageSize> images{};
};

/// Expands and hashes `seeds` into `out` through `images`. MD5 runs
/// kMd5Lanes pages at a time through the lane kernel; the other
/// algorithms hash one image at a time.
void HashImages(DigestAlgorithm algorithm,
                std::span<const std::uint64_t> seeds,
                std::span<Digest128> out,
                std::span<std::byte, kMd5Lanes * kPageSize> images) {
  if (algorithm != DigestAlgorithm::kMd5) {
    const auto image = images.first(kPageSize);
    for (std::size_t i = 0; i < seeds.size(); ++i) {
      MaterializePage(seeds[i], image);
      out[i] = ComputeDigest(algorithm, image);
    }
    return;
  }
  for (std::size_t group = 0; group < seeds.size(); group += kMd5Lanes) {
    const std::size_t count = std::min(kMd5Lanes, seeds.size() - group);
    for (std::size_t l = 0; l < count; ++l) {
      MaterializePage(seeds[group + l],
                      images.subspan(l * kPageSize, kPageSize));
    }
    Md5Lanes(images.first(count * kPageSize), kPageSize,
             out.subspan(group, count));
  }
}

}  // namespace

Digest128 ContentDigest(ContentMode mode, DigestAlgorithm algorithm,
                        std::uint64_t seed) {
  if (mode == ContentMode::kSeedOnly) return SeedModeDigest(algorithm, seed);
  auto& memo = SeedDigestMemo::Instance();
  if (const auto hit = memo.Find(algorithm, seed)) return *hit;
  std::array<std::byte, kPageSize> image{};
  MaterializePage(seed, image);
  const Digest128 digest = ComputeDigest(algorithm, image);
  memo.Store(algorithm, seed, digest);
  return digest;
}

void ContentDigests(ContentMode mode, DigestAlgorithm algorithm,
                    std::span<const std::uint64_t> seeds,
                    std::span<Digest128> out) {
  VEC_CHECK_MSG(out.size() == seeds.size(),
                "ContentDigests: one output per seed");
  if (mode == ContentMode::kSeedOnly) {
    for (std::size_t i = 0; i < seeds.size(); ++i) {
      out[i] = SeedModeDigest(algorithm, seeds[i]);
    }
    return;
  }
  auto& memo = SeedDigestMemo::Instance();
  thread_local DigestScratch scratch;
  auto& [distinct, first_at, index_of, table, digests, found, miss_seeds,
         miss_digests, images] = scratch;
  for (std::size_t base = 0; base < seeds.size(); base += kDigestBlock) {
    const std::size_t n = std::min(kDigestBlock, seeds.size() - base);
    table.fill(0);
    std::size_t unique = 0;
    for (std::size_t i = 0; i < n; ++i) {
      const std::uint64_t seed = seeds[base + i];
      std::size_t h = (seed * 0x9e3779b97f4a7c15ull) >> 55;  // 512 slots
      while (table[h] != 0 && distinct[table[h] - 1u] != seed) {
        h = (h + 1) % table.size();
      }
      if (table[h] == 0) {
        distinct[unique] = seed;
        first_at[unique] = static_cast<std::uint16_t>(i);
        table[h] = static_cast<std::uint16_t>(++unique);
      }
      index_of[i] = static_cast<std::uint16_t>(table[h] - 1u);
    }

    memo.FindMany(algorithm, std::span(distinct).first(unique),
                  std::span(digests).first(unique),
                  std::span(found).first(unique));
    std::size_t misses = 0;
    for (std::size_t k = 0; k < unique; ++k) {
      if (!found[k]) miss_seeds[misses++] = distinct[k];
    }
    HashImages(algorithm, std::span(miss_seeds).first(misses),
               std::span(miss_digests).first(misses), images);
    // Stored in first-occurrence order, as the per-seed loop stores them,
    // so a memo nearing kMaxEntries keeps the same entries.
    for (std::size_t k = 0, m = 0; k < unique; ++k) {
      if (found[k]) continue;
      digests[k] = miss_digests[m++];
      memo.Store(algorithm, distinct[k], digests[k]);
    }

    for (std::size_t i = 0; i < n; ++i) {
      const std::size_t k = index_of[i];
      out[base + i] = digests[k];
      // A repeat is probed only now, after its first occurrence was
      // stored, so it hits or misses (memo full) exactly as it would in
      // the per-seed Find-then-Store loop.
      if (first_at[k] != i) {
        static_cast<void>(memo.Find(algorithm, seeds[base + i]));
      }
    }
  }
}

GuestMemory::GuestMemory(Bytes ram_size, ContentMode mode,
                         DigestAlgorithm algorithm)
    : mode_(mode), algorithm_(algorithm) {
  VEC_CHECK_MSG(ram_size.count % kPageSize == 0,
                "RAM size must be page-aligned");
  const std::uint64_t pages = ram_size.count / kPageSize;
  VEC_CHECK_MSG(pages > 0, "empty guest memory");
  seeds_.assign(pages, kZeroPageSeed);
  generations_.assign(pages, 0);
}

void GuestMemory::CheckPage(PageId page) const {
  VEC_CHECK_MSG(page < seeds_.size(), "page id out of range");
}

std::uint64_t GuestMemory::Seed(PageId page) const {
  CheckPage(page);
  return seeds_[page];
}

void GuestMemory::WriteBurst(PageId page, std::uint64_t count,
                             std::uint64_t content_seed) {
  CheckPage(page);
  if (count == 0) return;
  seeds_[page] = content_seed;
  generations_[page] += count;
  total_writes_ += count;
}

void GuestMemory::CopyPage(PageId from, PageId to) {
  CheckPage(from);
  WritePage(to, seeds_[from]);
}

std::uint64_t GuestMemory::Generation(PageId page) const {
  CheckPage(page);
  return generations_[page];
}

void GuestMemory::SetGenerations(std::vector<std::uint64_t> generations) {
  VEC_CHECK_MSG(generations.size() == seeds_.size(),
                "generation vector does not match memory geometry");
  generations_ = std::move(generations);
}

Digest128 GuestMemory::PageDigest(PageId page) const {
  CheckPage(page);
  return ContentDigest(mode_, algorithm_, seeds_[page]);
}

void GuestMemory::PageDigests(std::span<const PageId> pages,
                              std::span<Digest128> out) const {
  VEC_CHECK_MSG(out.size() == pages.size(),
                "PageDigests: one output per page");
  std::array<std::uint64_t, kDigestBlock> seeds{};
  for (std::size_t base = 0; base < pages.size(); base += kDigestBlock) {
    const std::size_t n = std::min(kDigestBlock, pages.size() - base);
    for (std::size_t i = 0; i < n; ++i) {
      CheckPage(pages[base + i]);
      seeds[i] = seeds_[pages[base + i]];
    }
    ContentDigests(mode_, algorithm_, std::span(seeds).first(n),
                   out.subspan(base, n));
  }
}

std::uint64_t GuestMemory::ContentHash64(PageId page) const {
  CheckPage(page);
  return ContentDigest(ContentMode::kSeedOnly, algorithm_, seeds_[page])
      .words[0];
}

void GuestMemory::ReadPage(PageId page, std::span<std::byte> out) const {
  CheckPage(page);
  MaterializePage(seeds_[page], out);
}

bool GuestMemory::ContentEquals(const GuestMemory& other) const {
  if (PageCount() != other.PageCount()) return false;
  // Seeds are the ground truth for content in both modes.
  return seeds_ == other.seeds_;
}

std::uint64_t GuestMemory::ContentFingerprint() const {
  // Order-sensitive mix over the seed vector. Seeds are content identity
  // in both modes, so two memories fingerprint equal iff every page's
  // content matches — the cheap whole-image digest the audit layer
  // compares after a migration.
  std::uint64_t fingerprint = 0x9e3779b97f4a7c15ull;
  for (const auto seed : seeds_) {
    fingerprint = SplitMix64(fingerprint ^ seed).Next();
  }
  return fingerprint;
}

std::uint64_t GuestMemory::CountZeroPages() const {
  std::uint64_t zeros = 0;
  for (const auto seed : seeds_) {
    if (seed == kZeroPageSeed) ++zeros;
  }
  return zeros;
}

void MemoryProfile::Apply(GuestMemory& memory, Xoshiro256& rng) const {
  VEC_CHECK_MSG(zero_fraction >= 0.0 && duplicate_fraction >= 0.0,
                "memory profile fractions must be non-negative");
  VEC_CHECK_MSG(zero_fraction + duplicate_fraction <= 1.0,
                "memory profile fractions exceed 100%");
  VEC_CHECK(duplicate_pool_size > 0);

  // Distinct contents for the duplicate pool. High bit set partitions them
  // away from the unique-content seed space below.
  std::vector<std::uint64_t> pool(duplicate_pool_size);
  for (auto& s : pool) s = rng.Next() | (1ull << 63);

  const std::uint64_t n = memory.PageCount();
  for (PageId page = 0; page < n; ++page) {
    const double coin = rng.NextDouble();
    if (coin < zero_fraction) {
      memory.WritePage(page, kZeroPageSeed);
    } else if (coin < zero_fraction + duplicate_fraction) {
      memory.WritePage(page, pool[rng.NextBelow(pool.size())]);
    } else {
      memory.WritePage(page, rng.Next() & ~(1ull << 63));
    }
  }
}

}  // namespace vecycle::vm
