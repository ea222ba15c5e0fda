#include "vm/guest_memory.hpp"

#include <cstring>

#include "common/check.hpp"
#include "digest/digest_memo.hpp"
#include "digest/hasher.hpp"

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

GuestMemory::GuestMemory(Bytes ram_size, ContentMode mode,
                         DigestAlgorithm algorithm)
    : mode_(mode), algorithm_(algorithm) {
  VEC_CHECK_MSG(ram_size.count % kPageSize == 0,
                "RAM size must be page-aligned");
  const std::uint64_t pages = ram_size.count / kPageSize;
  VEC_CHECK_MSG(pages > 0, "empty guest memory");
  seeds_.assign(pages, kZeroPageSeed);
  generations_.assign(pages, 0);
  if (mode_ == ContentMode::kMaterialized) {
    backing_.assign(pages * kPageSize, std::byte{0});
  }
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
  if (mode_ == ContentMode::kMaterialized) {
    MaterializePage(content_seed,
                    std::span<std::byte>(backing_.data() + page * kPageSize,
                                         kPageSize));
  }
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
  // Content is untouched, so digests cached at the *current* counter stay
  // correct — but their keys reference the outgoing counters. Re-stamp
  // only those still-valid entries onto the new counters (keeping the
  // cache warm across a migration handoff, where the destination adopts
  // the source's counters). Entries cached at an older generation and
  // already invalidated by a later write must be dropped, not re-stamped:
  // re-stamping would resurrect a digest of overwritten content.
  if (!digest_cache_key_.empty()) {
    for (std::size_t i = 0; i < generations.size(); ++i) {
      digest_cache_key_[i] = digest_cache_key_[i] == generations_[i] + 1
                                 ? generations[i] + 1
                                 : 0;
    }
  }
  if (!hash64_cache_key_.empty()) {
    for (std::size_t i = 0; i < generations.size(); ++i) {
      hash64_cache_key_[i] = hash64_cache_key_[i] == generations_[i] + 1
                                 ? generations[i] + 1
                                 : 0;
    }
  }
  generations_ = std::move(generations);
}

void GuestMemory::SetDigestCacheEnabled(bool enabled) {
  cache_enabled_ = enabled;
  if (!enabled) {
    digest_cache_.clear();
    digest_cache_.shrink_to_fit();
    digest_cache_key_.clear();
    digest_cache_key_.shrink_to_fit();
    hash64_cache_.clear();
    hash64_cache_.shrink_to_fit();
    hash64_cache_key_.clear();
    hash64_cache_key_.shrink_to_fit();
  }
}

Digest128 GuestMemory::ComputePageDigest(PageId page) const {
  const std::uint64_t seed = seeds_[page];
  const auto flavor = mode_ == ContentMode::kMaterialized
                          ? SeedDigestMemo::Flavor::kMaterialized
                          : SeedDigestMemo::Flavor::kSeedBytes;
  if (cache_enabled_) {
    // Page content is a pure function of the seed in both modes, so the
    // process-wide memo applies; it is what lets a fresh destination
    // memory skip re-hashing content some other object already hashed.
    if (const auto hit =
            SeedDigestMemo::Instance().Find(algorithm_, flavor, seed)) {
      return *hit;
    }
  }
  Digest128 digest;
  if (mode_ == ContentMode::kMaterialized) {
    digest = ComputeDigest(algorithm_, backing_.data() + page * kPageSize,
                           kPageSize);
  } else {
    digest = ComputeDigest(algorithm_, &seed, sizeof(seed));
  }
  if (cache_enabled_) {
    SeedDigestMemo::Instance().Store(algorithm_, flavor, seed, digest);
  }
  return digest;
}

Digest128 GuestMemory::PageDigest(PageId page) const {
  CheckPage(page);
  if (!cache_enabled_) return ComputePageDigest(page);
  if (digest_cache_key_.empty()) {
    digest_cache_.resize(seeds_.size());
    digest_cache_key_.assign(seeds_.size(), 0);
  }
  const std::uint64_t key = generations_[page] + 1;
  if (digest_cache_key_[page] == key) {
    ++cache_hits_;
    return digest_cache_[page];
  }
  ++cache_misses_;
  const Digest128 digest = ComputePageDigest(page);
  digest_cache_[page] = digest;
  digest_cache_key_[page] = key;
  return digest;
}

std::uint64_t GuestMemory::ContentHash64(PageId page) const {
  CheckPage(page);
  // SplitMix64 of the seed: a perfect (bijective) 64-bit mixer, so distinct
  // seeds can never collide, and identical content always matches. The +1
  // keeps the zero page away from SplitMix64(0)'s fixed structure.
  if (!cache_enabled_) return SplitMix64(seeds_[page] + 1).Next();
  if (hash64_cache_key_.empty()) {
    hash64_cache_.resize(seeds_.size());
    hash64_cache_key_.assign(seeds_.size(), 0);
  }
  const std::uint64_t key = generations_[page] + 1;
  if (hash64_cache_key_[page] == key) return hash64_cache_[page];
  const std::uint64_t hash = SplitMix64(seeds_[page] + 1).Next();
  hash64_cache_[page] = hash;
  hash64_cache_key_[page] = key;
  return hash;
}

void GuestMemory::ReadPage(PageId page, std::span<std::byte> out) const {
  CheckPage(page);
  VEC_CHECK(out.size() == kPageSize);
  if (mode_ == ContentMode::kMaterialized) {
    std::memcpy(out.data(), backing_.data() + page * kPageSize, kPageSize);
  } else {
    MaterializePage(seeds_[page], out);
  }
}

std::span<const std::byte> GuestMemory::PageBytes(PageId page) const {
  CheckPage(page);
  VEC_CHECK_MSG(mode_ == ContentMode::kMaterialized,
                "PageBytes requires materialized memory");
  return std::span<const std::byte>(backing_.data() + page * kPageSize,
                                    kPageSize);
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
