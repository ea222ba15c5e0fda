#include "digest/digest_memo.hpp"

#include "common/check.hpp"
#include "common/rng.hpp"

namespace vecycle {

namespace {
// +1 keeps every real tag away from 0, the free-slot marker.
std::uint16_t TagOf(DigestAlgorithm algorithm) {
  return static_cast<std::uint16_t>(static_cast<unsigned>(algorithm) + 1);
}
}  // namespace

SeedDigestMemo& SeedDigestMemo::Instance() {
  thread_local SeedDigestMemo memo;
  return memo;
}

std::uint64_t SeedDigestMemo::ProbeStart(std::uint64_t seed,
                                         std::uint16_t tag) const {
  return SplitMix64(seed ^ (static_cast<std::uint64_t>(tag) << 48)).Next() &
         mask_;
}

const SeedDigestMemo::Slot* SeedDigestMemo::Lookup(std::uint64_t seed,
                                                   std::uint16_t tag) const {
  if (slots_.empty()) return nullptr;
  for (std::uint64_t i = ProbeStart(seed, tag);; i = (i + 1) & mask_) {
    const Slot& slot = slots_[i];
    if (slot.tag == 0) return nullptr;
    if (slot.tag == tag && slot.seed == seed) return &slot;
  }
}

std::optional<Digest128> SeedDigestMemo::Find(DigestAlgorithm algorithm,
                                              std::uint64_t seed) {
  if (const Slot* slot = Lookup(seed, TagOf(algorithm))) {
    ++hits_;
    return slot->digest;
  }
  ++misses_;
  return std::nullopt;
}

void SeedDigestMemo::FindMany(DigestAlgorithm algorithm,
                              std::span<const std::uint64_t> seeds,
                              std::span<Digest128> out,
                              std::span<bool> found) {
  VEC_CHECK_MSG(out.size() == seeds.size() && found.size() == seeds.size(),
                "FindMany: one digest and one flag per seed");
  const std::uint16_t tag = TagOf(algorithm);
  if (!slots_.empty()) {
    for (const std::uint64_t seed : seeds) {
      __builtin_prefetch(&slots_[ProbeStart(seed, tag)]);
    }
  }
  for (std::size_t k = 0; k < seeds.size(); ++k) {
    const Slot* slot = Lookup(seeds[k], tag);
    found[k] = slot != nullptr;
    if (slot != nullptr) {
      out[k] = slot->digest;
      ++hits_;
    } else {
      ++misses_;
    }
  }
}

void SeedDigestMemo::Store(DigestAlgorithm algorithm, std::uint64_t seed,
                           const Digest128& digest) {
  if (size_ >= kMaxEntries) return;
  if (slots_.empty() || (size_ + 1) * 2 > slots_.size()) Grow();
  const std::uint16_t tag = TagOf(algorithm);
  for (std::uint64_t i = ProbeStart(seed, tag);; i = (i + 1) & mask_) {
    Slot& slot = slots_[i];
    if (slot.tag == 0) {
      slot.seed = seed;
      slot.tag = tag;
      slot.digest = digest;
      ++size_;
      return;
    }
    if (slot.tag == tag && slot.seed == seed) return;  // already present
  }
}

void SeedDigestMemo::Grow() {
  const std::uint64_t new_capacity =
      slots_.empty() ? 4096 : slots_.size() * 2;
  std::vector<Slot> old = std::move(slots_);
  slots_.assign(new_capacity, Slot{});
  mask_ = new_capacity - 1;
  for (const Slot& slot : old) {
    if (slot.tag == 0) continue;
    for (std::uint64_t i = ProbeStart(slot.seed, slot.tag);;
         i = (i + 1) & mask_) {
      if (slots_[i].tag == 0) {
        slots_[i] = slot;
        break;
      }
    }
  }
}

void SeedDigestMemo::Clear() {
  slots_.clear();
  slots_.shrink_to_fit();
  mask_ = 0;
  size_ = 0;
  hits_ = 0;
  misses_ = 0;
}

}  // namespace vecycle
