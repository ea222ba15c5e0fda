#include "digest/digest_set.hpp"

#include <algorithm>

namespace vecycle {

namespace {

std::uint64_t NextPowerOfTwo(std::uint64_t n) {
  std::uint64_t p = 1;
  while (p < n) p <<= 1;
  return p;
}

// <= 50% load keeps linear-probe chains short (expected < 2 probes).
std::uint64_t CapacityFor(std::uint64_t entries) {
  return NextPowerOfTwo(std::max<std::uint64_t>(8, entries * 2));
}

}  // namespace

DigestSet::DigestSet(std::vector<Digest128> digests) {
  if (digests.empty()) return;
  Fill(digests);
  if (CapacityFor(size_) < slots_.size()) {
    // Many duplicates (zero pages, shared content): refill from the
    // distinct digests so the table does not stay sized for every page.
    digests.clear();
    for (const auto& slot : slots_) {
      if (slot != kEmptySlot) digests.push_back(slot);
    }
    if (holds_empty_marker_) digests.push_back(kEmptySlot);
    Fill(digests);
  }
}

void DigestSet::Fill(const std::vector<Digest128>& digests) {
  slots_.assign(CapacityFor(digests.size()), kEmptySlot);
  mask_ = slots_.size() - 1;
  size_ = 0;
  holds_empty_marker_ = false;
  for (const auto& digest : digests) Insert(digest);
}

void DigestSet::Insert(const Digest128& digest) {
  if (digest == kEmptySlot) {
    if (!holds_empty_marker_) {
      holds_empty_marker_ = true;
      ++size_;
    }
    return;
  }
  std::uint64_t index = SlotHash(digest) & mask_;
  while (true) {
    Digest128& slot = slots_[index];
    if (slot == kEmptySlot) {
      slot = digest;
      ++size_;
      return;
    }
    if (slot == digest) return;  // duplicate
    index = (index + 1) & mask_;
  }
}

bool DigestSet::Contains(const Digest128& digest) const {
  if (digest == kEmptySlot) return holds_empty_marker_;
  if (slots_.empty()) return false;
  std::uint64_t index = SlotHash(digest) & mask_;
  while (true) {
    const Digest128& slot = slots_[index];
    if (slot == digest) return true;
    if (slot == kEmptySlot) return false;
    index = (index + 1) & mask_;
  }
}

}  // namespace vecycle
