#include "storage/checksum_index.hpp"

#include <algorithm>
#include <array>
#include <span>

#include "common/check.hpp"

namespace vecycle::storage {

ChecksumIndex ChecksumIndex::Build(const Checkpoint& checkpoint,
                                   vm::ContentMode mode,
                                   DigestAlgorithm algorithm) {
  const std::span<const std::uint64_t> seeds = checkpoint.Seeds();
  ChecksumIndex index;
  auto& entries = index.entries_;
  entries.reserve(seeds.size());
  std::array<Digest128, 256> digests{};
  for (std::size_t base = 0; base < seeds.size(); base += digests.size()) {
    const std::size_t n = std::min(digests.size(), seeds.size() - base);
    vm::ContentDigests(mode, algorithm, seeds.subspan(base, n),
                       std::span(digests).first(n));
    for (std::size_t i = 0; i < n; ++i) {
      entries.emplace_back(digests[i], base + i);
    }
  }
  std::sort(entries.begin(), entries.end());
  return index;
}

std::optional<vm::PageId> ChecksumIndex::Lookup(
    const Digest128& digest) const {
  const auto it = std::lower_bound(
      entries_.begin(), entries_.end(), digest,
      [](const auto& entry, const Digest128& d) { return entry.first < d; });
  if (it == entries_.end() || it->first != digest) return std::nullopt;
  return it->second;
}

std::vector<Digest128> ChecksumIndex::DistinctDigestList() const {
  std::vector<Digest128> digests;
  digests.reserve(entries_.size());
  for (std::size_t i = 0; i < entries_.size(); ++i) {
    if (i == 0 || entries_[i].first != entries_[i - 1].first) {
      digests.push_back(entries_[i].first);
    }
  }
  return digests;
}

}  // namespace vecycle::storage
