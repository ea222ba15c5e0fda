// Sorted checksum index over a checkpoint (§3.3).
//
// While the destination streams the checkpoint into guest RAM it records
// one checksum per 4 KiB block together with the block's file offset, kept
// "in a sorted list, such that we can use binary search to quickly find
// the offset for a given checksum". This class is that structure, plus the
// set view the destination ships to the source in the bulk hash exchange
// (§3.2).
#pragma once

#include <cstdint>
#include <optional>
#include <vector>

#include "digest/digest.hpp"
#include "storage/checkpoint.hpp"

namespace vecycle::storage {

class ChecksumIndex {
 public:
  ChecksumIndex() = default;

  /// Builds the index from every page of `checkpoint`: the ContentDigest
  /// of each stored seed under the migrating memory's `mode` and
  /// `algorithm`, so lookups match the digests that memory's pages carry.
  static ChecksumIndex Build(const Checkpoint& checkpoint,
                             vm::ContentMode mode, DigestAlgorithm algorithm);

  /// Binary-searches for `digest`; returns the lowest page/file-block
  /// offset of the checkpoint pages with that content, or nullopt.
  [[nodiscard]] std::optional<vm::PageId> Lookup(
      const Digest128& digest) const;

  [[nodiscard]] bool Contains(const Digest128& digest) const {
    return Lookup(digest).has_value();
  }

  [[nodiscard]] bool Empty() const { return entries_.empty(); }

  /// The distinct digests, sorted — the §3.2 bulk-exchange payload.
  [[nodiscard]] std::vector<Digest128> DistinctDigestList() const;

 private:
  // One entry per page, sorted by (digest, page): equal digests keep
  // ascending offsets, so Lookup's lower_bound lands on the lowest.
  std::vector<std::pair<Digest128, vm::PageId>> entries_;
};

}  // namespace vecycle::storage
