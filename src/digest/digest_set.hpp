// Flat open-addressing membership set over 128-bit digests.
//
// The one form of "pages the destination holds" (§3.2's incoming-page
// tracking): a migration's outcome builds it from the arrived state, the
// VM keeps it per visited host, and the return trip's source probes it
// (DestHas) — or builds it from the bulk-exchange payload when the VM
// carries no knowledge. Membership only ever asks "does this content
// exist at the destination?", never "at which offset?" (that is the
// §3.3 sorted ChecksumIndex's job), so a flat hash set answers it in
// O(1): SlotHash (one mix of both digest words) picks the slot, linear
// probing resolves collisions, and the full 128-bit digest stored in the
// slot confirms the match (slot collisions cannot cause false
// positives). Slots are a single contiguous Digest128 array at <= 50%
// load, so a probe touches one or two cache lines.
#pragma once

#include <cstdint>
#include <vector>

#include "digest/digest.hpp"

namespace vecycle {

class DigestSet {
 public:
  DigestSet() = default;

  /// Builds the set from `digests` in any order, duplicates included (no
  /// sort needed). Duplicates collapse: Size() and Capacity() depend only
  /// on the distinct digests.
  explicit DigestSet(std::vector<Digest128> digests);

  /// O(1) membership: SlotHash of both words, linear probe, full-digest
  /// confirmation.
  [[nodiscard]] bool Contains(const Digest128& digest) const;

  /// Distinct digests stored.
  [[nodiscard]] std::uint64_t Size() const { return size_; }
  [[nodiscard]] bool Empty() const { return size_ == 0; }

  /// Slot count of the backing table (diagnostics / load-factor checks):
  /// the smallest power of two, at least 8, holding Size() at <= 50% load
  /// (0 for a set built from no digests).
  [[nodiscard]] std::uint64_t Capacity() const { return slots_.size(); }

 private:
  // Empty-slot marker: an arbitrary fixed 128-bit value. A genuine digest
  // equal to it (p = 2^-128, or a hand-crafted test vector) is tracked by
  // the side flag instead of occupying a slot.
  static constexpr Digest128 kEmptySlot =
      Digest128::FromWords(0x9d5c6fabe17c4e2bull, 0x3f84a1d0c2b96e57ull);

  /// Empties the set into a table sized for `digests.size()` entries and
  /// inserts them.
  void Fill(const std::vector<Digest128>& digests);
  void Insert(const Digest128& digest);

  std::vector<Digest128> slots_;
  std::uint64_t mask_ = 0;  // slots_.size() - 1 (power-of-two table)
  std::uint64_t size_ = 0;
  bool holds_empty_marker_ = false;
};

}  // namespace vecycle
