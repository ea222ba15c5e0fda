// Migration outcome statistics — the quantities the paper's evaluation
// reports: total migration time (initiation at the source until the VM
// runs at the destination, excluding destination setup and source
// checkpoint writing, §4.4), source send traffic, and per-mechanism page
// counts.
#pragma once

#include <cstdint>
#include <vector>

#include "common/units.hpp"

namespace vecycle::migration {

struct MigrationStats {
  SimDuration total_time = SimDuration::zero();
  SimDuration downtime = SimDuration::zero();
  /// Destination setup: checkpoint scan + index build (not part of
  /// total_time, reported separately as the paper discusses).
  SimDuration setup_time = SimDuration::zero();
  std::uint32_t rounds = 0;

  /// Source -> destination payload, everything included (page data,
  /// checksum records, protocol frames).
  Bytes tx_bytes;
  /// Destination -> source bulk checksum exchange (§3.2); zero on the
  /// ping-pong fast path where the source already knows the set.
  Bytes bulk_exchange_bytes;
  /// Per-page query traffic (both directions) and count, when the
  /// HashExchangeMode::kPerPageQuery protocol variant is active.
  Bytes query_bytes;
  std::uint64_t query_count = 0;

  // Round-1 classification.
  std::uint64_t pages_sent_full = 0;       ///< full content transferred
  std::uint64_t pages_sent_checksum = 0;   ///< checksum-only records
  std::uint64_t pages_dup_ref = 0;         ///< dedup cache references
  std::uint64_t pages_skipped_clean = 0;   ///< dirty-tracking skips

  /// Pages re-sent in rounds >= 2 (dirtied while copying).
  std::uint64_t pages_resent_dirty = 0;

  // Destination-side behaviour for checksum-only records.
  std::uint64_t pages_matched_in_place = 0;   ///< local page already right
  std::uint64_t pages_from_checkpoint = 0;    ///< random checkpoint read

  // Fault-recovery accounting (all zero in fault-free runs).
  /// Checksum-only pages the destination could not satisfy locally
  /// (checkpoint rot/truncation or a failed block read) and the source
  /// re-sent with full content — the per-page graceful-degradation path.
  std::uint64_t fallback_pages = 0;
  /// Injected disk-error windows hit by this migration's reads.
  std::uint64_t disk_read_errors = 0;
  /// Prior aborted attempts of this migration (scheduler retries); the
  /// stats describe the attempt that completed.
  std::uint64_t retries = 0;

  Bytes source_hashed_bytes;
  Bytes dest_hashed_bytes;

  /// Wire-compression accounting: original vs on-wire size of full-page
  /// payloads (equal when compression is disabled — both stay zero).
  Bytes payload_bytes_original;
  Bytes payload_bytes_on_wire;

  // Transfer-stack accounting (docs/migration.md "Transfer stack").
  /// Forward channels the session used (1 unless multifd was enabled).
  std::uint32_t multifd_channels = 1;
  /// Per-channel source -> destination payload; sums to tx_bytes. One
  /// entry per forward channel, indexed by stream.
  std::vector<Bytes> tx_bytes_per_channel;
  /// Pages shipped as XBZRLE-style deltas against the destination's
  /// baseline (DeltaConfig), and their original vs encoded sizes. Delta
  /// pages are a subset of pages_sent_full / pages_resent_dirty (they are
  /// still content sends), so the round-1 conservation invariant holds
  /// unchanged.
  std::uint64_t pages_sent_delta = 0;
  Bytes delta_bytes_original;
  Bytes delta_bytes_on_wire;
  /// Delta records the destination rejected because its local content did
  /// not match the encoded baseline (rotten recycled checkpoint); each
  /// fell back to a full-content resend and is included in fallback_pages.
  std::uint64_t pages_delta_fallback = 0;
  /// Auto-converge: rounds during which the guest was throttled, and the
  /// strongest throttle applied (0 = never throttled).
  std::uint64_t throttle_rounds = 0;
  double max_throttle = 0.0;

  // Post-copy mode (MigrationConfig::postcopy; zero in pre-copy). There,
  // downtime is the switchover gap, total_time runs from the switchover
  // to full residency, and pages_from_checkpoint counts checkpoint pages
  // that never crossed the network.
  /// Switchover until every page is resident at the destination.
  SimDuration time_to_residency = SimDuration::zero();
  /// Guest stall time accumulated on remote demand faults — post-copy's
  /// notorious cost.
  SimDuration total_stall = SimDuration::zero();
  std::uint64_t remote_faults = 0;
  std::uint64_t pages_prefetched = 0;
  /// The switchover checksum-vector shipment (kHashes only).
  Bytes checksum_vector_bytes;

  /// Field-wise equality — the caching-invariance tests assert that two
  /// runs of the same scenario report identical simulated quantities.
  friend bool operator==(const MigrationStats&,
                         const MigrationStats&) = default;

  [[nodiscard]] std::uint64_t Round1Pages() const {
    return pages_sent_full + pages_sent_checksum + pages_dup_ref +
           pages_skipped_clean;
  }

  /// On-wire / original payload size. 1.0 when no payload was eligible for
  /// compression (compression off, or every page travelled as checksum,
  /// dedup reference or zero page) — dividing by payload_bytes_original
  /// there would be 0/0.
  [[nodiscard]] double CompressionRatio() const {
    if (payload_bytes_original.count == 0) return 1.0;
    return static_cast<double>(payload_bytes_on_wire.count) /
           static_cast<double>(payload_bytes_original.count);
  }

  /// Effective send rate tx_bytes / total_time. 0 when total_time is zero
  /// (a degenerate instant migration, e.g. every page skipped) rather
  /// than a division by zero.
  [[nodiscard]] double ThroughputBytesPerSecond() const {
    const double seconds = ToSeconds(total_time);
    if (seconds <= 0.0) return 0.0;
    return static_cast<double>(tx_bytes.count) / seconds;
  }
};

}  // namespace vecycle::migration
