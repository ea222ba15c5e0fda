// Migration engine configuration.
#pragma once

#include <cstdint>

#include "common/units.hpp"
#include "digest/digest.hpp"
#include "fault/fault.hpp"
#include "migration/strategy.hpp"

namespace vecycle::migration {

/// How the source learns which page contents exist at the destination
/// (§3.2). The paper's prototype sends the checksums in bulk before the
/// migration; it names — but does not evaluate — the alternative of
/// querying the destination per page, expecting "the high frequency
/// exchange of small messages to slow down the migration". Both are
/// implemented so that expectation can be quantified
/// (bench_ablation_hash_exchange).
enum class HashExchangeMode {
  kBulk,          ///< destination ships its digest set up front
  kPerPageQuery,  ///< source asks per page, bounded by query_window
};

/// Wire compression of full-page payloads (Svärd et al. [24]; the paper
/// notes such techniques "can be combined with VeCycle"). Modeled as a
/// per-page compression ratio with CPU cost at both ends; checksum-only
/// records, dedup references and zero pages are unaffected (there is
/// nothing left to compress).
struct CompressionConfig {
  bool enabled = false;
  /// Mean compressed-size / original-size for guest pages. 0.55 matches
  /// the delta/RLE-class compressors of the era on mixed content.
  double mean_ratio = 0.55;
  /// Per-page spread around the mean (content-dependent), clamped to
  /// [0.05, 1.0].
  double ratio_jitter = 0.25;
  ByteRate compress_rate = MiBPerSecond(250.0);
  ByteRate decompress_rate = MiBPerSecond(500.0);

  /// Rejects ratios and rates no compressor can produce. Checked even
  /// when `enabled` is false, so a latent bad config fails at Validate
  /// time rather than on the day compression is switched on.
  void Validate() const;
};

/// Multi-channel parallel transfer (QEMU's multifd capability). The
/// session opens `channels` forward TCP streams and stripes page records
/// across them by page index (page % channels), so one migration can
/// exceed the per-stream TCP window cap and saturate a fat link. Round
/// boundaries are synchronized with one marker per channel (QEMU's
/// MULTIFD_FLUSH); the destination acks only after every channel's
/// marker has arrived. Inactive (single channel, byte-identical to the
/// pre-multifd engine) unless enabled with channels > 1.
struct MultifdConfig {
  bool enabled = false;
  /// Parallel source -> destination streams. 1 behaves exactly like the
  /// single-channel engine; QEMU's default when the capability is on is
  /// 2, typical deployments use 4-16.
  std::uint32_t channels = 4;

  /// Streams actually used: 1 unless enabled.
  [[nodiscard]] std::uint32_t ActiveChannels() const {
    return enabled ? channels : 1;
  }

  /// Rejects channel counts the audit channel-id scheme cannot represent
  /// (see kMaxChannels). Checked even when `enabled` is false.
  void Validate() const;

  /// Channel-id namespace width: with multifd active, audit channel ids
  /// are session_id * 2 * kMaxChannels + stream index, so ids of distinct
  /// sessions never collide as long as channels <= kMaxChannels.
  static constexpr std::uint32_t kMaxChannels = 16;
};

/// XBZRLE-style delta encoding against the recycled checkpoint baseline
/// (the VeCycle-native composition of QEMU's xbzrle capability). The
/// source keeps a cache of the content it believes the destination holds
/// per page — pre-seeded from the departure-time seeds of the recycled
/// checkpoint, updated on every send — and ships a run-length delta
/// instead of the full page when the encoded size stays under
/// `max_ratio`. The destination verifies the baseline before applying;
/// a rotten baseline (checkpoint rot/truncation per vecycle::fault)
/// degrades per page to the full-content resend path.
struct DeltaConfig {
  bool enabled = false;
  /// Mean encoded-size / page-size across dirty pages. Real XBZRLE on
  /// guest working sets typically encodes a dirtied page into a small
  /// fraction of 4 KiB (most writes touch a few cachelines).
  double mean_ratio = 0.25;
  /// Per-page spread around the mean (content-dependent), clamped to
  /// [0.02, 1.0].
  double ratio_jitter = 0.2;
  /// Deltas larger than this fraction of a page fall back to a full-page
  /// send (QEMU's xbzrle overflow path).
  double max_ratio = 0.75;
  ByteRate encode_rate = MiBPerSecond(400.0);
  ByteRate decode_rate = MiBPerSecond(800.0);

  /// Rejects ratios and rates no delta codec can produce. Checked even
  /// when `enabled` is false, like CompressionConfig.
  void Validate() const;
};

/// Auto-converge (QEMU's auto-converge capability): when the guest
/// dirties memory faster than pre-copy drains it, progressively throttle
/// the guest's write rate so the dirty set shrinks and the migration
/// completes with bounded downtime instead of spinning until max_rounds.
struct AutoConvergeConfig {
  bool enabled = false;
  /// First throttle step: guest write rate is cut to (1 - 0.2) = 80% of
  /// nominal. QEMU's x-cpu-throttle-initial default is 20%.
  double initial_throttle = 0.2;
  /// Added on each further diverging round (QEMU's
  /// x-cpu-throttle-increment default is 10%).
  double throttle_increment = 0.1;
  /// Hard ceiling; QEMU caps at 99% — the guest never fully stops
  /// before the stop-and-copy round.
  double max_throttle = 0.99;
  /// A round diverges when bytes dirtied during it exceed this fraction
  /// of the bytes transferred (QEMU's throttle trigger threshold, 50%).
  double divergence_ratio = 0.5;
  /// Consecutive diverging rounds before the first throttle step.
  std::uint32_t trigger_rounds = 2;

  /// Rejects throttle fractions outside [0, 1) and degenerate triggers.
  /// Checked even when `enabled` is false.
  void Validate() const;
};

/// Post-copy mode (Hines & Gopalan [13]): switch execution to the
/// destination first, then fetch memory — a background prefetcher plus
/// demand faults on guest touches (docs/migration.md §4). The strategy
/// picks the composition: kHashes recycles the destination's checkpoint
/// against the source's checksum vector, kFull is cold post-copy. The
/// session runs pre-copy unless enabled.
struct PostCopyConfig {
  bool enabled = false;
  /// Device/CPU state shipped at switchover (QEMU sends a few MiB).
  Bytes switchover_state = MiB(4);
  /// Guest memory-touch rate at the destination while residency is
  /// incomplete; touches to non-resident pages become remote faults.
  double guest_touch_rate_per_s = 2000.0;
  /// Pages per background-prefetch batch.
  std::uint32_t prefetch_batch = 256;
  std::uint64_t touch_seed = 1;

  /// Rejects degenerate rates and sizes. Checked even when `enabled` is
  /// false, like the other capability configs.
  void Validate() const;
};

struct MigrationConfig {
  Strategy strategy = Strategy::kHashes;
  DigestAlgorithm algorithm = DigestAlgorithm::kMd5;

  HashExchangeMode hash_exchange = HashExchangeMode::kBulk;
  /// Outstanding per-page queries allowed in flight (kPerPageQuery only).
  /// 1 models the naive synchronous scheme; larger windows pipeline.
  std::uint32_t query_window = 1;

  CompressionConfig compression;

  /// Transfer-stack capabilities (QEMU parity; docs/migration.md
  /// "Transfer stack").
  MultifdConfig multifd;
  DeltaConfig delta;
  AutoConvergeConfig auto_converge;

  /// Migration mode: pre-copy unless postcopy.enabled. Post-copy accepts
  /// only strategies kHashes and kFull, and neither compression nor a
  /// transfer-stack capability.
  PostCopyConfig postcopy;

  /// Pages per wire message. Real implementations buffer the RAM stream;
  /// 256 pages (1 MiB) per send matches QEMU's buffered chunking order of
  /// magnitude and keeps simulation event counts tractable.
  std::uint32_t batch_pages = 256;

  /// Pre-copy termination: enter the stop-and-copy round when the dirty
  /// set is at most this many pages...
  std::uint64_t stop_copy_threshold_pages = 2048;
  /// ...or after this many rounds regardless (QEMU behaves similarly to
  /// avoid livelock against fast writers).
  std::uint32_t max_rounds = 16;

  /// Runs this migration under the audit layer (src/audit): causality,
  /// page/byte conservation, and end-state digest checks, each violation
  /// throwing CheckFailure. The VECYCLE_AUDIT environment variable turns
  /// this on globally regardless of the flag.
  bool audit = false;

  /// Runs this migration under the observability layer (src/obs): per-round
  /// spans, channel byte timelines, CPU backlog and dirty-page counters
  /// recorded into obs::GlobalTrace(), and a metrics record of every
  /// MigrationStats field into obs::GlobalMetrics(). The VECYCLE_TRACE
  /// environment variable turns this on globally regardless of the flag.
  /// Disabled, the cost is one pointer test per event.
  bool trace = false;

  /// Runs this migration under the fault-injection layer (src/fault):
  /// link outages abort the session (phase kFailed), degradations slow
  /// it, disk errors and checkpoint rot exercise the per-page fallback
  /// path. The VECYCLE_FAULTS environment variable supplies a plan
  /// globally when this config is disabled. An explicit injector passed
  /// via MigrationRun::injector (the scheduler's mode) wins over both.
  fault::FaultConfig faults;

  void Validate() const;
};

}  // namespace vecycle::migration
