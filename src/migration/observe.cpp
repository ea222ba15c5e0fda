#include "migration/observe.hpp"

#include <string>

namespace vecycle::migration {

namespace {

constexpr double kMiB = 1024.0 * 1024.0;

std::uint64_t Ns(SimDuration d) {
  return static_cast<std::uint64_t>(d.count());
}

}  // namespace

obs::MetricsRecord& RecordMigrationStats(obs::MetricsRegistry& registry,
                                         std::string_view label,
                                         const MigrationStats& stats,
                                         std::uint64_t session_id) {
  auto& record = registry.NewRecord(label, "precopy");
  record.Counter("session_id", session_id);
  record.Counter("rounds", stats.rounds);
  record.Counter("tx_bytes", stats.tx_bytes.count);
  record.Counter("bulk_exchange_bytes", stats.bulk_exchange_bytes.count);
  record.Counter("query_bytes", stats.query_bytes.count);
  record.Counter("query_count", stats.query_count);
  record.Counter("pages_sent_full", stats.pages_sent_full);
  record.Counter("pages_sent_checksum", stats.pages_sent_checksum);
  record.Counter("pages_dup_ref", stats.pages_dup_ref);
  record.Counter("pages_skipped_clean", stats.pages_skipped_clean);
  record.Counter("pages_resent_dirty", stats.pages_resent_dirty);
  record.Counter("pages_matched_in_place", stats.pages_matched_in_place);
  record.Counter("pages_from_checkpoint", stats.pages_from_checkpoint);
  record.Counter("fallback_pages", stats.fallback_pages);
  record.Counter("disk_read_errors", stats.disk_read_errors);
  record.Counter("retries", stats.retries);
  record.Counter("source_hashed_bytes", stats.source_hashed_bytes.count);
  record.Counter("dest_hashed_bytes", stats.dest_hashed_bytes.count);
  record.Counter("payload_bytes_original",
                 stats.payload_bytes_original.count);
  record.Counter("payload_bytes_on_wire", stats.payload_bytes_on_wire.count);
  record.Counter("multifd_channels", stats.multifd_channels);
  for (std::size_t k = 0; k < stats.tx_bytes_per_channel.size(); ++k) {
    record.Counter("tx_bytes_ch" + std::to_string(k),
                   stats.tx_bytes_per_channel[k].count);
  }
  record.Counter("pages_sent_delta", stats.pages_sent_delta);
  record.Counter("delta_bytes_original", stats.delta_bytes_original.count);
  record.Counter("delta_bytes_on_wire", stats.delta_bytes_on_wire.count);
  record.Counter("pages_delta_fallback", stats.pages_delta_fallback);
  record.Counter("throttle_rounds", stats.throttle_rounds);
  record.Counter("total_time_ns", Ns(stats.total_time));
  record.Counter("downtime_ns", Ns(stats.downtime));
  record.Counter("setup_time_ns", Ns(stats.setup_time));
  record.Counter("round1_pages", stats.Round1Pages());
  record.Gauge("total_time_s", ToSeconds(stats.total_time));
  record.Gauge("downtime_s", ToSeconds(stats.downtime));
  record.Gauge("setup_time_s", ToSeconds(stats.setup_time));
  record.Gauge("throughput_mib_per_s",
               stats.ThroughputBytesPerSecond() / kMiB);
  record.Gauge("compression_ratio", stats.CompressionRatio());
  record.Gauge("max_throttle", stats.max_throttle);
  return record;
}

obs::MetricsRecord& RecordPostCopyStats(obs::MetricsRegistry& registry,
                                        std::string_view label,
                                        const MigrationStats& stats) {
  auto& record = registry.NewRecord(label, "postcopy");
  record.Counter("remote_faults", stats.remote_faults);
  record.Counter("pages_prefetched", stats.pages_prefetched);
  record.Counter("pages_from_checkpoint", stats.pages_from_checkpoint);
  record.Counter("tx_bytes", stats.tx_bytes.count);
  record.Counter("checksum_vector_bytes", stats.checksum_vector_bytes.count);
  record.Counter("downtime_ns", Ns(stats.downtime));
  record.Counter("time_to_residency_ns", Ns(stats.time_to_residency));
  record.Counter("total_stall_ns", Ns(stats.total_stall));
  record.Gauge("downtime_s", ToSeconds(stats.downtime));
  record.Gauge("time_to_residency_s", ToSeconds(stats.time_to_residency));
  record.Gauge("total_stall_s", ToSeconds(stats.total_stall));
  return record;
}

}  // namespace vecycle::migration
