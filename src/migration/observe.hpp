// Adapters from migration result structs to the obs metrics schema.
//
// These live in the migration layer (not obs) because they read
// MigrationStats; obs stays below migration in the dependency graph.
// Every field a mode reports is serialized — the pre-copy fields into a
// "precopy" record, the post-copy ones into a "postcopy" record; the CI
// schema check (tools/validate_metrics.py) counts on that — plus the
// derived rates the paper reports, guarded against zero denominators by
// the helpers on the struct itself.
#pragma once

#include <cstdint>
#include <string_view>

#include "migration/stats.hpp"
#include "obs/metrics.hpp"

namespace vecycle::migration {

/// Appends one "precopy" record covering every pre-copy MigrationStats
/// field (counters) and the derived seconds/throughput/compression gauges.
/// `session_id` is the scheduler's session identity (0 for the anonymous
/// synchronous facade); it is emitted as its own counter so fleet runs can
/// be joined against per-session audit/trace data by id, not label.
obs::MetricsRecord& RecordMigrationStats(obs::MetricsRegistry& registry,
                                         std::string_view label,
                                         const MigrationStats& stats,
                                         std::uint64_t session_id = 0);

/// Appends one "postcopy" record covering every field a post-copy session
/// reports: downtime, residency, stall, faults, prefetches, checkpoint
/// pages and the traffic split.
obs::MetricsRecord& RecordPostCopyStats(obs::MetricsRegistry& registry,
                                        std::string_view label,
                                        const MigrationStats& stats);

}  // namespace vecycle::migration
