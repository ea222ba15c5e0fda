// Metrics half of the observability layer (vecycle::obs).
//
// A MetricsRegistry collects labelled records of named counters (exact
// integers) and gauges (derived doubles) and serializes them to a stable,
// machine-readable JSON schema ("vecycle.metrics.v1"). The bench binaries
// emit one such file per run so CI can archive a perf trajectory; the
// schema is validated by tools/validate_metrics.py.
//
// The registry itself is schema-agnostic; the adapters that translate
// MigrationStats into full pre-copy or post-copy records (every field plus
// guarded derived rates) live with the structs they read, in
// migration/observe.hpp — obs stays below the migration layer.
#pragma once

#include <cstdint>
#include <ostream>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

namespace vecycle::obs {

/// One labelled measurement record: ordered counter and gauge series.
/// Insertion order is preserved in the JSON so diffs stay readable.
struct MetricsRecord {
  std::string label;
  std::string kind;  ///< "precopy" | "postcopy" | free-form
  std::vector<std::pair<std::string, std::uint64_t>> counters;
  std::vector<std::pair<std::string, double>> gauges;

  void Counter(std::string_view name, std::uint64_t value) {
    counters.emplace_back(name, value);
  }
  void Gauge(std::string_view name, double value) {
    gauges.emplace_back(name, value);
  }
};

class MetricsRegistry {
 public:
  /// Appends a new record; the reference stays valid until the next call
  /// (callers fill it immediately).
  MetricsRecord& NewRecord(std::string_view label, std::string_view kind);

  [[nodiscard]] bool Empty() const { return records_.empty(); }
  [[nodiscard]] std::size_t Count() const { return records_.size(); }
  [[nodiscard]] const std::vector<MetricsRecord>& Records() const {
    return records_;
  }
  void Clear() { records_.clear(); }

  /// Serializes all records under the vecycle.metrics.v1 schema.
  /// `source` names the producing binary.
  void WriteJson(std::ostream& out, std::string_view source) const;
  [[nodiscard]] std::string ToJson(std::string_view source) const;

 private:
  std::vector<MetricsRecord> records_;
};

/// Process-wide registry, filled by runs whose tracing is enabled via
/// config flag or VECYCLE_TRACE; bench_util::BenchReporter writes it to
/// disk at exit.
[[nodiscard]] MetricsRegistry& GlobalMetrics();

}  // namespace vecycle::obs
