// Tracing half of the observability layer (vecycle::obs).
//
// The paper's evaluation reports aggregates — migration time, send
// traffic, per-mechanism page counts (§4.4) — but *explaining* those
// numbers needs the timeline behind them: when each pre-copy round ran,
// how the channel's byte counter grew, how far the checksum engine's
// backlog stretched. TraceRecorder captures that timeline, keyed purely
// on simulated time (never wall clock, so traces are deterministic and
// ReplayCheck-stable), and exports Chrome-trace JSON that chrome://tracing
// and Perfetto load directly.
//
// The model mirrors the trace viewers': a *process* groups the tracks of
// one migration (or post-copy run), a *track* is one lane of spans or one
// counter series, and events are spans (duration), instants, or counter
// samples. All strings are interned so the per-event footprint is a few
// words; components hold a `TraceRecorder*` that is null when tracing is
// off, making the disabled path a single pointer test — the same pattern
// as the audit layer's AuditSink.
//
// Enablement mirrors `audit`: MigrationConfig::trace, the VECYCLE_TRACE
// environment variable (via the process-wide GlobalTrace() recorder), or
// an explicit recorder handed to the run.
#pragma once

#include <cstdint>
#include <ostream>
#include <string>
#include <string_view>
#include <unordered_map>
#include <vector>

#include "common/units.hpp"

namespace vecycle::obs {

/// Interned-string handle (track names, event names, argument keys).
using NameId = std::uint32_t;
/// Track handle: one lane in the trace (a Chrome-trace (pid, tid) pair).
using TrackId = std::uint32_t;
/// Handle of an open span, returned by BeginSpan and consumed by EndSpan.
using SpanId = std::uint64_t;

class TraceRecorder {
 public:
  /// Interns `name`; repeated calls with the same string return the same
  /// id. Interning is what keeps per-event cost at a few words.
  NameId Name(std::string_view name);

  /// Opens a new process group (one migration, one post-copy run, one
  /// bench scenario) labelled `label` in the viewer's process list.
  std::uint32_t NewProcess(std::string_view label);

  /// Creates a track named `name` under `process`. Tracks are cheap;
  /// give every component its own lane.
  TrackId Track(std::uint32_t process, std::string_view name);

  /// Opens a span on `track` starting at `start`. Spans on one track may
  /// nest (begin B inside A) but must close LIFO per track, which is what
  /// the viewers require to draw containment.
  SpanId BeginSpan(TrackId track, NameId name, SimTime start);
  void EndSpan(SpanId span, SimTime end);

  /// Records a complete span retroactively — for durations only known at
  /// the end (e.g. total migration time at Finalize).
  void Span(TrackId track, NameId name, SimTime start, SimTime end);

  /// Zero-duration marker.
  void Instant(TrackId track, NameId name, SimTime at);

  /// One sample of the counter series `name` on `track` (byte timelines,
  /// dirty-page counts, backlog depth).
  void Counter(TrackId track, NameId name, SimTime at, double value);

  /// Attaches `key`=`value` to a span or instant (shown in the viewer's
  /// args pane). Must refer to the most recently begun or completed
  /// event; call immediately after BeginSpan/Span/Instant.
  void Arg(NameId key, std::uint64_t value);

  [[nodiscard]] bool Empty() const { return events_.empty(); }
  [[nodiscard]] std::size_t EventCount() const { return events_.size(); }
  void Clear();

  /// Serializes everything observed so far as Chrome-trace JSON
  /// (trace-event format, "X"/"i"/"C" phases plus name metadata).
  /// Events are emitted sorted by (time, recording order), so the output
  /// is byte-identical across identically seeded runs.
  void WriteChromeTrace(std::ostream& out) const;

  /// WriteChromeTrace into a string (tests, ReplayCheck comparisons).
  [[nodiscard]] std::string ChromeTraceJson() const;

 private:
  enum class Phase : std::uint8_t { kSpan, kInstant, kCounter };

  struct Event {
    Phase phase;
    TrackId track;
    NameId name;
    SimTime start;
    SimTime end;    // spans only
    double value;   // counters only
    /// Index into args_ (one past the last arg); args of event i are
    /// args_[events_[i-1].args_end, events_[i].args_end).
    std::uint32_t args_end;
  };

  struct TrackInfo {
    std::uint32_t process;
    NameId name;
  };

  void Push(Phase phase, TrackId track, NameId name, SimTime start,
            SimTime end, double value);

  std::vector<std::string> names_;
  std::unordered_map<std::string, NameId> name_ids_;
  std::vector<NameId> process_labels_;  // index = process id
  std::vector<TrackInfo> tracks_;       // index = track id
  std::vector<Event> events_;
  std::vector<std::pair<NameId, std::uint64_t>> args_;
  /// Open-span stack per track, for the LIFO nesting check.
  std::unordered_map<TrackId, std::vector<SpanId>> open_spans_;
};

/// True when the VECYCLE_TRACE environment variable requests tracing for
/// every run ("1"/"true"/"on"/"yes", case-insensitive) — the switch the
/// bench binaries and CI use, mirroring VECYCLE_AUDIT.
[[nodiscard]] bool EnvEnabled();

/// Process-wide recorder used when tracing is enabled by flag or
/// environment rather than by an explicit recorder. Bench binaries dump
/// it to disk at exit (bench_util::BenchReporter).
[[nodiscard]] TraceRecorder& GlobalTrace();

}  // namespace vecycle::obs
