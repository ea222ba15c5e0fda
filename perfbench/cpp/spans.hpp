// Host-time spans and the timing decorators of the traced run.
//
// A traced run installs one SpanRecorder for the whole process. The
// workloads open a span around every call they make into a
// layer's public API (core::MigrationOrchestrator's RunFor, RunPolicy,
// Migrate and Drain), and two decorators open spans from inside the
// calls the library makes back out: TimedWorkload wraps a VM's
// vm::Workload, TimedPolicy wraps a policy::PlacementPolicy. Spans nest,
// so a span's self time is its duration minus its children's, which is
// how the core layer's own cost is separated from the guest writes and
// policy decisions it calls into.
//
// With no recorder installed (timed runs) ScopedSpan is one null test,
// and the workloads do not install the decorators at all.
//
// Spans are recorded from the main thread only: the decorated calls
// all happen there (single-simulator runs, and PDES runs without guest
// workloads). A span opened from another thread aborts the run rather
// than corrupting the nesting.
#pragma once

#include <chrono>
#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "policy/placement.hpp"
#include "vm/workload.hpp"

namespace perfbench {

using WallClock = std::chrono::steady_clock;

[[nodiscard]] inline double SecondsSince(WallClock::time_point start) {
  return std::chrono::duration<double>(WallClock::now() - start).count();
}

/// One timing of a fixed integer kernel shaped like the guest-write hot
/// path: a xoshiro256** stream picks slots of a 1024-page table, and each
/// step stores a seed and bumps a generation. It is written here, apart
/// from the library, so that no change to the program can move it; only
/// the host's speed does.
[[nodiscard]] double ProbeSeconds();

struct Span {
  const char* name = "";
  std::int64_t start_ns = 0;  ///< since the recorder's origin
  std::int64_t end_ns = 0;
  std::int32_t parent = -1;   ///< index into the span list, -1 = top level
};

/// Per span name: call count, summed duration, and summed self time.
struct SpanTotals {
  std::uint64_t count = 0;
  double total_s = 0.0;
  double self_s = 0.0;
  std::vector<double> durations_s;  ///< per call, in call order
};

class SpanRecorder {
 public:
  SpanRecorder();

  [[nodiscard]] std::int32_t Begin(const char* name);
  void End(std::int32_t index);

  [[nodiscard]] const std::vector<Span>& Spans() const { return spans_; }
  [[nodiscard]] std::map<std::string, SpanTotals> Totals() const;
  /// Summed duration of the top-level spans.
  [[nodiscard]] double TopLevelSeconds() const;

  /// Writes one "name<TAB>start_ns<TAB>end_ns<TAB>parent" line per span.
  /// Returns false when the file cannot be written.
  bool WriteTsv(const std::string& path) const;

  /// Host cost of one Begin/End pair, measured on a scratch recorder.
  [[nodiscard]] static double CalibrateSpanCostSeconds();

 private:
  WallClock::time_point origin_;
  std::thread::id owner_;
  std::vector<Span> spans_;
  std::vector<std::int32_t> open_;
};

/// The process's recorder; null when tracing is off.
SpanRecorder* ActiveRecorder();
void SetActiveRecorder(SpanRecorder* recorder);

class ScopedSpan {
 public:
  explicit ScopedSpan(const char* name)
      : recorder_(ActiveRecorder()),
        index_(recorder_ != nullptr ? recorder_->Begin(name) : -1) {}
  ~ScopedSpan() {
    if (recorder_ != nullptr) recorder_->End(index_);
  }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

 private:
  SpanRecorder* recorder_;
  std::int32_t index_;
};

/// Guest page writes made inside every TimedWorkload of the process.
std::uint64_t& DecoratedPageWrites();

/// Times each Advance() as a "vm.advance" span and counts the page writes
/// it made from GuestMemory::TotalWrites. Throttle changes reach the
/// wrapped workload, so auto-converge behaves as without the decorator.
class TimedWorkload final : public vecycle::vm::Workload {
 public:
  explicit TimedWorkload(std::unique_ptr<vecycle::vm::Workload> inner)
      : inner_(std::move(inner)) {}

  void Advance(vecycle::vm::GuestMemory& memory,
               vecycle::SimDuration dt) override;
  void SetThrottle(double keep) override {
    Workload::SetThrottle(keep);
    inner_->SetThrottle(keep);
  }

 private:
  std::unique_ptr<vecycle::vm::Workload> inner_;
};

/// Times Decide() and Observe() as "policy.decide" / "policy.observe"
/// spans. Decision counters stay on the wrapped policy's Stats().
class TimedPolicy final : public vecycle::policy::PlacementPolicy {
 public:
  explicit TimedPolicy(vecycle::policy::PlacementPolicy& inner)
      : inner_(inner) {}

  [[nodiscard]] std::string_view Name() const override {
    return inner_.Name();
  }
  [[nodiscard]] vecycle::policy::Decision Decide(
      const vecycle::policy::PlacementQuery& query) override;
  void Observe(const vecycle::core::VmInstance& vm,
               vecycle::SimTime now) override;

 private:
  vecycle::policy::PlacementPolicy& inner_;
};

}  // namespace perfbench
