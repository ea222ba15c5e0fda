#include "spans.hpp"

#include <cstdio>
#include <cstdlib>

namespace perfbench {
namespace {

SpanRecorder* g_recorder = nullptr;

std::int64_t NsSince(WallClock::time_point origin) {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             WallClock::now() - origin)
      .count();
}

}  // namespace

SpanRecorder::SpanRecorder()
    : origin_(WallClock::now()), owner_(std::this_thread::get_id()) {}

std::int32_t SpanRecorder::Begin(const char* name) {
  if (std::this_thread::get_id() != owner_) {
    std::fprintf(stderr, "perfbench: span '%s' opened off the main thread\n",
                 name);
    std::abort();
  }
  Span span;
  span.name = name;
  span.parent = open_.empty() ? -1 : open_.back();
  span.start_ns = NsSince(origin_);
  spans_.push_back(span);
  const auto index = static_cast<std::int32_t>(spans_.size() - 1);
  open_.push_back(index);
  return index;
}

void SpanRecorder::End(std::int32_t index) {
  spans_[static_cast<std::size_t>(index)].end_ns = NsSince(origin_);
  open_.pop_back();
}

std::map<std::string, SpanTotals> SpanRecorder::Totals() const {
  std::vector<double> child_s(spans_.size(), 0.0);
  for (const Span& span : spans_) {
    if (span.parent >= 0) {
      child_s[static_cast<std::size_t>(span.parent)] +=
          1e-9 * static_cast<double>(span.end_ns - span.start_ns);
    }
  }
  std::map<std::string, SpanTotals> totals;
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const double duration =
        1e-9 * static_cast<double>(spans_[i].end_ns - spans_[i].start_ns);
    SpanTotals& entry = totals[spans_[i].name];
    ++entry.count;
    entry.total_s += duration;
    entry.self_s += duration - child_s[i];
    entry.durations_s.push_back(duration);
  }
  return totals;
}

double SpanRecorder::TopLevelSeconds() const {
  double total = 0.0;
  for (const Span& span : spans_) {
    if (span.parent < 0) {
      total += 1e-9 * static_cast<double>(span.end_ns - span.start_ns);
    }
  }
  return total;
}

bool SpanRecorder::WriteTsv(const std::string& path) const {
  std::FILE* out = std::fopen(path.c_str(), "w");
  if (out == nullptr) return false;
  std::fprintf(out, "name\tstart_ns\tend_ns\tparent\n");
  for (const Span& span : spans_) {
    std::fprintf(out, "%s\t%lld\t%lld\t%d\n", span.name,
                 static_cast<long long>(span.start_ns),
                 static_cast<long long>(span.end_ns), span.parent);
  }
  return std::fclose(out) == 0;
}

namespace {

void ProbeKernel() {
  constexpr std::uint32_t kSteps = 1u << 16;
  constexpr std::uint64_t kSlots = 1u << 16;
  static std::uint64_t seeds[kSlots];
  static std::uint64_t generations[kSlots];
  static volatile std::uint64_t sink = 0;
  const auto rotl = [](std::uint64_t x, int k) {
    return (x << k) | (x >> (64 - k));
  };
  std::uint64_t s0 = 0x9e3779b97f4a7c15ull, s1 = 0xbf58476d1ce4e5b9ull;
  std::uint64_t s2 = 0x94d049bb133111ebull, s3 = 0x2545f4914f6cdd1dull;
  for (std::uint32_t i = 0; i < kSteps; ++i) {
    const std::uint64_t r = rotl(s1 * 5, 7) * 9;
    const std::uint64_t t = s1 << 17;
    s2 ^= s0;
    s3 ^= s1;
    s1 ^= s2;
    s0 ^= s3;
    s2 ^= t;
    s3 = rotl(s3, 45);
    const std::uint64_t slot = ((r >> 32) * kSlots) >> 32;
    seeds[slot] = r;
    ++generations[slot];
  }
  sink = sink + seeds[s0 % kSlots] + generations[s1 % kSlots];
}

}  // namespace

double ProbeSeconds() {
  // The untimed pass brings the table back into cache after a segment
  // that evicted it, so the timed pass sees the host's speed only.
  ProbeKernel();
  const auto start = WallClock::now();
  ProbeKernel();
  return SecondsSince(start);
}

double SpanRecorder::CalibrateSpanCostSeconds() {
  constexpr int kPairs = 200000;
  SpanRecorder scratch;
  scratch.spans_.reserve(kPairs);
  const auto start = WallClock::now();
  for (int i = 0; i < kPairs; ++i) scratch.End(scratch.Begin("calibrate"));
  return SecondsSince(start) / kPairs;
}

SpanRecorder* ActiveRecorder() { return g_recorder; }
void SetActiveRecorder(SpanRecorder* recorder) { g_recorder = recorder; }

std::uint64_t& DecoratedPageWrites() {
  static std::uint64_t writes = 0;
  return writes;
}

void TimedWorkload::Advance(vecycle::vm::GuestMemory& memory,
                            vecycle::SimDuration dt) {
  ScopedSpan span("vm.advance");
  const std::uint64_t before = memory.TotalWrites();
  inner_->Advance(memory, dt);
  DecoratedPageWrites() += memory.TotalWrites() - before;
}

vecycle::policy::Decision TimedPolicy::Decide(
    const vecycle::policy::PlacementQuery& query) {
  ScopedSpan span("policy.decide");
  return inner_.Decide(query);
}

void TimedPolicy::Observe(const vecycle::core::VmInstance& vm,
                          vecycle::SimTime now) {
  ScopedSpan span("policy.observe");
  inner_.Observe(vm, now);
}

}  // namespace perfbench
