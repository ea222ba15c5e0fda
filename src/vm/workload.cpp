#include "vm/workload.hpp"

#include <algorithm>
#include <cmath>

#include "common/check.hpp"

namespace vecycle::vm {
namespace {

/// Converts a rate and interval into a whole number of operations,
/// carrying the fractional remainder so long simulations honor the rate
/// exactly instead of losing sub-step residue.
std::uint64_t OpsFor(double rate_per_s, SimDuration dt, double& carry) {
  const double exact = rate_per_s * ToSeconds(dt) + carry;
  const double whole = std::floor(exact);
  carry = exact - whole;
  return static_cast<std::uint64_t>(whole);
}

/// Fresh, never-before-seen content seed (top bit clear to stay out of the
/// MemoryProfile duplicate-pool space, never the zero seed).
std::uint64_t FreshSeed(Xoshiro256& rng) {
  std::uint64_t s;
  do {
    s = rng.Next() & ~(1ull << 63);
  } while (s == kZeroPageSeed);
  return s;
}

/// Applies `writes` writes that each land on a page drawn uniformly from
/// [0, region) and store fresh content, with exactly the per-page write
/// counts of a per-write loop, in O(min(writes, region)) work. Below one
/// write per page each drawn page is written as it comes; merging the
/// repeats there (a sort or a hash per write) measured slower than the
/// writes it saves. Otherwise the region is walked once, page i taking
/// Bin(left, 1/(region - i)) of the `left` writes not yet placed as one
/// WriteBurst.
void ScatterWrites(GuestMemory& memory, std::uint64_t writes,
                   std::uint64_t region, Xoshiro256& rng) {
  if (writes < region) {
    for (std::uint64_t i = 0; i < writes; ++i) {
      memory.WritePage(rng.NextBelow(region), FreshSeed(rng));
    }
    return;
  }
  std::uint64_t left = writes;
  for (PageId page = 0; page < region && left > 0; ++page) {
    const std::uint64_t count = rng.NextBinomial(
        left, 1.0 / static_cast<double>(region - page));
    if (count == 0) continue;
    memory.WriteBurst(page, count, FreshSeed(rng));
    left -= count;
  }
}

}  // namespace

void IdleWorkload::Config::Validate() const {
  VEC_CHECK_MSG(std::isfinite(write_rate_pages_per_s) &&
                    write_rate_pages_per_s >= 0.0,
                "idle write_rate_pages_per_s must be finite and >= 0");
  VEC_CHECK_MSG(hot_region_pages > 0,
                "idle hot_region_pages must be positive");
}

IdleWorkload::IdleWorkload(Config config)
    : config_(config), rng_(config.seed) {
  config_.Validate();
}

void IdleWorkload::Advance(GuestMemory& memory, SimDuration dt) {
  const std::uint64_t writes =
      OpsFor(Throttled(config_.write_rate_pages_per_s), dt, carry_);
  const std::uint64_t region =
      std::min(config_.hot_region_pages, memory.PageCount());
  ScatterWrites(memory, writes, region, rng_);
}

UniformRandomWorkload::UniformRandomWorkload(double write_rate_pages_per_s,
                                             std::uint64_t seed)
    : rate_(write_rate_pages_per_s), rng_(seed) {
  VEC_CHECK(rate_ >= 0.0);
}

void UniformRandomWorkload::Advance(GuestMemory& memory, SimDuration dt) {
  const std::uint64_t writes = OpsFor(Throttled(rate_), dt, carry_);
  ScatterWrites(memory, writes, memory.PageCount(), rng_);
}

void HotspotWorkload::Config::Validate() const {
  VEC_CHECK_MSG(std::isfinite(write_rate_pages_per_s) &&
                    write_rate_pages_per_s >= 0.0,
                "hotspot write_rate_pages_per_s must be finite and >= 0");
  VEC_CHECK_MSG(hot_fraction > 0.0 && hot_fraction <= 1.0,
                "hot_fraction must be in (0, 1]");
  VEC_CHECK_MSG(hot_probability >= 0.0 && hot_probability <= 1.0,
                "hot_probability must be in [0, 1]");
}

HotspotWorkload::HotspotWorkload(Config config)
    : config_(config), rng_(config.seed) {
  config_.Validate();
}

void HotspotWorkload::Advance(GuestMemory& memory, SimDuration dt) {
  const std::uint64_t writes =
      OpsFor(Throttled(config_.write_rate_pages_per_s), dt, carry_);
  const auto n = memory.PageCount();
  const auto hot_pages = std::max<std::uint64_t>(
      1, static_cast<std::uint64_t>(config_.hot_fraction *
                                    static_cast<double>(n)));
  // Each write lands in the hot region with hot_probability, else
  // anywhere in RAM (the hot region included); a hot page's count is the
  // sum of its two parts' bursts.
  const std::uint64_t hot_writes =
      rng_.NextBinomial(writes, config_.hot_probability);
  ScatterWrites(memory, hot_writes, hot_pages, rng_);
  ScatterWrites(memory, writes - hot_writes, n, rng_);
}

SequentialRamdiskWorkload::SequentialRamdiskWorkload(
    std::uint64_t memory_pages, double ramdisk_fraction, std::uint64_t seed)
    : rng_(seed) {
  VEC_CHECK_MSG(ramdisk_fraction > 0.0 && ramdisk_fraction <= 1.0,
                "ramdisk_fraction must be in (0, 1]");
  span_pages_ = static_cast<std::uint64_t>(
      ramdisk_fraction * static_cast<double>(memory_pages));
  VEC_CHECK(span_pages_ > 0);
  // The Linux ramdisk file lands sequentially in guest-physical memory
  // (§4.5); we place it at the start of the address space.
  first_page_ = 0;
}

void SequentialRamdiskWorkload::Fill(GuestMemory& memory) {
  VEC_CHECK(first_page_ + span_pages_ <= memory.PageCount());
  for (std::uint64_t i = 0; i < span_pages_; ++i) {
    memory.WritePage(first_page_ + i, FreshSeed(rng_));
  }
}

void SequentialRamdiskWorkload::UpdateFraction(GuestMemory& memory,
                                               double fraction) {
  VEC_CHECK_MSG(fraction >= 0.0 && fraction <= 1.0,
                "update fraction must be in [0, 1]");
  VEC_CHECK(first_page_ + span_pages_ <= memory.PageCount());
  const auto updates =
      static_cast<std::uint64_t>(fraction * static_cast<double>(span_pages_));
  if (updates == 0) return;
  // Partial Fisher–Yates over the ramdisk's page indices: uniform sample
  // without replacement in O(updates) extra work.
  std::vector<std::uint64_t> indices(span_pages_);
  for (std::uint64_t i = 0; i < span_pages_; ++i) indices[i] = i;
  for (std::uint64_t i = 0; i < updates; ++i) {
    const std::uint64_t j = i + rng_.NextBelow(span_pages_ - i);
    std::swap(indices[i], indices[j]);
    memory.WritePage(first_page_ + indices[i], FreshSeed(rng_));
  }
}

PageRemapWorkload::PageRemapWorkload(double swaps_per_s, std::uint64_t seed)
    : rate_(swaps_per_s), rng_(seed) {
  VEC_CHECK(rate_ >= 0.0);
}

void PageRemapWorkload::Advance(GuestMemory& memory, SimDuration dt) {
  const std::uint64_t swaps = OpsFor(Throttled(rate_), dt, carry_);
  const auto n = memory.PageCount();
  for (std::uint64_t i = 0; i < swaps; ++i) {
    const PageId a = rng_.NextBelow(n);
    const PageId b = rng_.NextBelow(n);
    if (a == b) continue;
    const std::uint64_t seed_a = memory.Seed(a);
    memory.WritePage(a, memory.Seed(b));
    memory.WritePage(b, seed_a);
  }
}

void PeriodicWorkload::Config::Validate() const {
  VEC_CHECK_MSG(period > SimDuration::zero(),
                "periodic workload period must be positive");
  VEC_CHECK_MSG(busy_fraction >= 0.0 && busy_fraction <= 1.0,
                "periodic workload busy_fraction must be in [0, 1]");
  VEC_CHECK_MSG(phase_offset >= SimDuration::zero(),
                "periodic workload phase_offset must be non-negative");
  busy.Validate();
  quiet.Validate();
}

PeriodicWorkload::PeriodicWorkload(Config config)
    : config_((config.Validate(), config)),
      busy_(config.busy),
      quiet_(config.quiet),
      busy_span_(Seconds(ToSeconds(config.period) * config.busy_fraction)) {
  position_ = config_.phase_offset % config_.period;
}

bool PeriodicWorkload::InBusyPhase() const { return position_ < busy_span_; }

void PeriodicWorkload::Advance(GuestMemory& memory, SimDuration dt) {
  while (dt > SimDuration::zero()) {
    // Run the active phase's writer up to the next phase edge, then flip.
    const SimDuration edge = InBusyPhase() ? busy_span_ : config_.period;
    const SimDuration chunk = std::min(dt, edge - position_);
    if (InBusyPhase()) {
      busy_.Advance(memory, chunk);
    } else {
      quiet_.Advance(memory, chunk);
    }
    position_ = (position_ + chunk) % config_.period;
    dt -= chunk;
  }
}

void PeriodicWorkload::SetThrottle(double keep) {
  Workload::SetThrottle(keep);
  busy_.SetThrottle(keep);
  quiet_.SetThrottle(keep);
}

void CompositeWorkload::Add(std::unique_ptr<Workload> workload) {
  VEC_CHECK(workload != nullptr);
  parts_.push_back(std::move(workload));
}

void CompositeWorkload::Advance(GuestMemory& memory, SimDuration dt) {
  for (auto& part : parts_) part->Advance(memory, dt);
}

void CompositeWorkload::SetThrottle(double keep) {
  Workload::SetThrottle(keep);
  for (auto& part : parts_) part->SetThrottle(keep);
}

}  // namespace vecycle::vm
