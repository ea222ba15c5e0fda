#include "migration/postcopy.hpp"

#include <algorithm>

#include "common/check.hpp"
#include "net/message.hpp"

namespace vecycle::migration {

PostCopyActor::PostCopyActor(const MigrationRun& run,
                             std::shared_ptr<const bool> lifetime,
                             obs::TraceRecorder* tracer,
                             obs::TrackId prefetch_track,
                             obs::TrackId fault_track)
    : run_(run),
      config_(run.config.postcopy),
      lifetime_(std::move(lifetime)),
      tracer_(tracer),
      prefetch_track_(prefetch_track),
      fault_track_(fault_track) {
  const auto& source = *run_.source_memory;
  memory_ = std::make_unique<vm::GuestMemory>(source.RamSize(), source.Mode(),
                                              run_.config.algorithm);
  residency_.assign(source.PageCount(), Residency::kUnknown);
  fetch_arrival_.assign(source.PageCount(), kSimEpoch);
  remaining_ = source.PageCount();
  touch_rng_ = Xoshiro256(config_.touch_seed);
  reverse_ = run_.direction == sim::Direction::kAtoB ? sim::Direction::kBtoA
                                                     : sim::Direction::kAtoB;
  if (tracer_ != nullptr) {
    remaining_counter_ = tracer_->Name("remaining_pages");
    fault_name_ = tracer_->Name("remote_fault");
  }
}

void PostCopyActor::Start(SimTime t0) {
  const auto& source = *run_.source_memory;
  auto* store = run_.destination.store;

  // Destination setup: restore the stale checkpoint if we may use it.
  setup_done_ = t0;
  if (run_.config.strategy == Strategy::kHashes && store != nullptr &&
      store->Has(run_.vm_id) &&
      store->Peek(run_.vm_id)->PageCount() == source.PageCount()) {
    const auto load = store->Load(run_.vm_id, t0);
    checkpoint_ = load.checkpoint;
    setup_done_ = load.ready_at;
    checkpoint_->RestoreInto(*memory_);
  }

  // Switchover: pause at the source, ship device state, resume at the
  // destination. This is the entire downtime.
  switch_start_ = setup_done_;
  resumed_at_ = run_.link->Transmit(run_.direction, switch_start_,
                                       config_.switchover_state);
  stats_.tx_bytes += config_.switchover_state;
  stats_.downtime = resumed_at_ - switch_start_;

  // VeCycle composition: ship the VM's checksum vector so the
  // destination can tell which checkpoint pages are still valid. The
  // source computes the vector *before* pausing, while the guest still
  // runs (entries for pages dirtied during the scan are invalidated and
  // simply fail verification later — a bounded imprecision the model
  // folds into the churn itself), so only the wire transfer lands after
  // switchover. Faults that arrive before the vector wait for it: it
  // is milliseconds away, while a blind remote fetch of a page the
  // checkpoint already holds wastes link time everyone else needs.
  if (checkpoint_ != nullptr) {
    run_.source.cpu->Hash(t0, source.RamSize(), run_.config.algorithm);
    const Bytes vector_bytes{source.PageCount() *
                             WireSizeBytes(run_.config.algorithm)};
    vector_ready_ =
        run_.link->Transmit(run_.direction, switch_start_, vector_bytes);
    stats_.tx_bytes += vector_bytes;
    stats_.checksum_vector_bytes = vector_bytes;
  } else {
    vector_ready_ = resumed_at_;
  }

  ScheduleAt(switch_start_, [this] {
    if (on_switchover) on_switchover(switch_start_);
  });
  ScheduleAt(resumed_at_, [this] {
    if (on_resumed) on_resumed(resumed_at_);
  });
  // Background prefetcher and guest touch process.
  ScheduleAt(std::max(resumed_at_, vector_ready_), [this] { PumpPrefetch(); });
  if (config_.guest_touch_rate_per_s > 0.0) ScheduleNextTouch(resumed_at_);
}

void PostCopyActor::AuditOutcome(audit::SimAuditor& auditor,
                                 const vm::GuestMemory& memory) const {
  VEC_CHECK_MSG(stats_.pages_from_checkpoint + stats_.pages_prefetched +
                        stats_.remote_faults ==
                    PageCount(),
                "audit: post-copy residency conservation violated "
                "(checkpoint + prefetch + fault != page count)");
  VEC_CHECK_MSG(memory.ContentFingerprint() ==
                    run_.source_memory->ContentFingerprint(),
                "audit: post-copy destination digest != source digest");
  auditor.OnScalar("pc_remote_faults", stats_.remote_faults);
  auditor.OnScalar("pc_tx_bytes", stats_.tx_bytes.count);
  auditor.OnScalar(
      "pc_residency_ns",
      static_cast<std::uint64_t>(stats_.time_to_residency.count()));
  auditor.OnScalar("pc_memory_digest", memory.ContentFingerprint());
}

void PostCopyActor::MarkResident(vm::PageId page) {
  if (residency_[page] == Residency::kResident) return;
  residency_[page] = Residency::kResident;
  --remaining_;
}

/// Verifies one checkpoint page against the source's checksum vector: one
/// 4 KiB hash. The background sweep runs on the host's checksum engine;
/// demand faults verify on the faulting vCPU (`fault_cpu_`) so they are
/// not head-of-line blocked behind the sweep. Returns true when the
/// checkpoint content is still correct.
bool PostCopyActor::VerifyAgainstVector(vm::PageId page, SimTime when,
                                        bool demand_path, SimTime& work_done) {
  auto& cpu = demand_path ? fault_cpu_ : *run_.destination.cpu;
  work_done = cpu.Hash(when, Bytes{kPageSize}, run_.config.algorithm);
  return checkpoint_ != nullptr &&
         checkpoint_->SeedAt(page) == run_.source_memory->Seed(page);
}

/// Books one page fetch on the link; returns arrival time.
SimTime PostCopyActor::BookFetch(vm::PageId page, SimTime when) {
  // Request (header) travels backward, the page forward. Zero pages
  // compress to a bare header as everywhere else.
  const SimTime asked = run_.link->Transmit(
      reverse_, when, Bytes{net::kRecordHeaderBytes});
  const bool zero = run_.source_memory->Seed(page) == vm::kZeroPageSeed;
  const Bytes payload{net::kRecordHeaderBytes + (zero ? 0 : kPageSize)};
  const SimTime arrival =
      run_.link->Transmit(run_.direction, asked, payload);
  stats_.tx_bytes += payload;
  return arrival;
}

void PostCopyActor::CompleteFetch(vm::PageId page, SimTime arrival) {
  ScheduleAt(arrival, [this, page] {
    memory_->WritePage(page, run_.source_memory->Seed(page));
    MarkResident(page);
    MaybeFinish(run_.simulator->Now());
  });
}

void PostCopyActor::PumpPrefetch() {
  const SimTime now = run_.simulator->Now();
  if (tracer_ != nullptr) {
    tracer_->Counter(prefetch_track_, remaining_counter_, now,
                            static_cast<double>(remaining_));
  }
  std::uint32_t handled = 0;
  SimTime last_arrival = now;
  while (prefetch_cursor_ < PageCount() &&
         handled < config_.prefetch_batch) {
    const vm::PageId page = prefetch_cursor_++;
    if (residency_[page] != Residency::kUnknown) continue;
    ++handled;
    if (checkpoint_ != nullptr) {
      SimTime verified;
      if (VerifyAgainstVector(page, now, /*demand_path=*/false, verified)) {
        ++stats_.pages_from_checkpoint;
        memory_->WritePage(page, checkpoint_->SeedAt(page));
        MarkResident(page);
        last_arrival = std::max(last_arrival, verified);
        continue;
      }
      last_arrival = std::max(last_arrival, verified);
    }
    residency_[page] = Residency::kFetching;
    const SimTime arrival = BookFetch(page, now);
    fetch_arrival_[page] = arrival;
    ++stats_.pages_prefetched;
    CompleteFetch(page, arrival);
    last_arrival = std::max(last_arrival, arrival);
  }

  if (prefetch_cursor_ < PageCount()) {
    // Pace off the work just issued so demand faults can interleave.
    const SimTime next =
        std::max(now, last_arrival - run_.link->Config().latency);
    ScheduleAt(next, [this] { PumpPrefetch(); });
  } else {
    MaybeFinish(std::max(now, last_arrival));
  }
}

void PostCopyActor::ScheduleNextTouch(SimTime from) {
  const SimDuration gap = Seconds(1.0 / config_.guest_touch_rate_per_s);
  ScheduleAt(from + gap, [this] { OnTouch(); });
}

void PostCopyActor::OnTouch() {
  if (remaining_ == 0) return;  // fully resident: touches are free now
  const SimTime now = run_.simulator->Now();
  const vm::PageId page = touch_rng_.NextBelow(PageCount());
  // The touch loop is closed: a faulting guest thread blocks until its
  // page is resident, so the next touch is scheduled from the stall's
  // resolution, never piling unbounded faults onto the link.
  SimTime resume_at = now;
  switch (residency_[page]) {
    case Residency::kResident:
      break;
    case Residency::kFetching:
      // Stall until the in-flight fetch lands.
      if (fetch_arrival_[page] > now) {
        stats_.total_stall += fetch_arrival_[page] - now;
        resume_at = fetch_arrival_[page];
      }
      break;
    case Residency::kUnknown: {
      // Verify locally first when a checkpoint candidate exists, waiting
      // for the (imminent) checksum vector if needed; only genuinely
      // diverged pages fault remotely.
      SimTime ready = now;
      if (checkpoint_ != nullptr) {
        ready = std::max(ready, vector_ready_);
        SimTime verified;
        if (VerifyAgainstVector(page, ready, /*demand_path=*/true,
                                verified)) {
          ++stats_.pages_from_checkpoint;
          memory_->WritePage(page, checkpoint_->SeedAt(page));
          MarkResident(page);
          stats_.total_stall += verified - now;  // wait + verify
          resume_at = verified;
          MaybeFinish(verified);
          break;
        }
        ready = verified;
      }
      residency_[page] = Residency::kFetching;
      const SimTime arrival = BookFetch(page, ready);
      fetch_arrival_[page] = arrival;
      ++stats_.remote_faults;
      if (tracer_ != nullptr) {
        tracer_->Instant(fault_track_, fault_name_, now);
        tracer_->Arg(tracer_->Name("page"), page);
      }
      stats_.total_stall += arrival - now;
      resume_at = arrival;
      CompleteFetch(page, arrival);
      break;
    }
  }
  ScheduleNextTouch(resume_at);
}

/// Residency is reached at `when`, which may lie ahead of the clock (the
/// last page was verified on a CPU still busy hashing); the milestone
/// fires from its own event at that instant.
void PostCopyActor::MaybeFinish(SimTime when) {
  if (remaining_ != 0 || finished_) return;
  finished_ = true;
  stats_.time_to_residency = when - resumed_at_;
  ScheduleAt(when, [this, when] {
    if (on_resident) on_resident(when);
  });
}

}  // namespace vecycle::migration
