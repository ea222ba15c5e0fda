// Post-copy residency actor (related work [13], Hines & Gopalan), composed
// with VeCycle's checkpoint recycling. MigrationSession creates it in
// post-copy mode (MigrationConfig::postcopy) in place of the pre-copy
// source/destination actors.
//
// Pre-copy ships memory *before* switching execution; post-copy switches
// first (minimal downtime) and fetches memory afterwards: a background
// prefetcher streams pages in order while guest accesses to not-yet-
// resident pages stall on demand fetches across the network.
//
// The VeCycle twist: when the destination holds a stale checkpoint
// (strategy kHashes), the source ships the VM's current per-page checksum
// vector at switchover (16 B/page — the §3.2 bulk message in the reverse
// role). Every checkpoint page whose checksum still matches is instantly
// resident, so only the diverged pages can fault remotely. With Fig. 1
// similarities of 60-90%, that removes most of post-copy's notorious
// degradation window. Strategy kFull is classic cold post-copy.
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <vector>

#include "audit/audit.hpp"
#include "common/rng.hpp"
#include "common/units.hpp"
#include "migration/engine.hpp"
#include "migration/stats.hpp"
#include "obs/trace.hpp"
#include "sim/checksum_engine.hpp"
#include "sim/simulator.hpp"
#include "storage/checkpoint_store.hpp"
#include "vm/guest_memory.hpp"

namespace vecycle::migration {

class PostCopyActor {
 public:
  /// Runs `run` (post-copy mode) on run.simulator. The VM in
  /// run.source_memory is frozen at switchover: execution is already at
  /// the destination, so the reconstructed memory must equal it exactly.
  /// Strategy kHashes restores and verifies a destination checkpoint when
  /// one exists; kFull is cold post-copy. `tracer` (null when tracing is
  /// off) receives the prefetch-progress counter and per-fault instants
  /// on the given tracks. Events this actor queues are guarded by the
  /// session's `lifetime` token, as for SourceActor. `run` must outlive
  /// the actor.
  PostCopyActor(const MigrationRun& run, std::shared_ptr<const bool> lifetime,
                obs::TraceRecorder* tracer, obs::TrackId prefetch_track,
                obs::TrackId fault_track);

  /// Destination setup (checkpoint restore), then books the switchover
  /// and the checksum vector and starts the prefetcher and the guest's
  /// touch loop. `start` is the session's t0.
  void Start(SimTime start);

  /// Phase milestones, each fired from its own event: the VM pauses at
  /// the source, the VM resumes at the destination, every page is
  /// resident.
  std::function<void(SimTime)> on_switchover;
  std::function<void(SimTime)> on_resumed;
  std::function<void(SimTime)> on_resident;

  /// downtime, time_to_residency, total_stall, remote_faults,
  /// pages_prefetched, pages_from_checkpoint, tx_bytes and
  /// checksum_vector_bytes; the other fields stay zero.
  [[nodiscard]] const MigrationStats& Stats() const { return stats_; }
  [[nodiscard]] SimTime SetupDone() const { return setup_done_; }
  [[nodiscard]] SimTime SwitchStart() const { return switch_start_; }
  [[nodiscard]] SimTime ResumedAt() const { return resumed_at_; }
  std::unique_ptr<vm::GuestMemory> TakeMemory() { return std::move(memory_); }

  /// Run-level audit: every page reached residency through exactly one
  /// mechanism, and the reconstructed image (`memory`, taken from this
  /// actor) digests equal to the source.
  void AuditOutcome(audit::SimAuditor& auditor,
                    const vm::GuestMemory& memory) const;

 private:
  /// Per-page residency state at the destination.
  enum class Residency : std::uint8_t {
    kUnknown,   ///< not verified / not fetched yet
    kFetching,  ///< a fetch is in flight
    kResident,  ///< correct content in destination RAM
  };

  template <typename F>
  void ScheduleAt(SimTime when, F f) {
    run_.simulator->ScheduleAt(when, sim::GuardedBy(lifetime_, std::move(f)));
  }

  [[nodiscard]] std::uint64_t PageCount() const { return residency_.size(); }
  void MarkResident(vm::PageId page);
  bool VerifyAgainstVector(vm::PageId page, SimTime when, bool demand_path,
                           SimTime& work_done);
  SimTime BookFetch(vm::PageId page, SimTime when);
  void CompleteFetch(vm::PageId page, SimTime arrival);
  void PumpPrefetch();
  void ScheduleNextTouch(SimTime from);
  void OnTouch();
  void MaybeFinish(SimTime when);

  const MigrationRun& run_;
  const PostCopyConfig& config_;
  std::shared_ptr<const bool> lifetime_;
  obs::TraceRecorder* tracer_ = nullptr;
  obs::TrackId prefetch_track_ = 0;
  obs::TrackId fault_track_ = 0;
  sim::Direction reverse_ = sim::Direction::kBtoA;
  std::unique_ptr<vm::GuestMemory> memory_;
  const storage::Checkpoint* checkpoint_ = nullptr;
  std::vector<Residency> residency_;
  std::vector<SimTime> fetch_arrival_;
  std::uint64_t remaining_ = 0;
  std::uint64_t prefetch_cursor_ = 0;
  SimTime setup_done_ = kSimEpoch;
  SimTime switch_start_ = kSimEpoch;
  SimTime resumed_at_ = kSimEpoch;
  SimTime vector_ready_ = kSimEpoch;
  /// The faulting vCPU's hashing capacity (demand-path verification).
  sim::ChecksumEngine fault_cpu_{sim::ChecksumEngineConfig{}};
  Xoshiro256 touch_rng_{1};
  MigrationStats stats_;
  obs::NameId remaining_counter_ = 0;
  obs::NameId fault_name_ = 0;
  bool finished_ = false;
};

}  // namespace vecycle::migration
