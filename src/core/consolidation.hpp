// Dynamic workload consolidation (Verma et al. [26]; §1 and §2.2 name it
// as a likely cause of the ping-pong migration pattern VeCycle exploits):
// low-activity VMs are packed onto a consolidation host so worker hosts
// can power down; when a VM becomes active again it moves back. The
// manager here implements that control loop — activity sensing (through
// vm::CycleDetector's per-interval write rate) with hysteresis and a
// minimum dwell time — and is precisely the component
// that *generates* the small-host-set migration patterns of the IBM
// study [7].
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "core/cluster.hpp"
#include "core/orchestrator.hpp"
#include "core/vm_instance.hpp"
#include "migration/config.hpp"
#include "vm/cycle_detector.hpp"

namespace vecycle::core {

struct ConsolidationPolicy {
  /// Below this write rate a VM counts as idle (candidate to consolidate).
  double idle_threshold_writes_per_s = 20.0;
  /// Above this it counts as active (candidate to return). The gap
  /// between the thresholds is the hysteresis band.
  double active_threshold_writes_per_s = 200.0;
  /// A VM stays put at least this long after any migration (anti-flap).
  SimDuration min_dwell = Minutes(30);

  void Validate() const;
};

/// Drives the consolidate/activate loop for a set of VMs between their
/// home (worker) hosts and one shared consolidation host.
class ConsolidationManager {
 public:
  ConsolidationManager(Cluster& cluster, MigrationOrchestrator& orchestrator,
                       HostId consolidation_host, ConsolidationPolicy policy,
                       migration::MigrationConfig migration_config);

  /// Registers a VM whose home is `worker_host`. The VM must already be
  /// deployed (on the worker or the consolidation host).
  void Register(VmInstance& vm, HostId worker_host);

  /// Advances simulated time by `step`: runs every VM's workload, samples
  /// activity, and performs any migrations the policy calls for.
  void Tick(SimDuration step);

  struct Stats {
    std::uint64_t consolidations = 0;  ///< worker -> consolidation host
    std::uint64_t activations = 0;     ///< consolidation host -> worker
    Bytes migration_traffic;
    SimDuration migration_time = SimDuration::zero();
  };
  [[nodiscard]] const Stats& GetStats() const { return stats_; }

  /// True if the VM currently lives on the consolidation host.
  [[nodiscard]] bool IsConsolidated(const VmInstance& vm) const;

 private:
  struct Managed {
    VmInstance* vm = nullptr;
    HostId worker_host;
    /// Write-rate sampling; the manager reads only the latest interval.
    vm::CycleDetector sensor;
    SimTime last_move = kSimEpoch;
    bool ever_moved = false;
  };

  void MaybeMigrate(Managed& managed, SimTime now);

  Cluster& cluster_;
  MigrationOrchestrator& orchestrator_;
  HostId consolidation_host_;
  ConsolidationPolicy policy_;
  migration::MigrationConfig migration_config_;
  std::vector<Managed> vms_;
  Stats stats_;
};

}  // namespace vecycle::core
