#include "core/consolidation.hpp"

#include <algorithm>

#include "common/check.hpp"

namespace vecycle::core {

void ConsolidationPolicy::Validate() const {
  VEC_CHECK_MSG(idle_threshold_writes_per_s >= 0.0,
                "idle threshold must be non-negative");
  VEC_CHECK_MSG(
      active_threshold_writes_per_s >= idle_threshold_writes_per_s,
      "active threshold must not sit below the idle threshold "
      "(hysteresis would invert)");
  VEC_CHECK_MSG(min_dwell >= SimDuration::zero(),
                "min dwell must be non-negative");
}

ConsolidationManager::ConsolidationManager(
    Cluster& cluster, MigrationOrchestrator& orchestrator,
    HostId consolidation_host, ConsolidationPolicy policy,
    migration::MigrationConfig migration_config)
    : cluster_(cluster),
      orchestrator_(orchestrator),
      consolidation_host_(std::move(consolidation_host)),
      policy_(policy),
      migration_config_(migration_config) {
  policy_.Validate();
  (void)cluster_.GetHost(consolidation_host_);  // existence check
}

void ConsolidationManager::Register(VmInstance& vm, HostId worker_host) {
  VEC_CHECK_MSG(!vm.CurrentHost().empty(),
                "register requires a deployed VM: " + vm.Id());
  (void)cluster_.GetHost(worker_host);
  VEC_CHECK_MSG(
      vm.CurrentHost() == worker_host ||
          vm.CurrentHost() == consolidation_host_,
      "VM must start on its worker or the consolidation host: " + vm.Id());
  Managed managed;
  managed.vm = &vm;
  managed.worker_host = std::move(worker_host);
  managed.last_move = cluster_.Simulator().Now();
  // Anchor the sensor so the first tick yields a real rate; an unanchored
  // sensor reads 0 writes/s, which would masquerade as idleness.
  managed.sensor.AddSample(cluster_.Simulator().Now(),
                           vm.Memory().TotalWrites());
  vms_.push_back(std::move(managed));
}

bool ConsolidationManager::IsConsolidated(const VmInstance& vm) const {
  return vm.CurrentHost() == consolidation_host_;
}

void ConsolidationManager::Tick(SimDuration step) {
  VEC_CHECK_MSG(step > SimDuration::zero(), "tick step must be positive");
  auto& simulator = cluster_.Simulator();
  simulator.RunUntil(simulator.Now() + step);
  const SimTime now = simulator.Now();

  for (auto& managed : vms_) {
    auto& vm = *managed.vm;
    if (vm.Workload() != nullptr) {
      vm.Workload()->Advance(vm.Memory(), step);
    }
    managed.sensor.AddSample(now, vm.Memory().TotalWrites());
    MaybeMigrate(managed, now);
  }
}

void ConsolidationManager::MaybeMigrate(Managed& managed, SimTime now) {
  auto& vm = *managed.vm;
  if (now - managed.last_move < policy_.min_dwell) return;

  const double rate = managed.sensor.LatestRate();
  const bool consolidated = IsConsolidated(vm);

  const bool should_consolidate =
      !consolidated && rate <= policy_.idle_threshold_writes_per_s;
  const bool should_activate =
      consolidated && rate >= policy_.active_threshold_writes_per_s;
  if (!should_consolidate && !should_activate) return;

  const HostId target =
      should_consolidate ? consolidation_host_ : managed.worker_host;
  const auto stats = orchestrator_.Migrate(vm, target, migration_config_);
  managed.last_move = cluster_.Simulator().Now();
  managed.ever_moved = true;
  // The VM adopted a fresh memory object whose write counter reflects the
  // reconstruction, not guest activity; re-anchor so the next interval
  // measures the guest alone.
  managed.sensor.Reanchor(managed.last_move, vm.Memory().TotalWrites());
  stats_.migration_traffic += stats.tx_bytes;
  stats_.migration_time += stats.total_time;
  if (should_consolidate) {
    ++stats_.consolidations;
  } else {
    ++stats_.activations;
  }
}

}  // namespace vecycle::core
