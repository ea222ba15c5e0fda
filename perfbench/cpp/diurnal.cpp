// diurnal_policy: bench_policy's `diurnal` corpus entry (3 sites x 2
// hosts, 8 VMs of 4 MiB, 2 days after a 2-day warm-up, 1400 pages/s busy
// phase) under affinity_cycle placement on one simulator.
//
// policy::PolicyRunner::Run builds its world and its VM workloads
// internally, so a benchmark that wants to time the workloads and the
// policy cannot call it. This file replays the same loop through the
// public API instead — ScenarioGen waves, RunFor, Observe, RunPolicy —
// and DiurnalFidelity() proves it reproduces PolicyRunner::Run exactly.
// Setup(), the workload factory and the leg resolution mirror
// src/policy/runner.cpp step for step; keep them in step with it.
#include <algorithm>
#include <cstdio>
#include <memory>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include "benches.hpp"
#include "common/check.hpp"
#include "common/rng.hpp"
#include "core/cluster.hpp"
#include "core/orchestrator.hpp"
#include "core/vm_instance.hpp"
#include "policy/policies.hpp"
#include "policy/scenario.hpp"
#include "sim/simulator.hpp"
#include "spans.hpp"
#include "vm/workload.hpp"

namespace perfbench {
namespace {

using namespace vecycle;

policy::ScenarioConfig DiurnalConfig(std::uint64_t seed) {
  policy::ScenarioConfig config;
  config.kind = policy::ScenarioKind::kDiurnal;
  config.sites = 3;
  config.hosts_per_site = 2;
  config.vms = 8;
  config.vm_ram = MiB(4);
  config.days = 2;
  config.busy_rate_pages_per_s = 1400.0;
  config.seed = seed;
  return config;
}

/// bench_policy's "affinity_cycle": cycle-aware deferral around
/// checkpoint-affinity scoring, with the corpus's 12 h deferral bound.
std::unique_ptr<policy::PlacementPolicy> MakeAffinityCycle() {
  policy::PolicyConfig config;
  config.max_defer = Hours(12.0);
  return std::make_unique<policy::CycleAwarePolicy>(
      std::make_unique<policy::CheckpointAffinityPolicy>(config), config);
}

/// bench_policy's corpus migration config.
migration::MigrationConfig CorpusMigrationConfig() {
  migration::MigrationConfig config;
  config.strategy = migration::Strategy::kHashes;
  config.stop_copy_threshold_pages = 8;
  return config;
}

/// The cyclic-kind workload of PolicyRunner (runner.cpp MakeWorkload).
std::unique_ptr<vm::Workload> MakeCyclicWorkload(
    const policy::ScenarioConfig& config, std::uint32_t vm_index,
    std::uint64_t seed) {
  const std::uint64_t pages =
      std::max<std::uint64_t>(1, config.vm_ram.count / kPageSize);
  vm::PeriodicWorkload::Config periodic;
  periodic.period = Hours(24.0);
  periodic.busy_fraction = 10.0 / 24.0;
  periodic.phase_offset = Hours(
      0.25 + 24.0 * static_cast<double>(vm_index) /
                 static_cast<double>(config.vms));
  periodic.busy.write_rate_pages_per_s = config.busy_rate_pages_per_s;
  periodic.busy.hot_fraction = 0.25;
  periodic.busy.hot_probability = 1.0;
  periodic.busy.seed = seed;
  periodic.quiet.write_rate_pages_per_s = 0.5;
  periodic.quiet.hot_region_pages =
      std::max<std::uint64_t>(1, std::min<std::uint64_t>(64, pages / 4));
  periodic.quiet.seed = seed + 1;
  return std::make_unique<vm::PeriodicWorkload>(periodic);
}

bool Satisfied(const policy::Scenario& scenario, const policy::Demand& demand,
               const core::VmInstance& vm) {
  const std::string current = vm.CurrentHost();
  bool on_site = false;
  for (std::uint32_t h = 0; h < scenario.config.hosts_per_site; ++h) {
    if (current == policy::Scenario::HostName(demand.site, h)) on_site = true;
  }
  switch (demand.rule) {
    case policy::Demand::Candidates::kAnyOther:
      return false;
    case policy::Demand::Candidates::kSite:
      return on_site;
    case policy::Demand::Candidates::kNotSite:
      return !on_site;
  }
  VEC_CHECK_MSG(false, "unknown demand rule");
  return true;
}

std::vector<core::HostId> CandidatesFor(const policy::Scenario& scenario,
                                        const policy::Demand& demand) {
  std::vector<core::HostId> candidates;
  switch (demand.rule) {
    case policy::Demand::Candidates::kAnyOther:
      break;
    case policy::Demand::Candidates::kSite:
      for (std::uint32_t h = 0; h < scenario.config.hosts_per_site; ++h) {
        candidates.push_back(policy::Scenario::HostName(demand.site, h));
      }
      break;
    case policy::Demand::Candidates::kNotSite:
      for (std::uint32_t i = 0; i < scenario.HostCount(); ++i) {
        if (scenario.SiteOf(i) != demand.site) {
          candidates.push_back(scenario.HostNameAt(i));
        }
      }
      break;
  }
  return candidates;
}

class DiurnalBench final : public Bench {
 public:
  // Probed: see ProbeSeconds and perfbench/README.md.
  DiurnalBench() : Bench(/*probed=*/true) {}

  void Setup(std::uint64_t seed, bool traced) override {
    scenario_ = policy::ScenarioGen(DiurnalConfig(seed)).Generate();
    scenario_.config.Validate();
    const policy::ScenarioConfig& config = scenario_.config;

    simulator_ = std::make_unique<sim::Simulator>();
    cluster_ = std::make_unique<core::Cluster>(*simulator_);
    const std::uint32_t hosts = scenario_.HostCount();
    for (std::uint32_t h = 0; h < hosts; ++h) {
      cluster_->AddHost(
          {scenario_.HostNameAt(h), sim::DiskConfig::Ssd(), {}, {}, {}});
    }
    const sim::LinkConfig intersite{MegabitsPerSecond(50.0),
                                    Milliseconds(5.0), Bytes{0}};
    for (std::uint32_t a = 0; a < hosts; ++a) {
      for (std::uint32_t b = a + 1; b < hosts; ++b) {
        cluster_->Connect(scenario_.HostNameAt(a), scenario_.HostNameAt(b),
                          scenario_.SiteOf(a) == scenario_.SiteOf(b)
                              ? sim::LinkConfig::Lan()
                              : intersite);
      }
    }
    orchestrator_ = std::make_unique<core::MigrationOrchestrator>(*cluster_);

    SplitMix64 seeder(config.seed ^ 0x9c0ffee123456789ull);
    for (std::uint32_t v = 0; v < config.vms; ++v) {
      auto vm = std::make_unique<core::VmInstance>(
          policy::Scenario::VmName(v), config.vm_ram,
          vm::ContentMode::kSeedOnly);
      Xoshiro256 rng(seeder.Next());
      vm::MemoryProfile{}.Apply(vm->Memory(), rng);
      std::unique_ptr<vm::Workload> workload =
          MakeCyclicWorkload(config, v, seeder.Next());
      if (traced) {
        workload = std::make_unique<TimedWorkload>(std::move(workload));
      }
      vm->SetWorkload(std::move(workload));
      orchestrator_->Deploy(*vm, scenario_.HostNameAt(v % hosts));
      vms_.push_back(std::move(vm));
    }
    for (auto& vm : vms_) fleet_.push_back(vm.get());

    policy_ = MakeAffinityCycle();
    if (traced) timed_policy_ = std::make_unique<TimedPolicy>(*policy_);
    events_before_ = simulator_->ProcessedEvents();
  }

  void Run() override {
    policy::PlacementPolicy& policy =
        timed_policy_ != nullptr ? *timed_policy_ : *policy_;
    const auto config = CorpusMigrationConfig();
    const SimDuration step = scenario_.config.step;
    for (const policy::Wave& wave : scenario_.waves) {
      AdvanceObserved(policy, wave.advance, step);
      const auto legs = ResolveLegs(wave);
      if (legs.empty()) continue;
      submitted_ += legs.size();
      {
        ScopedSpan span("core.run_policy");
        orchestrator_->RunPolicy(fleet_, legs, policy, config, step);
      }
      Lap();
    }
  }

  Outcome Collect() override {
    Outcome outcome;
    auto& scheduler = orchestrator_->Scheduler();
    outcome.submitted = submitted_;
    outcome.aborted = scheduler.Aborts().size();
    outcome.retries = scheduler.Retries();
    for (const auto& completion : scheduler.Completions()) {
      outcome.legs.push_back(completion.stats);
    }
    outcome.sim_events = simulator_->ProcessedEvents() - events_before_;
    for (const core::Host* host : cluster_->Hosts()) {
      auto& store = cluster_->GetHost(host->Id()).Store();
      outcome.storage_footprint_mib += ToMiB(store.FootprintOnDisk());
      outcome.storage_evictions += store.Evictions();
      for (const auto* vm : fleet_) {
        if (store.Has(vm->Id())) ++outcome.storage_checkpoints;
      }
    }
    outcome.decisions = policy_->Stats();
    outcome.fingerprint = Result().fingerprint;
    if (outcome.legs.size() != submitted_) {
      outcome.failures.push_back(
          "diurnal_policy: " + std::to_string(outcome.legs.size()) +
          " completions for " + std::to_string(submitted_) + " legs");
    }
    if (outcome.decisions.decisions != submitted_) {
      outcome.failures.push_back(
          "diurnal_policy: policy decided " +
          std::to_string(outcome.decisions.decisions) + " of " +
          std::to_string(submitted_) + " legs");
    }
    return outcome;
  }

  /// The PolicyRunner scorecard of this run (runner.cpp RunScenario).
  policy::RunResult Result() {
    policy::RunResult result;
    for (const auto& completion :
         orchestrator_->Scheduler().Completions()) {
      result.wire_bytes.count += completion.stats.tx_bytes.count;
      result.bulk_exchange_bytes.count +=
          completion.stats.bulk_exchange_bytes.count;
      result.sum_migration_time += completion.stats.total_time;
      result.downtimes.push_back(completion.stats.downtime);
    }
    result.completed = result.downtimes.size();
    result.decisions = policy_->Stats();
    std::uint64_t fp =
        SplitMix64(static_cast<std::uint64_t>(result.completed)).Next();
    fp = SplitMix64(fp ^ result.wire_bytes.count).Next();
    fp = SplitMix64(fp ^ static_cast<std::uint64_t>(
                             result.P99Downtime().count()))
             .Next();
    result.fingerprint = fp;
    return result;
  }

 private:
  /// Quiescent advance in step-sized chunks, feeding every VM to the
  /// policy after each chunk (runner.cpp AdvanceObserved).
  void AdvanceObserved(policy::PlacementPolicy& policy, SimDuration advance,
                       SimDuration step) {
    SimDuration remaining = advance;
    while (remaining > SimDuration::zero()) {
      const SimDuration chunk = std::min(step, remaining);
      {
        ScopedSpan span("core.run_for");
        orchestrator_->RunFor(fleet_, chunk);
      }
      const SimTime now = simulator_->Now();
      for (core::VmInstance* vm : fleet_) policy.Observe(*vm, now);
      remaining -= chunk;
      Lap();
    }
  }

  /// runner.cpp ResolveLegs: demand order, then drained VMs in fleet
  /// order; satisfied demands produce no leg.
  std::vector<core::PolicyLeg> ResolveLegs(const policy::Wave& wave) {
    std::vector<core::PolicyLeg> legs;
    std::set<const core::VmInstance*> claimed;
    for (const policy::Demand& demand : wave.demands) {
      VEC_CHECK_MSG(demand.vm < fleet_.size(),
                    "scenario demand names an unknown VM");
      core::VmInstance* vm = fleet_[demand.vm];
      if (Satisfied(scenario_, demand, *vm)) continue;
      if (!claimed.insert(vm).second) continue;
      legs.push_back(core::PolicyLeg{vm, CandidatesFor(scenario_, demand),
                                     demand.priority});
    }
    for (const std::uint32_t host_index : wave.drain_hosts) {
      const std::string host = scenario_.HostNameAt(host_index);
      for (core::VmInstance* vm : fleet_) {
        if (vm->CurrentHost() != host) continue;
        if (!claimed.insert(vm).second) continue;
        legs.push_back(core::PolicyLeg{vm, {}, 0});
      }
    }
    return legs;
  }

  policy::Scenario scenario_;
  std::unique_ptr<sim::Simulator> simulator_;
  std::unique_ptr<core::Cluster> cluster_;
  std::unique_ptr<core::MigrationOrchestrator> orchestrator_;
  std::vector<std::unique_ptr<core::VmInstance>> vms_;
  std::vector<core::VmInstance*> fleet_;
  std::unique_ptr<policy::PlacementPolicy> policy_;
  std::unique_ptr<TimedPolicy> timed_policy_;
  std::uint64_t submitted_ = 0;
  std::uint64_t events_before_ = 0;
};

void Compare(std::vector<std::string>& diffs, const char* field,
             std::uint64_t a, std::uint64_t b) {
  if (a != b) {
    diffs.push_back(std::string(field) + ": replay " + std::to_string(a) +
                    ", PolicyRunner " + std::to_string(b));
  }
}

void Compare(std::vector<std::string>& diffs, const char* field, double a,
             double b) {
  if (a != b) {
    char line[160];
    std::snprintf(line, sizeof(line), "%s: replay %.17g, PolicyRunner %.17g",
                  field, a, b);
    diffs.emplace_back(line);
  }
}

}  // namespace

std::unique_ptr<Bench> MakeDiurnalBench() {
  return std::make_unique<DiurnalBench>();
}

policy::RunResult DiurnalReference(std::uint64_t seed) {
  const auto scenario = policy::ScenarioGen(DiurnalConfig(seed)).Generate();
  auto policy = MakeAffinityCycle();
  return policy::PolicyRunner::Run(scenario, *policy,
                                   CorpusMigrationConfig());
}

std::vector<std::string> DiurnalFidelity(std::uint64_t seed, bool traced,
                                         const policy::RunResult& want) {
  DiurnalBench bench;
  bench.Setup(seed, traced);
  bench.Run();
  const policy::RunResult got = bench.Result();

  std::vector<std::string> diffs;
  auto count = [](auto value) { return static_cast<std::uint64_t>(value); };
  Compare(diffs, "completed", count(got.completed), count(want.completed));
  Compare(diffs, "wire_bytes", count(got.wire_bytes.count),
          count(want.wire_bytes.count));
  Compare(diffs, "bulk_exchange_bytes", count(got.bulk_exchange_bytes.count),
          count(want.bulk_exchange_bytes.count));
  Compare(diffs, "sum_migration_time_ns",
          count(got.sum_migration_time.count()),
          count(want.sum_migration_time.count()));
  if (got.downtimes != want.downtimes) {
    diffs.emplace_back("downtimes: per-leg downtime lists differ");
  }
  Compare(diffs, "fingerprint", count(got.fingerprint),
          count(want.fingerprint));
  const auto& a = got.decisions;
  const auto& b = want.decisions;
  Compare(diffs, "decisions", count(a.decisions), count(b.decisions));
  Compare(diffs, "deferred", count(a.deferred), count(b.deferred));
  Compare(diffs, "affinity_hits", count(a.affinity_hits),
          count(b.affinity_hits));
  Compare(diffs, "cold_placements", count(a.cold_placements),
          count(b.cold_placements));
  Compare(diffs, "affinity_sum", a.affinity_sum, b.affinity_sum);
  Compare(diffs, "score_sum", a.score_sum, b.score_sum);
  Compare(diffs, "max_defer_ns", count(a.max_defer.count()),
          count(b.max_defer.count()));
  return diffs;
}

}  // namespace perfbench
