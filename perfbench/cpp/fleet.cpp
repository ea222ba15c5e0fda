// fleet_roundtrip: fleet_pdes's topology (25 sites x 40 hosts x 10 VMs
// of 1 MiB in seed mode, one PDES shard per site) where every VM
// migrates out with kHashes and then home with kHashes. The return leg
// finds the checkpoint its outbound leg left at the home host, so it
// recycles it — VeCycle's mechanism at fleet scale. No guest workload
// runs, so the vm layer does no work here.
//
// Each host pairs with a neighbour inside its site over a LAN link; host
// 0 of each site also connects to host 0 of the next site over a 5 ms
// 1 Gbit/s link, which is the PDES lookahead. VMs on a gateway host hop
// to the next site (cross-shard); the others go to the in-site partner.
#include <algorithm>
#include <cstdio>
#include <memory>
#include <string>
#include <vector>

#include "benches.hpp"
#include "common/rng.hpp"
#include "core/cluster.hpp"
#include "core/orchestrator.hpp"
#include "core/vm_instance.hpp"
#include "sim/sharded.hpp"
#include "spans.hpp"

namespace perfbench {
namespace {

using namespace vecycle;

constexpr std::uint32_t kSites = 25;
constexpr std::uint32_t kHostsPerSite = 40;
constexpr std::uint64_t kVmsPerHost = 10;

std::string HostName(std::uint32_t site, std::uint32_t host) {
  char name[32];
  std::snprintf(name, sizeof(name), "s%u-h%u", site, host);
  return name;
}

class FleetBench final : public Bench {
 public:
  // Not probed: its three segment boundaries sample the host's speed
  // too seldom, and a probe on one core says little about a barrier
  // that waits for all four.
  explicit FleetBench(std::size_t workers)
      : Bench(/*probed=*/false), workers_(workers) {}

  void Setup(std::uint64_t seed, bool /*traced*/) override {
    pdes_ = std::make_unique<sim::ShardedSimulator>(kSites);
    // Serial-mode APIs of the cluster need a nominal simulator; the
    // sharded scheduler routes every session to its own shard.
    cluster_ = std::make_unique<core::Cluster>(pdes_->Shard(0));
    sim::ShardPlan plan;
    const sim::LinkConfig intersite{GigabitsPerSecond(1.0),
                                    Milliseconds(5.0), Bytes{0}};
    for (std::uint32_t site = 0; site < kSites; ++site) {
      for (std::uint32_t host = 0; host < kHostsPerSite; ++host) {
        cluster_->AddHost(
            {HostName(site, host), sim::DiskConfig::Ssd(), {}, {}, {}});
        plan.Assign(HostName(site, host), site);
      }
      for (std::uint32_t host = 0; host + 1 < kHostsPerSite; host += 2) {
        cluster_->Connect(HostName(site, host), HostName(site, host + 1),
                          sim::LinkConfig::Lan());
      }
    }
    for (std::uint32_t site = 0; site < kSites; ++site) {
      cluster_->Connect(HostName(site, 0), HostName((site + 1) % kSites, 0),
                        intersite);
    }
    core::SchedulerConfig scheduler_config;
    scheduler_config.workers = workers_;
    orchestrator_ = std::make_unique<core::MigrationOrchestrator>(
        *cluster_, *pdes_, std::move(plan), scheduler_config);

    SplitMix64 seeder(seed ^ 0xf1ee7000f1ee7000ull);
    for (std::uint32_t site = 0; site < kSites; ++site) {
      for (std::uint32_t host = 0; host < kHostsPerSite; ++host) {
        for (std::uint64_t v = 0; v < kVmsPerHost; ++v) {
          auto vm = std::make_unique<core::VmInstance>(
              "vm-" + std::to_string(vms_.size()), MiB(1),
              vm::ContentMode::kSeedOnly);
          Xoshiro256 rng(seeder.Next());
          vm::MemoryProfile{}.Apply(vm->Memory(), rng);
          orchestrator_->Deploy(*vm, HostName(site, host));
          homes_.push_back(HostName(site, host));
          aways_.push_back(
              host == 0
                  ? HostName((site + 1) % kSites, 0)
                  : HostName(site, host % 2 == 0 ? host + 1 : host - 1));
          vms_.push_back(std::move(vm));
        }
      }
    }
    for (std::uint32_t s = 0; s < kSites; ++s) {
      events_before_.push_back(pdes_->Shard(s).ProcessedEvents());
    }
  }

  void Run() override {
    migration::MigrationConfig config;
    config.strategy = migration::Strategy::kHashes;
    for (std::size_t i = 0; i < vms_.size(); ++i) {
      orchestrator_->MigrateAsync(*vms_[i], aways_[i], config);
    }
    {
      ScopedSpan span("core.drain_out");
      orchestrator_->Drain();
    }
    Lap();
    out_legs_ = orchestrator_->Scheduler().Completions().size();
    for (std::size_t i = 0; i < vms_.size(); ++i) {
      orchestrator_->MigrateAsync(*vms_[i], homes_[i], config);
    }
    ScopedSpan span("core.drain_back");
    orchestrator_->Drain();
  }

  Outcome Collect() override {
    Outcome outcome;
    auto& scheduler = orchestrator_->Scheduler();
    outcome.submitted = 2 * vms_.size();
    outcome.aborted = scheduler.Aborts().size();
    outcome.retries = scheduler.Retries();
    const auto& completions = scheduler.Completions();
    Bytes out_wire;
    Bytes back_wire;
    for (std::size_t i = 0; i < completions.size(); ++i) {
      outcome.legs.push_back(completions[i].stats);
      (i < out_legs_ ? out_wire : back_wire) += completions[i].stats.tx_bytes;
    }

    std::uint64_t max_events = 0;
    for (std::uint32_t s = 0; s < kSites; ++s) {
      const std::uint64_t events =
          pdes_->Shard(s).ProcessedEvents() - events_before_[s];
      outcome.sim_events += events;
      max_events = std::max(max_events, events);
    }
    outcome.shard_events_max_over_mean =
        outcome.sim_events == 0
            ? 1.0
            : static_cast<double>(max_events) * kSites /
                  static_cast<double>(outcome.sim_events);

    for (const core::Host* host : cluster_->Hosts()) {
      auto& store = cluster_->GetHost(host->Id()).Store();
      outcome.storage_footprint_mib += ToMiB(store.FootprintOnDisk());
      outcome.storage_evictions += store.Evictions();
    }
    for (std::size_t i = 0; i < vms_.size(); ++i) {
      // After the round trip each VM's checkpoints sit at both ends.
      for (const std::string* host : {&homes_[i], &aways_[i]}) {
        if (cluster_->GetHost(*host).Store().Has(vms_[i]->Id())) {
          ++outcome.storage_checkpoints;
        }
      }
    }

    outcome.notes = {{"out_leg_wire_mib", ToMiB(out_wire)},
                     {"back_leg_wire_mib", ToMiB(back_wire)}};
    std::uint64_t fp =
        SplitMix64(scheduler.CombinedFingerprint() ^ completions.size())
            .Next();
    fp = SplitMix64(fp ^ out_wire.count).Next();
    outcome.fingerprint = SplitMix64(fp ^ back_wire.count).Next();

    if (out_legs_ != vms_.size() || completions.size() != 2 * vms_.size()) {
      outcome.failures.push_back(
          "fleet_roundtrip: " + std::to_string(out_legs_) + " out and " +
          std::to_string(completions.size() - out_legs_) +
          " back legs completed of " + std::to_string(vms_.size()) +
          " each");
    }
    // The back leg recycles the checkpoint every out leg left behind: it
    // ships hashes, not pages.
    if (back_wire.count * 20 >= out_wire.count) {
      outcome.failures.push_back(
          "fleet_roundtrip: back-leg wire bytes are not under 5% of the "
          "out leg's");
    }
    for (std::size_t i = 0; i < vms_.size(); ++i) {
      if (vms_[i]->CurrentHost() != homes_[i]) {
        outcome.failures.push_back("fleet_roundtrip: " + vms_[i]->Id() +
                                   " did not return home");
        break;
      }
    }
    return outcome;
  }

 private:
  std::size_t workers_;
  std::unique_ptr<sim::ShardedSimulator> pdes_;
  std::unique_ptr<core::Cluster> cluster_;
  std::unique_ptr<core::MigrationOrchestrator> orchestrator_;
  std::vector<std::unique_ptr<core::VmInstance>> vms_;
  std::vector<std::string> homes_;
  std::vector<std::string> aways_;
  std::vector<std::uint64_t> events_before_;
  std::size_t out_legs_ = 0;
};

}  // namespace

std::unique_ptr<Bench> MakeFleetBench(std::size_t workers) {
  return std::make_unique<FleetBench>(workers);
}

}  // namespace perfbench
