// pingpong_materialized: the paper's case. One 256 MiB VM with real
// 4 KiB page images (kMaterialized) and a hotspot guest bounces between
// two LAN hosts with kHashesPlusDedup, running in place for a while
// between legs. Every departure leaves a checkpoint; every arrival after
// the first finds the one the VM left there two legs earlier, so the
// digest layer hashes real page bytes on both sides and the store scans
// and indexes a real image. The traced run arms the audit layer, so the
// conservation and end-state digest audits check every leg.
#include <memory>
#include <string>

#include "benches.hpp"
#include "common/rng.hpp"
#include "core/cluster.hpp"
#include "core/orchestrator.hpp"
#include "core/vm_instance.hpp"
#include "sim/simulator.hpp"
#include "spans.hpp"
#include "vm/workload.hpp"

namespace perfbench {
namespace {

using namespace vecycle;

constexpr int kLegs = 24;
constexpr double kDwellSeconds = 120.0;  ///< simulated run time between legs

class PingPongBench final : public Bench {
 public:
  // Not probed: a probe right after a leg that streamed 256 MiB of
  // page bytes times the leg's aftermath as much as the host.
  PingPongBench() : Bench(/*probed=*/false) {}

  void Setup(std::uint64_t seed, bool traced) override {
    audit_ = traced;
    cluster_ = std::make_unique<core::Cluster>(simulator_);
    for (const char* id : {"A", "B"}) {
      core::HostConfig host;
      host.id = id;
      cluster_->AddHost(host);
    }
    cluster_->Connect("A", "B", sim::LinkConfig::Lan());
    orchestrator_ = std::make_unique<core::MigrationOrchestrator>(*cluster_);

    SplitMix64 seeder(seed ^ 0x9109109109109109ull);
    vm_ = std::make_unique<core::VmInstance>("vm", MiB(256),
                                             vm::ContentMode::kMaterialized);
    Xoshiro256 rng(seeder.Next());
    vm::MemoryProfile{}.Apply(vm_->Memory(), rng);
    vm::HotspotWorkload::Config hotspot;
    hotspot.write_rate_pages_per_s = 200.0;
    hotspot.hot_fraction = 0.1;
    hotspot.hot_probability = 0.9;
    hotspot.seed = seeder.Next();
    std::unique_ptr<vm::Workload> workload =
        std::make_unique<vm::HotspotWorkload>(hotspot);
    if (traced) {
      workload = std::make_unique<TimedWorkload>(std::move(workload));
    }
    vm_->SetWorkload(std::move(workload));
    orchestrator_->Deploy(*vm_, "A");
    events_before_ = simulator_.ProcessedEvents();
  }

  void Run() override {
    migration::MigrationConfig config;
    config.strategy = migration::Strategy::kHashesPlusDedup;
    config.audit = audit_;
    for (int leg = 0; leg < kLegs; ++leg) {
      {
        ScopedSpan span("core.run_for");
        orchestrator_->RunFor(*vm_, Seconds(kDwellSeconds));
      }
      const std::string to = vm_->CurrentHost() == "A" ? "B" : "A";
      {
        ScopedSpan span("core.migrate");
        legs_.push_back(orchestrator_->Migrate(*vm_, to, config));
      }
      Lap();
    }
  }

  Outcome Collect() override {
    Outcome outcome;
    outcome.submitted = kLegs;
    outcome.legs = legs_;
    outcome.sim_events = simulator_.ProcessedEvents() - events_before_;
    for (const char* id : {"A", "B"}) {
      auto& store = cluster_->GetHost(id).Store();
      outcome.storage_footprint_mib += ToMiB(store.FootprintOnDisk());
      outcome.storage_evictions += store.Evictions();
      if (store.Has(vm_->Id())) ++outcome.storage_checkpoints;
    }
    const std::uint64_t pages = vm_->Memory().PageCount();
    std::uint64_t fp = SplitMix64(vm_->Memory().ContentFingerprint()).Next();
    for (std::size_t i = 0; i < legs_.size(); ++i) {
      const auto& stats = legs_[i];
      fp = SplitMix64(fp ^ stats.tx_bytes.count).Next();
      if (stats.Round1Pages() != pages) {
        outcome.failures.push_back("pingpong_materialized: leg " +
                                   std::to_string(i) +
                                   " round 1 does not cover every page");
      }
      // From the second leg on the destination holds a checkpoint of
      // this VM, so most pages travel as checksums.
      if (i > 0 && stats.pages_sent_checksum * 2 < pages) {
        outcome.failures.push_back("pingpong_materialized: leg " +
                                   std::to_string(i) +
                                   " did not recycle the checkpoint");
      }
    }
    outcome.fingerprint = fp;
    if (legs_.size() != static_cast<std::size_t>(kLegs) ||
        outcome.storage_checkpoints != 2) {
      outcome.failures.push_back(
          "pingpong_materialized: expected every leg to complete and a "
          "checkpoint at both hosts");
    }
    return outcome;
  }

 private:
  sim::Simulator simulator_;
  std::unique_ptr<core::Cluster> cluster_;
  std::unique_ptr<core::MigrationOrchestrator> orchestrator_;
  std::unique_ptr<core::VmInstance> vm_;
  std::vector<migration::MigrationStats> legs_;
  std::uint64_t events_before_ = 0;
  bool audit_ = false;
};

}  // namespace

std::unique_ptr<Bench> MakePingPongBench() {
  return std::make_unique<PingPongBench>();
}

}  // namespace perfbench
