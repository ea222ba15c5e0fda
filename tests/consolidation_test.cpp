// The consolidation control loop: activity sensing, hysteresis, dwell
// times, and the ping-pong pattern it generates — the very pattern
// VeCycle's checkpoint recycling then makes cheap.
#include <gtest/gtest.h>

#include <memory>

#include "common/check.hpp"
#include "common/rng.hpp"
#include "core/consolidation.hpp"
#include "vm/workload.hpp"

namespace vecycle::core {
namespace {

/// A guest whose write rate can be switched between test phases. Writes
/// concentrate in a small hot region — at test-scale VM sizes a uniform
/// writer would plow through all of RAM within one phase and no
/// similarity would survive for VeCycle to exploit.
class SwitchableWorkload : public vm::Workload {
 public:
  explicit SwitchableWorkload(std::uint64_t seed) : seed_(seed) {}

  void SetRate(double writes_per_s) {
    vm::HotspotWorkload::Config config;
    config.write_rate_pages_per_s = writes_per_s;
    config.hot_fraction = 0.05;
    config.hot_probability = 1.0;
    config.seed = seed_++;
    workload_ = std::make_unique<vm::HotspotWorkload>(config);
  }

  void Advance(vm::GuestMemory& memory, SimDuration dt) override {
    if (workload_ != nullptr) workload_->Advance(memory, dt);
  }

 private:
  std::uint64_t seed_;
  std::unique_ptr<vm::HotspotWorkload> workload_;
};

struct ConsolidationWorld {
  sim::Simulator simulator;
  Cluster cluster{simulator};
  MigrationOrchestrator orchestrator{cluster};

  ConsolidationWorld() {
    cluster.AddHost({"worker-1", sim::DiskConfig::Hdd(), {}, {}, {}});
    cluster.AddHost({"worker-2", sim::DiskConfig::Hdd(), {}, {}, {}});
    cluster.AddHost({"consol", sim::DiskConfig::Hdd(), {}, {}, {}});
    cluster.Connect("worker-1", "consol", sim::LinkConfig::Lan());
    cluster.Connect("worker-2", "consol", sim::LinkConfig::Lan());
  }

  ConsolidationManager MakeManager(
      ConsolidationPolicy policy = DefaultPolicy()) {
    migration::MigrationConfig config;
    config.strategy = migration::Strategy::kHashes;
    return ConsolidationManager(cluster, orchestrator, "consol", policy,
                                config);
  }

  static ConsolidationPolicy DefaultPolicy() {
    ConsolidationPolicy policy;
    policy.idle_threshold_writes_per_s = 20.0;
    policy.active_threshold_writes_per_s = 200.0;
    policy.min_dwell = Minutes(10);
    return policy;
  }
};

VmInstance MakeVm(const std::string& id, std::uint64_t seed) {
  VmInstance vm(id, MiB(16), vm::ContentMode::kSeedOnly);
  Xoshiro256 rng(seed);
  vm::MemoryProfile{}.Apply(vm.Memory(), rng);
  return vm;
}

// --- Policy validation. ---

TEST(ConsolidationPolicy, RejectsInvertedHysteresis) {
  ConsolidationPolicy policy;
  policy.idle_threshold_writes_per_s = 300.0;
  policy.active_threshold_writes_per_s = 100.0;
  EXPECT_THROW(policy.Validate(), CheckFailure);
}

// --- The control loop. ---

TEST(Consolidation, IdleVmGetsConsolidated) {
  ConsolidationWorld world;
  auto manager = world.MakeManager();
  auto vm = MakeVm("vm-1", 1);
  auto workload = std::make_unique<SwitchableWorkload>(7);
  auto* knob = workload.get();
  vm.SetWorkload(std::move(workload));
  world.orchestrator.Deploy(vm, "worker-1");
  manager.Register(vm, "worker-1");

  knob->SetRate(1.0);  // nearly idle
  for (int i = 0; i < 4; ++i) manager.Tick(Minutes(10));

  EXPECT_TRUE(manager.IsConsolidated(vm));
  EXPECT_EQ(manager.GetStats().consolidations, 1u);
  EXPECT_EQ(manager.GetStats().activations, 0u);
}

TEST(Consolidation, ActiveVmStaysPut) {
  ConsolidationWorld world;
  auto manager = world.MakeManager();
  auto vm = MakeVm("vm-1", 2);
  auto workload = std::make_unique<SwitchableWorkload>(8);
  workload->SetRate(1000.0);
  vm.SetWorkload(std::move(workload));
  world.orchestrator.Deploy(vm, "worker-1");
  manager.Register(vm, "worker-1");

  for (int i = 0; i < 4; ++i) manager.Tick(Minutes(10));
  EXPECT_FALSE(manager.IsConsolidated(vm));
  EXPECT_EQ(manager.GetStats().consolidations, 0u);
}

TEST(Consolidation, ReactivationBringsVmHome) {
  ConsolidationWorld world;
  auto manager = world.MakeManager();
  auto vm = MakeVm("vm-1", 3);
  auto workload = std::make_unique<SwitchableWorkload>(9);
  auto* knob = workload.get();
  vm.SetWorkload(std::move(workload));
  world.orchestrator.Deploy(vm, "worker-1");
  manager.Register(vm, "worker-1");

  knob->SetRate(1.0);
  for (int i = 0; i < 4; ++i) manager.Tick(Minutes(10));
  ASSERT_TRUE(manager.IsConsolidated(vm));

  knob->SetRate(2000.0);  // user is back
  for (int i = 0; i < 4; ++i) manager.Tick(Minutes(10));
  EXPECT_FALSE(manager.IsConsolidated(vm));
  EXPECT_EQ(vm.CurrentHost(), "worker-1");
  EXPECT_EQ(manager.GetStats().activations, 1u);
}

TEST(Consolidation, HysteresisPreventsFlapping) {
  // A rate inside the hysteresis band (idle < rate < active) must cause
  // no movement in either direction.
  ConsolidationWorld world;
  auto manager = world.MakeManager();
  auto vm = MakeVm("vm-1", 4);
  auto workload = std::make_unique<SwitchableWorkload>(10);
  workload->SetRate(100.0);  // between 20 and 200
  vm.SetWorkload(std::move(workload));
  world.orchestrator.Deploy(vm, "worker-1");
  manager.Register(vm, "worker-1");

  for (int i = 0; i < 6; ++i) manager.Tick(Minutes(10));
  EXPECT_EQ(manager.GetStats().consolidations, 0u);
  EXPECT_EQ(manager.GetStats().activations, 0u);
}

TEST(Consolidation, DwellTimeDelaysMigration) {
  ConsolidationWorld world;
  auto policy = ConsolidationWorld::DefaultPolicy();
  policy.min_dwell = Hours(2);
  auto manager = world.MakeManager(policy);
  auto vm = MakeVm("vm-1", 5);
  auto workload = std::make_unique<SwitchableWorkload>(11);
  workload->SetRate(1.0);
  vm.SetWorkload(std::move(workload));
  world.orchestrator.Deploy(vm, "worker-1");
  manager.Register(vm, "worker-1");

  // 60 minutes of idleness: still inside the dwell window.
  for (int i = 0; i < 6; ++i) manager.Tick(Minutes(10));
  EXPECT_FALSE(manager.IsConsolidated(vm));
  // Past the dwell: consolidates.
  for (int i = 0; i < 8; ++i) manager.Tick(Minutes(10));
  EXPECT_TRUE(manager.IsConsolidated(vm));
}

TEST(Consolidation, PingPongGetsCheaperWithVeCycle) {
  // Two full day cycles: the second consolidation finds a checkpoint on
  // the consolidation host and ships far less.
  ConsolidationWorld world;
  auto manager = world.MakeManager();
  auto vm = MakeVm("vm-1", 6);
  auto workload = std::make_unique<SwitchableWorkload>(12);
  auto* knob = workload.get();
  vm.SetWorkload(std::move(workload));
  world.orchestrator.Deploy(vm, "worker-1");
  manager.Register(vm, "worker-1");

  const auto cycle = [&](double idle_rate, double busy_rate) {
    knob->SetRate(idle_rate);
    for (int i = 0; i < 4; ++i) manager.Tick(Minutes(15));
    knob->SetRate(busy_rate);
    for (int i = 0; i < 4; ++i) manager.Tick(Minutes(15));
  };

  cycle(1.0, 2000.0);
  const auto after_first = manager.GetStats().migration_traffic;
  cycle(1.0, 2000.0);
  const auto after_second = manager.GetStats().migration_traffic;

  EXPECT_EQ(manager.GetStats().consolidations, 2u);
  EXPECT_EQ(manager.GetStats().activations, 2u);
  // Second round trip costs less than the first (checkpoints exist on
  // both sides now).
  const auto first_cost = after_first.count;
  const auto second_cost = after_second.count - after_first.count;
  EXPECT_LT(second_cost, first_cost);
}

TEST(Consolidation, ManagesMultipleVmsIndependently) {
  ConsolidationWorld world;
  auto manager = world.MakeManager();
  auto vm1 = MakeVm("vm-1", 7);
  auto vm2 = MakeVm("vm-2", 8);
  auto w1 = std::make_unique<SwitchableWorkload>(13);
  auto w2 = std::make_unique<SwitchableWorkload>(14);
  w1->SetRate(1.0);     // idle: should consolidate
  w2->SetRate(2000.0);  // busy: should stay
  vm1.SetWorkload(std::move(w1));
  vm2.SetWorkload(std::move(w2));
  world.orchestrator.Deploy(vm1, "worker-1");
  world.orchestrator.Deploy(vm2, "worker-2");
  manager.Register(vm1, "worker-1");
  manager.Register(vm2, "worker-2");

  for (int i = 0; i < 4; ++i) manager.Tick(Minutes(10));
  EXPECT_TRUE(manager.IsConsolidated(vm1));
  EXPECT_FALSE(manager.IsConsolidated(vm2));
}

TEST(Consolidation, RegisterRequiresDeployedVm) {
  ConsolidationWorld world;
  auto manager = world.MakeManager();
  auto vm = MakeVm("vm-1", 9);
  EXPECT_THROW(manager.Register(vm, "worker-1"), CheckFailure);
}

}  // namespace
}  // namespace vecycle::core
