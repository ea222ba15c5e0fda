// The placement policy layer: cycle-detector phase learning pinned to a
// hand-computed trace, the shipped policies' choice and deferral rules,
// flat/chunked checkpoint-store affinity agreement, the seeded scenario
// corpus, and the PDES worker-count determinism of full corpus replays.
#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <vector>

#include "audit/replay.hpp"
#include "common/check.hpp"
#include "common/rng.hpp"
#include "core/cluster.hpp"
#include "core/orchestrator.hpp"
#include "core/vm_instance.hpp"
#include "migration/config.hpp"
#include "policy/placement.hpp"
#include "policy/policies.hpp"
#include "policy/runner.hpp"
#include "policy/scenario.hpp"
#include "storage/checkpoint_store.hpp"
#include "vm/cycle_detector.hpp"
#include "vm/workload.hpp"

namespace vecycle::policy {
namespace {

SimTime At(double hours) { return kSimEpoch + Hours(hours); }

// --- CycleDetector: rate trace pinned by hand. ---------------------------

// Hourly cadence, a counter that alternates 100 writes/s and 1 write/s in
// three-hour blocks. Every expectation below is computed by hand from the
// detector's definitions (windowed mean, 0.5 threshold, run scan).
TEST(CycleDetector, PinnedHandComputedTrace) {
  vm::CycleDetector::Config config;
  config.window_samples = 16;
  config.low_threshold = 0.5;
  config.min_samples = 4;
  vm::CycleDetector detector(config);

  // Anchor, then samples at t=2..11h with rates
  // [100,100,100, 1,1,1, 100,100,100, 1] writes/s.
  std::uint64_t writes = 0;
  detector.AddSample(At(1.0), writes);
  const auto feed = [&](double hour, std::uint64_t per_hour) {
    writes += per_hour;
    detector.AddSample(At(hour), writes);
  };
  for (int h = 2; h <= 4; ++h) feed(h, 360000);
  for (int h = 5; h <= 7; ++h) feed(h, 3600);
  for (int h = 8; h <= 10; ++h) feed(h, 360000);
  feed(11, 3600);

  EXPECT_EQ(detector.SampleCount(), 10u);
  EXPECT_DOUBLE_EQ(detector.LatestRate(), 1.0);
  // Mean = (6*100 + 4*1) / 10; threshold = half of that.
  EXPECT_DOUBLE_EQ(detector.MeanRate(), 60.4);
  EXPECT_TRUE(detector.InLowChurnWindow());
  EXPECT_EQ(detector.TimeToLowChurn(At(11.0)), SimDuration::zero());
  // Run starts at the 2h and 8h samples: period = 6h.
  EXPECT_EQ(detector.EstimatedPeriod(), Hours(6.0));

  // Two more high samples open a third run at t=12h.
  feed(12, 360000);
  feed(13, 360000);
  EXPECT_FALSE(detector.InLowChurnWindow());
  // Last completed run spanned samples 8h..11h: history = 3h. One hour
  // of the current run has elapsed by t=13h.
  EXPECT_EQ(detector.TimeToLowChurn(At(13.0)), Hours(2.0));
  // Overdue prediction saturates at zero.
  EXPECT_EQ(detector.TimeToLowChurn(At(15.0)), SimDuration::zero());
  // Period is measured start-to-start including the open run: 12h - 8h.
  EXPECT_EQ(detector.EstimatedPeriod(), Hours(4.0));
}

// A high run that begins at the window's first sample may have been
// clipped by the window edge; its length is a lower bound and must never
// drive the extrapolation.
TEST(CycleDetector, ClippedFirstRunNeverExtrapolates) {
  vm::CycleDetector::Config config;
  config.window_samples = 8;
  config.min_samples = 4;

  // Clipped: the window opens mid-run ([100,100,100, 0, 100]).
  vm::CycleDetector clipped(config);
  std::uint64_t writes = 0;
  clipped.AddSample(At(1.0), writes);
  const auto feed = [&](vm::CycleDetector& d, double hour, bool high) {
    writes += high ? 360000 : 0;
    d.AddSample(At(hour), writes);
  };
  feed(clipped, 2, true);
  feed(clipped, 3, true);
  feed(clipped, 4, true);
  feed(clipped, 5, false);
  feed(clipped, 6, true);
  EXPECT_FALSE(clipped.InLowChurnWindow());
  EXPECT_EQ(clipped.TimeToLowChurn(At(6.0)), SimDuration::zero());

  // Control: one leading low sample makes the same run unclipped
  // ([0, 100,100,100, 0, 100]) and it extrapolates normally.
  vm::CycleDetector whole(config);
  writes = 0;
  whole.AddSample(At(1.0), writes);
  feed(whole, 2, false);
  feed(whole, 3, true);
  feed(whole, 4, true);
  feed(whole, 5, true);
  feed(whole, 6, false);
  feed(whole, 7, true);
  // Completed run spans the 3h..6h samples (3h); the current run has
  // zero elapsed at its own first sample.
  EXPECT_EQ(whole.TimeToLowChurn(At(7.0)), Hours(3.0));
}

// The per-interval rate ConsolidationManager reads: zero until a second
// sample exists, then the latest interval's writes per second alone.
TEST(CycleDetector, UnprimedReadsZeroThenRatesEachInterval) {
  vm::CycleDetector detector;
  EXPECT_DOUBLE_EQ(detector.LatestRate(), 0.0);
  detector.AddSample(kSimEpoch, 1000);
  EXPECT_DOUBLE_EQ(detector.LatestRate(), 0.0);  // anchored, no interval
  detector.AddSample(kSimEpoch + Seconds(10.0), 1500);
  EXPECT_DOUBLE_EQ(detector.LatestRate(), 50.0);
  detector.AddSample(kSimEpoch + Seconds(20.0), 1500);
  EXPECT_DOUBLE_EQ(detector.LatestRate(), 0.0);
}

TEST(CycleDetector, ReanchorKeepsHistoryAcrossCounterReplacement) {
  vm::CycleDetector detector;
  detector.AddSample(At(1.0), 1000);
  detector.AddSample(At(2.0), 361000);  // rate 100
  ASSERT_EQ(detector.SampleCount(), 1u);

  // Explicit re-anchor (migration seen via host change): history stays,
  // and the next interval rates against the *new* counter.
  detector.Reanchor(At(3.0), 50);
  EXPECT_EQ(detector.SampleCount(), 1u);
  detector.AddSample(At(4.0), 3650);
  EXPECT_EQ(detector.SampleCount(), 2u);
  EXPECT_DOUBLE_EQ(detector.LatestRate(), 1.0);

  // A backwards counter re-anchors implicitly: no sample for the
  // spanning interval, normal sampling resumes after.
  detector.AddSample(At(5.0), 100);
  EXPECT_EQ(detector.SampleCount(), 2u);
  detector.AddSample(At(6.0), 360100);
  EXPECT_EQ(detector.SampleCount(), 3u);
  EXPECT_DOUBLE_EQ(detector.LatestRate(), 100.0);

  EXPECT_THROW(detector.AddSample(At(6.0), 360200), CheckFailure);
}

// --- The shipped policies on a three-host world. -------------------------

core::VmInstance MakeVm(const std::string& id = "vm-1",
                        std::uint64_t seed = 1) {
  core::VmInstance vm(id, MiB(2), vm::ContentMode::kSeedOnly);
  Xoshiro256 rng(seed);
  vm::MemoryProfile{}.Apply(vm.Memory(), rng);
  return vm;
}

migration::MigrationConfig VeCycleConfig() {
  migration::MigrationConfig config;
  config.strategy = migration::Strategy::kHashes;
  return config;
}

struct PolicyWorld {
  sim::Simulator simulator;
  core::Cluster cluster{simulator};
  core::MigrationOrchestrator orchestrator{cluster};

  explicit PolicyWorld(storage::StoreConfig store = {}) {
    for (const char* name : {"A", "B", "C"}) {
      cluster.AddHost({name, sim::DiskConfig::Ssd(), {}, {}, store});
    }
    cluster.Connect("A", "B", sim::LinkConfig::Lan());
    cluster.Connect("A", "C", sim::LinkConfig::Lan());
    cluster.Connect("B", "C", sim::LinkConfig::Lan());
  }

  PlacementQuery QueryFor(const core::VmInstance& vm,
                          std::vector<core::HostId> candidates) {
    PlacementQuery query;
    query.cluster = &cluster;
    query.vm = &vm;
    query.candidates = std::move(candidates);
    return query;
  }
};

TEST(RoundRobinPolicy, RotatesThroughCandidates) {
  PolicyWorld world;
  auto vm = MakeVm();
  world.orchestrator.Deploy(vm, "A");
  RoundRobinPolicy policy;
  const auto query = world.QueryFor(vm, {"B", "C"});
  EXPECT_EQ(policy.Decide(query).to, "B");
  EXPECT_EQ(policy.Decide(query).to, "C");
  EXPECT_EQ(policy.Decide(query).to, "B");
  EXPECT_EQ(policy.Stats().decisions, 3u);
  EXPECT_EQ(policy.Stats().cold_placements, 3u);
  EXPECT_EQ(policy.Stats().affinity_hits, 0u);
}

TEST(PlacementPolicy, RejectsMalformedQueries) {
  PolicyWorld world;
  auto vm = MakeVm();
  world.orchestrator.Deploy(vm, "A");
  RoundRobinPolicy policy;
  // No candidates.
  EXPECT_THROW((void)policy.Decide(world.QueryFor(vm, {})), CheckFailure);
  // Unsorted candidates.
  EXPECT_THROW((void)policy.Decide(world.QueryFor(vm, {"C", "B"})),
               CheckFailure);
  // The VM's current host can never be a destination.
  EXPECT_THROW((void)policy.Decide(world.QueryFor(vm, {"A", "B"})),
               CheckFailure);
  // Null world pointers.
  PlacementQuery query = world.QueryFor(vm, {"B"});
  query.cluster = nullptr;
  EXPECT_THROW((void)policy.Decide(query), CheckFailure);
}

TEST(LeastLoadedPolicy, PicksFewestVmsWithLexicographicTies) {
  PolicyWorld world;
  auto vm = MakeVm("vm-0");
  auto vm1 = MakeVm("vm-b1", 2);
  auto vm2 = MakeVm("vm-b2", 3);
  auto vm3 = MakeVm("vm-c1", 4);
  world.orchestrator.Deploy(vm, "A");
  world.orchestrator.Deploy(vm1, "B");
  world.orchestrator.Deploy(vm2, "B");
  world.orchestrator.Deploy(vm3, "C");
  const std::vector<core::VmInstance*> fleet = {&vm, &vm1, &vm2, &vm3};

  LeastLoadedPolicy policy;
  auto query = world.QueryFor(vm, {"B", "C"});
  query.fleet = &fleet;
  EXPECT_EQ(policy.Decide(query).to, "C");  // B holds 2, C holds 1
  // Without a fleet view every load is zero; ties break toward the
  // lexicographically smaller candidate.
  query.fleet = nullptr;
  EXPECT_EQ(policy.Decide(query).to, "B");
}

TEST(CheckpointAffinityPolicy, WarmCheckpointWinsColdFallsBackToLoad) {
  PolicyWorld world;
  auto vm = MakeVm();
  world.orchestrator.Deploy(vm, "A");
  // Migrating away writes the VM's checkpoint back on the source (§4.4):
  // host A is now warm for this VM, B and C are cold.
  (void)world.orchestrator.Migrate(vm, "B", VeCycleConfig());

  CheckpointAffinityPolicy policy;
  const Decision warm = policy.Decide(world.QueryFor(vm, {"A", "C"}));
  EXPECT_EQ(warm.to, "A");
  EXPECT_TRUE(warm.warm);
  EXPECT_GT(warm.affinity, 0.9);  // nothing was overwritten since
  ASSERT_EQ(warm.scored.size(), 2u);
  EXPECT_DOUBLE_EQ(warm.scored[1].affinity, 0.0);

  // A VM no host has ever checkpointed places cold, by load.
  auto fresh = MakeVm("vm-fresh", 9);
  world.orchestrator.Deploy(fresh, "C");
  const std::vector<core::VmInstance*> fleet = {&vm, &fresh};
  auto query = world.QueryFor(fresh, {"A", "B"});
  query.fleet = &fleet;
  const Decision cold = policy.Decide(query);
  EXPECT_FALSE(cold.warm);
  EXPECT_EQ(cold.to, "A");  // A and B both hold one VM; tie to "A"...
  EXPECT_EQ(policy.Stats().affinity_hits, 1u);
  EXPECT_EQ(policy.Stats().cold_placements, 1u);
}

TEST(MigrateAuto, ConsultsPolicyAndExecutesTheChoice) {
  PolicyWorld world;
  auto vm = MakeVm();
  world.orchestrator.Deploy(vm, "A");
  (void)world.orchestrator.Migrate(vm, "B", VeCycleConfig());

  // Empty candidates resolve to every linked host except the current
  // one; affinity sends the VM home to its checkpoint on A.
  CheckpointAffinityPolicy policy;
  const Decision decision =
      world.orchestrator.MigrateAuto(vm, policy, VeCycleConfig());
  EXPECT_EQ(decision.to, "A");
  EXPECT_TRUE(decision.warm);
  EXPECT_EQ(world.orchestrator.Drain(), 1u);
  EXPECT_EQ(vm.CurrentHost(), "A");
}

// The affinity signal must not depend on the checkpoint-store backend:
// a chunked store resolves baseline seeds through its manifests, a flat
// store keeps them inline, and ContentOverlap must agree to the bit.
TEST(CheckpointAffinityPolicy, FlatAndChunkedStoresScoreIdentically) {
  storage::StoreConfig chunked;
  chunked.chunking = true;
  chunked.chunk_pages = 4;

  double affinity[2] = {0.0, 0.0};
  core::HostId chosen[2];
  int i = 0;
  for (const auto& store : {storage::StoreConfig{}, chunked}) {
    PolicyWorld world(store);
    auto vm = MakeVm();
    world.orchestrator.Deploy(vm, "A");
    (void)world.orchestrator.Migrate(vm, "B", VeCycleConfig());
    // Dirty the front quarter so the overlap is a real fraction, not 1.
    for (std::uint64_t p = 0; p < vm.Memory().PageCount() / 4; ++p) {
      vm.Memory().WritePage(p, 0xabc123u + p);
    }
    CheckpointAffinityPolicy policy;
    const Decision decision = policy.Decide(world.QueryFor(vm, {"A", "C"}));
    affinity[i] = decision.affinity;
    chosen[i] = decision.to;
    ++i;
  }
  EXPECT_GT(affinity[0], 0.5);
  EXPECT_LT(affinity[0], 1.0);
  EXPECT_DOUBLE_EQ(affinity[0], affinity[1]);
  EXPECT_EQ(chosen[0], chosen[1]);
}

TEST(CycleAwarePolicy, DefersBusyLegsQuantizedAndClamped) {
  PolicyWorld world;
  auto vm = MakeVm();
  world.orchestrator.Deploy(vm, "A");

  PolicyConfig config;
  config.defer_step = Minutes(30.0);
  config.max_defer = Hours(12.0);
  CycleAwarePolicy policy(std::make_unique<RoundRobinPolicy>(), config);

  // Hourly observations; "busy" hours write 3600 pages (1/s), quiet
  // hours none. Trace [0, 1,1,1, 0, 1]: a completed 3h run, then a busy
  // sample right at decision time.
  const auto observe = [&](double hour, std::uint64_t writes) {
    for (std::uint64_t w = 0; w < writes; ++w) {
      vm.Memory().WritePage(w % vm.Memory().PageCount(), 0xfeedu + w);
    }
    policy.Observe(vm, At(hour));
  };
  observe(1.0, 0);
  observe(2.0, 0);
  for (int h = 3; h <= 5; ++h) observe(h, 3600);
  observe(6.0, 0);
  observe(7.0, 3600);

  auto query = world.QueryFor(vm, {"B", "C"});
  query.now = At(7.0);
  // Raw wait is 3h (history) - 0h (elapsed); quantization rounds up to
  // the 30-minute step and adds one step of safety margin: 3.5h.
  const Decision deferred = policy.Decide(query);
  EXPECT_EQ(deferred.defer, Hours(3.5));
  EXPECT_EQ(policy.Stats().deferred, 1u);

  // The same observations under a tight bound clamp to max_defer.
  PolicyConfig tight = config;
  tight.max_defer = Hours(1.0);
  CycleAwarePolicy clamped(std::make_unique<RoundRobinPolicy>(), tight);
  auto vm2 = MakeVm("vm-2", 5);
  world.orchestrator.Deploy(vm2, "A");
  const auto observe2 = [&](double hour, std::uint64_t writes) {
    for (std::uint64_t w = 0; w < writes; ++w) {
      vm2.Memory().WritePage(w % vm2.Memory().PageCount(), 0xbeefu + w);
    }
    clamped.Observe(vm2, At(hour));
  };
  observe2(1.0, 0);
  observe2(2.0, 0);
  for (int h = 3; h <= 5; ++h) observe2(h, 3600);
  observe2(6.0, 0);
  observe2(7.0, 3600);
  auto query2 = world.QueryFor(vm2, {"B", "C"});
  query2.now = At(7.0);
  EXPECT_EQ(clamped.Decide(query2).defer, Hours(1.0));

  // A quiet VM is never deferred.
  observe(8.0, 0);
  query.now = At(8.0);
  EXPECT_EQ(policy.Decide(query).defer, SimDuration::zero());
}

TEST(CycleAwarePolicy, HostChangeReanchorsInsteadOfSampling) {
  PolicyWorld world;
  auto vm = MakeVm();
  world.orchestrator.Deploy(vm, "A");
  CycleAwarePolicy policy(std::make_unique<RoundRobinPolicy>());

  policy.Observe(vm, At(1.0));  // anchor
  policy.Observe(vm, At(2.0));
  policy.Observe(vm, At(3.0));
  const vm::CycleDetector* detector = policy.DetectorFor(vm.Id());
  ASSERT_NE(detector, nullptr);
  ASSERT_EQ(detector->SampleCount(), 2u);

  // "Migrate" the VM: new host, and a counter bumped the way a page
  // reconstruction bumps it (monotonically up, so only the host change
  // reveals the replacement). The spanning interval must NOT become a
  // rate sample.
  vm.SetCurrentHost("B");
  for (std::uint64_t w = 0; w < 5000; ++w) {
    vm.Memory().WritePage(w % vm.Memory().PageCount(), 0x5eedu + w);
  }
  policy.Observe(vm, At(4.0));
  EXPECT_EQ(detector->SampleCount(), 2u);
  // Sampling resumes on the new anchor.
  policy.Observe(vm, At(5.0));
  EXPECT_EQ(detector->SampleCount(), 3u);
  EXPECT_DOUBLE_EQ(detector->LatestRate(), 0.0);

  EXPECT_EQ(policy.DetectorFor("no-such-vm"), nullptr);
}

// --- Scenario corpus. ----------------------------------------------------

TEST(ScenarioGen, IsAPureFunctionOfItsConfig) {
  ScenarioConfig config;
  config.kind = ScenarioKind::kEvictionStorm;
  config.seed = 77;
  const Scenario a = ScenarioGen(config).Generate();
  const Scenario b = ScenarioGen(config).Generate();
  ASSERT_EQ(a.waves.size(), b.waves.size());
  for (std::size_t w = 0; w < a.waves.size(); ++w) {
    EXPECT_EQ(a.waves[w].advance, b.waves[w].advance);
    EXPECT_EQ(a.waves[w].drain_hosts, b.waves[w].drain_hosts);
    ASSERT_EQ(a.waves[w].demands.size(), b.waves[w].demands.size());
    for (std::size_t d = 0; d < a.waves[w].demands.size(); ++d) {
      EXPECT_EQ(a.waves[w].demands[d].vm, b.waves[w].demands[d].vm);
      EXPECT_EQ(a.waves[w].demands[d].rule, b.waves[w].demands[d].rule);
      EXPECT_EQ(a.waves[w].demands[d].site, b.waves[w].demands[d].site);
    }
  }
  // A different seed reshuffles the storm.
  config.seed = 78;
  const Scenario c = ScenarioGen(config).Generate();
  bool diverged = false;
  for (std::size_t w = 0; w < std::min(a.waves.size(), c.waves.size());
       ++w) {
    if (a.waves[w].drain_hosts != c.waves[w].drain_hosts) diverged = true;
  }
  EXPECT_TRUE(diverged);
}

TEST(ScenarioGen, PrependsDemandFreeWarmupDays) {
  ScenarioConfig config;
  config.warmup_days = 2;
  const Scenario with = ScenarioGen(config).Generate();
  ASSERT_FALSE(with.waves.empty());
  EXPECT_EQ(with.waves.front().advance, Hours(48.0));
  EXPECT_TRUE(with.waves.front().demands.empty());
  EXPECT_TRUE(with.waves.front().drain_hosts.empty());

  config.warmup_days = 0;
  const Scenario without = ScenarioGen(config).Generate();
  EXPECT_EQ(with.waves.size(), without.waves.size() + 1);
}

TEST(RunResult, P99IsNearestRank) {
  RunResult result;
  for (int i = 100; i >= 1; --i) {
    result.downtimes.push_back(Milliseconds(i));
  }
  // N=100: rank ceil(99.0) = 99 -> the 99th smallest.
  EXPECT_EQ(result.P99Downtime(), Milliseconds(99));
  RunResult small;
  for (int i = 1; i <= 5; ++i) small.downtimes.push_back(Milliseconds(i));
  // N=5: rank ceil(4.95) = 5 -> the maximum.
  EXPECT_EQ(small.P99Downtime(), Milliseconds(5));
  EXPECT_EQ(RunResult{}.P99Downtime(), SimDuration::zero());
}

// --- Corpus replay determinism (the PDES contract). ----------------------

// A sharded corpus replay under the full policy stack must produce the
// same fingerprint at every worker count. Policies are created inside
// the scenario callback: each run starts from virgin detector state.
TEST(PolicyRunner, CorpusReplayIsWorkerCountInvariant) {
  ScenarioConfig config;
  config.kind = ScenarioKind::kDiurnal;
  config.vms = 4;
  config.vm_ram = MiB(2);
  config.days = 1;
  config.warmup_days = 1;
  config.step = Hours(1.0);
  config.busy_rate_pages_per_s = 200.0;
  config.seed = 5;
  const Scenario scenario = ScenarioGen(config).Generate();

  migration::MigrationConfig mconfig;
  mconfig.strategy = migration::Strategy::kHashes;
  mconfig.stop_copy_threshold_pages = 8;

  audit::ReplayCheck::VerifyWorkers(
      [&](std::size_t workers) {
        CycleAwarePolicy policy(
            std::make_unique<CheckpointAffinityPolicy>());
        return PolicyRunner::RunSharded(scenario, policy, mconfig, workers)
            .fingerprint;
      },
      {1, 4, 8});
}

// And the single-simulator runner agrees with itself run-to-run (fresh
// world each time, so any hidden static state would diverge here).
TEST(PolicyRunner, SingleSimulatorReplayIsDeterministic) {
  ScenarioConfig config;
  config.kind = ScenarioKind::kMaintenanceDrain;
  config.vms = 4;
  config.vm_ram = MiB(2);
  config.days = 2;
  config.warmup_days = 0;
  config.step = Hours(1.0);
  config.seed = 6;
  const Scenario scenario = ScenarioGen(config).Generate();

  const auto run = [&] {
    CheckpointAffinityPolicy policy;
    return PolicyRunner::Run(scenario, policy, VeCycleConfig());
  };
  const RunResult a = run();
  const RunResult b = run();
  EXPECT_EQ(a.fingerprint, b.fingerprint);
  EXPECT_EQ(a.wire_bytes.count, b.wire_bytes.count);
  EXPECT_EQ(a.completed, b.completed);
  EXPECT_GT(a.completed, 0u);
}

}  // namespace
}  // namespace vecycle::policy
