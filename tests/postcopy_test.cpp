// Post-copy migration and its composition with checkpoint recycling, run
// as a MigrationSession mode: alone, under the scheduler and under PDES.
#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <vector>

#include "audit/replay.hpp"
#include "common/check.hpp"
#include "common/rng.hpp"
#include "core/cluster.hpp"
#include "core/scheduler.hpp"
#include "core/vm_instance.hpp"
#include "fault/fault.hpp"
#include "migration/engine.hpp"
#include "sim/sharded.hpp"
#include "storage/checkpoint.hpp"
#include "vm/workload.hpp"

namespace vecycle::migration {
namespace {

/// Post-copy mode; kHashes recycles the destination checkpoint, kFull is
/// cold post-copy.
MigrationConfig PostCopy(bool use_checkpoint = true) {
  MigrationConfig config;
  config.postcopy.enabled = true;
  config.strategy = use_checkpoint ? Strategy::kHashes : Strategy::kFull;
  return config;
}

struct PostCopyBed {
  sim::Simulator simulator;
  sim::Link link{sim::LinkConfig::Lan()};
  sim::ChecksumEngine src_cpu{sim::ChecksumEngineConfig{}};
  sim::ChecksumEngine dst_cpu{sim::ChecksumEngineConfig{}};
  sim::Disk dst_disk{sim::DiskConfig::Hdd()};
  storage::CheckpointStore dst_store{dst_disk};

  MigrationRun MakeRun(vm::GuestMemory& memory,
                       MigrationConfig config = PostCopy()) {
    MigrationRun run;
    run.simulator = &simulator;
    run.link = &link;
    run.direction = sim::Direction::kAtoB;
    run.source_memory = &memory;
    run.source = {&src_cpu, nullptr};
    run.destination = {&dst_cpu, &dst_store};
    run.vm_id = "vm";
    run.config = config;
    return run;
  }
};

vm::GuestMemory FilledMemory(Bytes ram, std::uint64_t seed) {
  vm::GuestMemory memory(ram, vm::ContentMode::kSeedOnly);
  Xoshiro256 rng(seed);
  vm::MemoryProfile{}.Apply(memory, rng);
  return memory;
}

TEST(PostCopy, ColdMigrationReconstructsMemory) {
  PostCopyBed bed;
  auto memory = FilledMemory(MiB(8), 1);
  auto config = PostCopy(/*use_checkpoint=*/false);
  auto outcome = RunMigration(bed.MakeRun(memory, config));
  EXPECT_TRUE(outcome.dest_memory->ContentEquals(memory));
  EXPECT_EQ(outcome.stats.pages_from_checkpoint, 0u);
  EXPECT_GT(outcome.stats.pages_prefetched, 0u);
}

TEST(PostCopy, DowntimeIsTiny) {
  // The whole point of post-copy: downtime is the device-state transfer,
  // not the memory copy.
  PostCopyBed bed;
  auto memory = FilledMemory(MiB(64), 2);
  auto outcome = RunMigration(bed.MakeRun(memory));
  EXPECT_LT(ToSeconds(outcome.stats.downtime), 0.1);
  EXPECT_GT(ToSeconds(outcome.stats.time_to_residency),
            ToSeconds(outcome.stats.downtime));
}

TEST(PostCopy, CheckpointCutsNetworkTraffic) {
  auto run_one = [](bool use_checkpoint) {
    PostCopyBed bed;
    auto memory = FilledMemory(MiB(16), 3);
    bed.dst_store.Save("vm", storage::Checkpoint::CaptureFrom(memory),
                       kSimEpoch);
    // Mild churn after the checkpoint: ~10% of pages change.
    vm::UniformRandomWorkload churn(100.0, 4);
    churn.Advance(memory, Seconds(4.0));
    auto config = PostCopy(use_checkpoint);
    auto outcome = RunMigration(bed.MakeRun(memory, config));
    EXPECT_TRUE(outcome.dest_memory->ContentEquals(memory));
    return outcome.stats;
  };

  const auto cold = run_one(false);
  const auto recycled = run_one(true);
  EXPECT_GT(recycled.pages_from_checkpoint, 0u);
  EXPECT_LT(recycled.tx_bytes.count, cold.tx_bytes.count / 2);
  EXPECT_GT(recycled.checksum_vector_bytes.count, 0u);
}

TEST(PostCopy, CheckpointCutsRemoteFaults) {
  auto run_one = [](bool use_checkpoint) {
    PostCopyBed bed;
    auto memory = FilledMemory(MiB(32), 5);
    bed.dst_store.Save("vm", storage::Checkpoint::CaptureFrom(memory),
                       kSimEpoch);
    vm::UniformRandomWorkload churn(50.0, 6);
    churn.Advance(memory, Seconds(4.0));
    auto config = PostCopy(use_checkpoint);
    config.postcopy.guest_touch_rate_per_s = 20000.0;  // hungry guest
    auto outcome = RunMigration(bed.MakeRun(memory, config));
    return outcome.stats;
  };

  const auto cold = run_one(false);
  const auto recycled = run_one(true);
  EXPECT_LT(recycled.remote_faults, cold.remote_faults);
  EXPECT_LT(ToSeconds(recycled.total_stall), ToSeconds(cold.total_stall));
}

TEST(PostCopy, ChecksumVectorSizeMatchesSection32Math) {
  PostCopyBed bed;
  auto memory = FilledMemory(MiB(16), 7);  // 4096 pages
  bed.dst_store.Save("vm", storage::Checkpoint::CaptureFrom(memory),
                     kSimEpoch);
  auto outcome = RunMigration(bed.MakeRun(memory));
  EXPECT_EQ(outcome.stats.checksum_vector_bytes.count, 4096u * 16u);
}

TEST(PostCopy, NoTouchesStillReachesResidency) {
  PostCopyBed bed;
  auto memory = FilledMemory(MiB(8), 8);
  auto config = PostCopy(/*use_checkpoint=*/false);
  config.postcopy.guest_touch_rate_per_s = 0.0;
  auto outcome = RunMigration(bed.MakeRun(memory, config));
  EXPECT_TRUE(outcome.dest_memory->ContentEquals(memory));
  EXPECT_EQ(outcome.stats.remote_faults, 0u);
}

TEST(PostCopy, GenerationsTravelWithTheVm) {
  PostCopyBed bed;
  auto memory = FilledMemory(MiB(8), 9);
  auto outcome = RunMigration(bed.MakeRun(memory));
  EXPECT_EQ(outcome.dest_memory->Generations(), memory.Generations());
}

TEST(PostCopy, ResizedCheckpointIsIgnored) {
  PostCopyBed bed;
  auto old_memory = FilledMemory(MiB(4), 10);
  bed.dst_store.Save("vm", storage::Checkpoint::CaptureFrom(old_memory),
                     kSimEpoch);
  auto memory = FilledMemory(MiB(8), 11);
  auto outcome = RunMigration(bed.MakeRun(memory));
  EXPECT_TRUE(outcome.dest_memory->ContentEquals(memory));
  EXPECT_EQ(outcome.stats.pages_from_checkpoint, 0u);
}

TEST(PostCopyConfig, RejectsDegenerateValues) {
  PostCopyConfig config;
  config.prefetch_batch = 0;
  EXPECT_THROW(config.Validate(), CheckFailure);
  config = PostCopyConfig{};
  config.guest_touch_rate_per_s = -1.0;
  EXPECT_THROW(config.Validate(), CheckFailure);
}

// --- Post-copy as a session mode. ---

/// Steps the simulator to exhaustion and returns every distinct phase the
/// session passed through, in order.
std::vector<SessionPhase> PhaseTrace(sim::Simulator& simulator,
                                     const MigrationSession& session) {
  std::vector<SessionPhase> phases{session.Phase()};
  while (simulator.Step()) {
    if (session.Phase() != phases.back()) phases.push_back(session.Phase());
  }
  return phases;
}

TEST(PostCopySession, PhasesRunSwitchoverThenResidency) {
  PostCopyBed bed;
  sim::Disk src_disk{sim::DiskConfig::Hdd()};
  storage::CheckpointStore src_store{src_disk};
  auto memory = FilledMemory(MiB(8), 12);
  bed.dst_store.Save("vm", storage::Checkpoint::CaptureFrom(memory),
                     kSimEpoch);
  vm::UniformRandomWorkload churn(100.0, 13);
  churn.Advance(memory, Seconds(2.0));

  auto run = bed.MakeRun(memory);
  run.source.store = &src_store;
  run.write_back_checkpoint = true;
  int completions = 0;
  run.on_complete = [&](SimTime) { ++completions; };
  MigrationSession session(std::move(run));
  EXPECT_EQ(PhaseTrace(bed.simulator, session),
            (std::vector<SessionPhase>{
                SessionPhase::kHashExchange, SessionPhase::kStopAndCopy,
                SessionPhase::kResidency, SessionPhase::kDone}));
  EXPECT_STREQ(ToString(SessionPhase::kResidency), "residency");
  EXPECT_EQ(completions, 1);
  // kCheckpointWriteBack ran between residency and done.
  EXPECT_TRUE(src_store.Has("vm"));
  const auto outcome = session.TakeOutcome();
  EXPECT_GT(outcome.stats.pages_from_checkpoint, 0u);
  EXPECT_EQ(outcome.stats.total_time,
            outcome.stats.downtime + outcome.stats.time_to_residency);

  // Pre-copy on the same bed never enters kResidency.
  MigrationConfig precopy;
  precopy.strategy = Strategy::kHashes;
  MigrationSession pre(bed.MakeRun(memory, precopy));
  EXPECT_EQ(PhaseTrace(bed.simulator, pre),
            (std::vector<SessionPhase>{
                SessionPhase::kHashExchange, SessionPhase::kPreCopy,
                SessionPhase::kStopAndCopy, SessionPhase::kDone}));
}

TEST(PostCopySession, DestroyedDuringResidencyLeavesNoDanglingEvents) {
  PostCopyBed bed;
  auto memory = FilledMemory(MiB(16), 14);
  bool completed = false;
  {
    auto run = bed.MakeRun(memory, PostCopy(/*use_checkpoint=*/false));
    run.on_complete = [&](SimTime) { completed = true; };
    MigrationSession doomed(std::move(run));
    while (doomed.Phase() != SessionPhase::kResidency &&
           bed.simulator.Step()) {
    }
    // Let prefetches, fetch completions and touches pile up on the heap.
    for (int i = 0; i < 64; ++i) ASSERT_TRUE(bed.simulator.Step());
    ASSERT_EQ(doomed.Phase(), SessionPhase::kResidency);
  }
  // The leftover events must drain without touching the freed actor.
  bed.simulator.Run();
  EXPECT_FALSE(completed);

  auto outcome = RunMigration(bed.MakeRun(memory));
  EXPECT_TRUE(outcome.dest_memory->ContentEquals(memory));
}

TEST(PostCopySession, RejectsFaultInjection) {
  PostCopyBed bed;
  auto memory = FilledMemory(MiB(4), 15);
  fault::FaultConfig faults;
  faults.enabled = true;
  fault::FaultInjector injector(faults);
  auto run = bed.MakeRun(memory);
  run.injector = &injector;
  EXPECT_THROW(MigrationSession{std::move(run)}, CheckFailure);

  auto config = PostCopy();
  config.faults = faults;  // a session-private injector is refused too
  EXPECT_THROW(MigrationSession(bed.MakeRun(memory, config)), CheckFailure);
}

TEST(PostCopySession, RejectsCrossShardSessions) {
  sim::ShardedSimulator pdes(2);
  sim::Link link{sim::LinkConfig::Lan()};
  sim::ChecksumEngine src_cpu{sim::ChecksumEngineConfig{}};
  sim::ChecksumEngine dst_cpu{sim::ChecksumEngineConfig{}};
  auto memory = FilledMemory(MiB(4), 16);
  MigrationRun run;
  run.simulator = &pdes.Shard(0);
  run.dest_simulator = &pdes.Shard(1);
  run.forward_delivery = &pdes.Route(0, 1);
  run.backward_delivery = &pdes.Route(1, 0);
  run.link = &link;
  run.source_memory = &memory;
  run.source = {&src_cpu, nullptr};
  run.destination = {&dst_cpu, nullptr};
  run.config = PostCopy(/*use_checkpoint=*/false);
  EXPECT_THROW(MigrationSession{std::move(run)}, CheckFailure);
}

// --- Post-copy legs under the scheduler and PDES. ---

/// Two hosts per site on a LAN, every site its own shard when `pdes` is
/// given (no link crosses shards, so every session stays within one).
void AddSite(core::Cluster& cluster, sim::ShardPlan* plan, std::uint32_t site) {
  const std::string a = "s" + std::to_string(site) + "-a";
  const std::string b = "s" + std::to_string(site) + "-b";
  cluster.AddHost({a, sim::DiskConfig::Ssd(), {}, {}, {}});
  cluster.AddHost({b, sim::DiskConfig::Ssd(), {}, {}, {}});
  cluster.Connect(a, b, sim::LinkConfig::Lan());
  if (plan != nullptr) {
    plan->Assign(a, site);
    plan->Assign(b, site);
  }
}

std::unique_ptr<core::VmInstance> MakeVm(const std::string& id,
                                         std::uint64_t seed,
                                         const std::string& host) {
  auto vm = std::make_unique<core::VmInstance>(id, MiB(8),
                                               vm::ContentMode::kSeedOnly);
  Xoshiro256 rng(seed);
  vm::MemoryProfile{}.Apply(vm->Memory(), rng);
  vm->SetWorkload(std::make_unique<vm::UniformRandomWorkload>(100.0, seed));
  vm->SetCurrentHost(host);
  return vm;
}

TEST(PostCopySession, SchedulerRoundTripRecyclesTheWrittenBackCheckpoint) {
  sim::Simulator simulator;
  core::Cluster cluster(simulator);
  AddSite(cluster, nullptr, 0);
  core::MigrationScheduler scheduler(cluster);
  auto vm = MakeVm("vm", 17, "s0-a");

  // Out: cold post-copy; the session writes the departed VM's checkpoint
  // back to s0-a.
  const auto out = scheduler.Submit(*vm, "s0-b", PostCopy(false));
  ASSERT_EQ(scheduler.Drain(), 1u);
  EXPECT_TRUE(cluster.GetHost("s0-a").Store().Has("vm"));

  // The guest runs at s0-b for a while, then comes home recycling that
  // checkpoint against the checksum vector.
  vm->Workload()->Advance(vm->Memory(), Seconds(4.0));
  const auto home = scheduler.Submit(*vm, "s0-a", PostCopy(true));
  ASSERT_EQ(scheduler.Drain(), 1u);

  const auto& out_stats = scheduler.FindCompletion(out)->stats;
  const auto& home_stats = scheduler.FindCompletion(home)->stats;
  EXPECT_EQ(out_stats.pages_from_checkpoint, 0u);
  EXPECT_GT(out_stats.pages_prefetched, 0u);
  EXPECT_GT(home_stats.pages_from_checkpoint, 0u);
  EXPECT_GT(home_stats.checksum_vector_bytes.count, 0u);
  EXPECT_LT(home_stats.tx_bytes.count, out_stats.tx_bytes.count);
  EXPECT_EQ(vm->CurrentHost(), "s0-a");
}

/// Two shards, two post-copy VMs per host: every VM goes to its partner
/// host cold, churns, and comes home recycling its checkpoint. Returns
/// the combined audit fingerprint folded with the completion count.
std::uint64_t RunPostCopyFleet(std::size_t workers) {
  sim::ShardedSimulator pdes(2);
  core::Cluster cluster(pdes.Shard(0));
  sim::ShardPlan plan;
  for (std::uint32_t site = 0; site < 2; ++site) AddSite(cluster, &plan, site);
  core::SchedulerConfig sconfig;
  sconfig.workers = workers;
  core::MigrationScheduler scheduler(cluster, pdes, plan, sconfig);

  std::vector<std::unique_ptr<core::VmInstance>> fleet;
  std::vector<std::string> homes;
  for (std::uint32_t site = 0; site < 2; ++site) {
    for (const char* side : {"-a", "-b"}) {
      for (std::uint64_t v = 0; v < 2; ++v) {
        const std::string host = "s" + std::to_string(site) + side;
        fleet.push_back(MakeVm("vm-" + std::to_string(fleet.size()),
                               0x9c0 + fleet.size(), host));
        homes.push_back(host);
      }
    }
  }
  const auto partner = [](const std::string& host) {
    return host.substr(0, host.size() - 1) + (host.back() == 'a' ? "b" : "a");
  };
  for (auto& vm : fleet) {
    scheduler.Submit(*vm, partner(vm->CurrentHost()), PostCopy(false));
  }
  std::size_t completed = scheduler.Drain();
  for (auto& vm : fleet) vm->Workload()->Advance(vm->Memory(), Seconds(2.0));
  for (std::size_t i = 0; i < fleet.size(); ++i) {
    scheduler.Submit(*fleet[i], homes[i], PostCopy(true));
  }
  completed += scheduler.Drain();
  VEC_CHECK_MSG(completed == 2 * fleet.size(),
                "post-copy fleet: not every leg completed");
  return SplitMix64(scheduler.CombinedFingerprint() ^ completed).Next();
}

TEST(PostCopySession, PdesFleetReplaysAcrossWorkerCounts) {
  audit::ReplayCheck::VerifyWorkers(RunPostCopyFleet, {1, 4});
}

}  // namespace
}  // namespace vecycle::migration
