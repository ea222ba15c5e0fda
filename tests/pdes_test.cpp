// Conservative-PDES sharding: ShardPlan determinism and validation, the
// barrier-window lookahead contract, cross-shard migration sessions, and
// the worker-count determinism sweep (ReplayCheck::VerifyWorkers) with
// and without intra-shard faults. Also covers the saturating
// retry-backoff arithmetic the PDES control plane shares with the serial
// scheduler.
#include <gtest/gtest.h>

#include <cstdlib>
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
#include "sim/link.hpp"
#include "sim/sharded.hpp"
#include "vm/guest_memory.hpp"

namespace vecycle::core {
namespace {

// --- ShardPlan ---------------------------------------------------------

TEST(ShardPlan, BuildIsAPureFunctionOfKeySetSeedAndShardCount) {
  const std::vector<std::string> keys = {"h3", "h1", "h7", "h0", "h5",
                                         "h2", "h9", "h4", "h8", "h6"};
  std::vector<std::string> shuffled = {"h9", "h0", "h4", "h2", "h6",
                                       "h8", "h1", "h5", "h3", "h7"};
  const auto plan = sim::ShardPlan::Build(keys, 4, 42);
  const auto replayed = sim::ShardPlan::Build(shuffled, 4, 42);
  EXPECT_EQ(plan.ShardCount(), 4u);
  EXPECT_EQ(plan.KeyCount(), keys.size());
  for (const auto& key : keys) {
    EXPECT_EQ(plan.ShardOf(key), replayed.ShardOf(key))
        << "insertion order leaked into the partition for " << key;
    EXPECT_LT(plan.ShardOf(key), 4u);
  }
  // A different seed reshuffles (with ten keys on four shards the odds of
  // an identical partition by chance are negligible).
  const auto reseeded = sim::ShardPlan::Build(keys, 4, 43);
  bool any_moved = false;
  for (const auto& key : keys) {
    any_moved = any_moved || reseeded.ShardOf(key) != plan.ShardOf(key);
  }
  EXPECT_TRUE(any_moved);
}

TEST(ShardPlan, ValidateRejectsEmptyAndUncoveringPlans) {
  // A default ShardPlan has zero shards — no sharded run could use it.
  sim::ShardPlan empty;
  EXPECT_THROW(empty.Validate(), CheckFailure);
  EXPECT_THROW(sim::ShardPlan::Build({"a"}, 0, 1), CheckFailure);
  EXPECT_THROW(sim::ShardPlan::Build({"a", "a"}, 2, 1), CheckFailure);

  sim::ShardPlan plan;
  plan.Assign("a", 0);
  plan.Assign("b", 2);  // grows the shard count to 3
  plan.Validate();
  EXPECT_EQ(plan.ShardCount(), 3u);
  EXPECT_TRUE(plan.Covers("a"));
  EXPECT_FALSE(plan.Covers("c"));
  EXPECT_THROW((void)plan.ShardOf("c"), CheckFailure);
}

// --- ShardedSimulator windows ------------------------------------------

TEST(ShardedSimulator, CrossShardPostsLandAfterTheLookaheadWindow) {
  // Shard 1 runs a local event in the first window; shard 0 posts it more
  // work for after the barrier, honouring the lookahead.
  std::vector<int> order;
  for (const std::size_t workers : {std::size_t{1}, std::size_t{2}}) {
    order.clear();
    sim::ShardedSimulator fresh(2);
    fresh.Shard(1).ScheduleAt(kSimEpoch + Milliseconds(1.0),
                              [&] { order.push_back(1); });
    fresh.Shard(0).ScheduleAt(kSimEpoch + Milliseconds(2.0), [&] {
      fresh.Post(0, 1, kSimEpoch + Milliseconds(12.0),
                 [&] { order.push_back(2); });
    });
    fresh.Run(workers, Milliseconds(10.0));
    EXPECT_EQ(order, (std::vector<int>{1, 2})) << workers << " workers";
    EXPECT_GE(fresh.MaxNow(), kSimEpoch + Milliseconds(12.0));
  }
}

TEST(ShardedSimulator, PostInsideTheWindowViolatesTheContract) {
  sim::ShardedSimulator pdes(2);
  // An event at t=1ms posting for t=2ms: inside the [1ms, 11ms) window —
  // exactly what the conservative lookahead forbids.
  pdes.Shard(0).ScheduleAt(kSimEpoch + Milliseconds(1.0), [&] {
    pdes.Post(0, 1, kSimEpoch + Milliseconds(2.0), [] {});
  });
  EXPECT_THROW(pdes.Run(1, Milliseconds(10.0)), CheckFailure);
}

// --- Worker-count environment knob -------------------------------------

TEST(ShardedSimulator, ThreadsFromEnvParsesAndClamps) {
  const char* saved = std::getenv("VECYCLE_THREADS");
  const std::string restore = saved == nullptr ? "" : saved;

  ::unsetenv("VECYCLE_THREADS");
  EXPECT_EQ(sim::ThreadsFromEnv(), 1u);
  ::setenv("VECYCLE_THREADS", "4", 1);
  EXPECT_EQ(sim::ThreadsFromEnv(), 4u);
  ::setenv("VECYCLE_THREADS", "0", 1);
  EXPECT_EQ(sim::ThreadsFromEnv(), 1u);
  ::setenv("VECYCLE_THREADS", "9999", 1);
  EXPECT_EQ(sim::ThreadsFromEnv(), 64u);
  ::setenv("VECYCLE_THREADS", "plenty", 1);
  EXPECT_EQ(sim::ThreadsFromEnv(), 1u);

  if (restore.empty()) {
    ::unsetenv("VECYCLE_THREADS");
  } else {
    ::setenv("VECYCLE_THREADS", restore.c_str(), 1);
  }
}

// --- Sharded fleet scenarios -------------------------------------------

std::string HostName(std::uint32_t site, std::uint32_t host) {
  return "s" + std::to_string(site) + "-h" + std::to_string(host);
}

/// A miniature of bench/fleet_pdes: `sites` shards of paired hosts, an
/// inter-site 5 ms ring through each site's gateway (host 0), gateway
/// VMs migrating cross-shard and everyone else to the in-site partner.
/// Returns the combined audit fingerprint folded with the completion
/// count — the number the worker sweep compares.
std::uint64_t RunMiniFleet(std::size_t workers, std::uint32_t sites,
                           std::uint32_t hosts_per_site,
                           std::uint64_t vms_per_host) {
  sim::ShardedSimulator pdes(sites);
  core::Cluster cluster(pdes.Shard(0));
  sim::ShardPlan plan;
  const sim::LinkConfig intersite{GigabitsPerSecond(1.0), Milliseconds(5.0),
                                  Bytes{0}};
  for (std::uint32_t site = 0; site < sites; ++site) {
    for (std::uint32_t host = 0; host < hosts_per_site; ++host) {
      cluster.AddHost({HostName(site, host), sim::DiskConfig::Ssd(), {}, {}, {}});
      plan.Assign(HostName(site, host), site);
    }
    for (std::uint32_t host = 0; host + 1 < hosts_per_site; host += 2) {
      cluster.Connect(HostName(site, host), HostName(site, host + 1),
                      sim::LinkConfig::Lan());
    }
  }
  for (std::uint32_t site = 0; site < sites; ++site) {
    cluster.Connect(HostName(site, 0), HostName((site + 1) % sites, 0),
                    intersite);
  }

  SchedulerConfig sconfig;
  sconfig.workers = workers;
  MigrationScheduler scheduler(cluster, pdes, plan, sconfig);

  migration::MigrationConfig config;
  config.strategy = migration::Strategy::kFull;
  std::vector<std::unique_ptr<VmInstance>> fleet;
  std::uint64_t vm_index = 0;
  for (std::uint32_t site = 0; site < sites; ++site) {
    for (std::uint32_t host = 0; host < hosts_per_site; ++host) {
      for (std::uint64_t v = 0; v < vms_per_host; ++v, ++vm_index) {
        fleet.push_back(std::make_unique<VmInstance>(
            "vm-" + std::to_string(vm_index), MiB(1),
            vm::ContentMode::kSeedOnly));
        Xoshiro256 rng(0x5eed0000 + vm_index);
        vm::MemoryProfile{}.Apply(fleet.back()->Memory(), rng);
        fleet.back()->SetCurrentHost(HostName(site, host));
        const std::string to =
            host == 0 ? HostName((site + 1) % sites, 0)
                      : HostName(site, host % 2 == 0 ? host + 1 : host - 1);
        scheduler.Submit(*fleet.back(), to, config);
      }
    }
  }

  const std::size_t completed = scheduler.Drain();
  VEC_CHECK_MSG(completed == vm_index, "mini fleet: not every VM migrated");
  return SplitMix64(scheduler.CombinedFingerprint() ^ completed).Next();
}

TEST(PdesDeterminism, CrossShardSessionsMatchAcrossOneAndTwoWorkers) {
  audit::ReplayCheck::VerifyWorkers(
      [](std::size_t workers) { return RunMiniFleet(workers, 3, 2, 1); },
      {1, 2});
}

TEST(PdesDeterminism, FleetFingerprintIsIdenticalAtOneTwoFourEightWorkers) {
  audit::ReplayCheck::VerifyWorkers(
      [](std::size_t workers) { return RunMiniFleet(workers, 4, 4, 2); });
}

TEST(PdesDeterminism, WorkerCountFromEnvironmentMatchesExplicitCount) {
  const char* saved = std::getenv("VECYCLE_THREADS");
  const std::string restore = saved == nullptr ? "" : saved;

  // workers == 0 defers to VECYCLE_THREADS — the path CI's threaded ctest
  // leg exercises. The result must match any explicit worker count.
  ::setenv("VECYCLE_THREADS", "2", 1);
  const std::uint64_t via_env = RunMiniFleet(0, 3, 2, 1);
  const std::uint64_t explicit_one = RunMiniFleet(1, 3, 2, 1);
  EXPECT_EQ(via_env, explicit_one);

  if (restore.empty()) {
    ::unsetenv("VECYCLE_THREADS");
  } else {
    ::setenv("VECYCLE_THREADS", restore.c_str(), 1);
  }
}

TEST(PdesDeterminism, IntraShardFaultSweepReplaysAcrossWorkerCounts) {
  // Two shards, each with one flaky intra-shard LAN link. The injectors
  // are per shard (a shared one would be fed from two workers at once —
  // the scheduler rejects that); identical (config, seed) pairs give both
  // shards the same outage plan, and every attempt, retry and backoff
  // must replay bit-for-bit at any worker count.
  const auto scenario = [](std::size_t workers) -> std::uint64_t {
    fault::FaultConfig fault_config;
    fault_config.enabled = true;
    fault_config.seed = 13;
    fault_config.link_outages_per_hour = 6.0;
    fault_config.link_outage_mean = Seconds(2.0);
    fault_config.horizon = Hours(4.0);

    sim::ShardedSimulator pdes(2);
    core::Cluster cluster(pdes.Shard(0));
    sim::ShardPlan plan;
    std::vector<std::unique_ptr<fault::FaultInjector>> injectors;
    for (std::uint32_t site = 0; site < 2; ++site) {
      cluster.AddHost({HostName(site, 0), sim::DiskConfig::Ssd(), {}, {}, {}});
      cluster.AddHost({HostName(site, 1), sim::DiskConfig::Ssd(), {}, {}, {}});
      plan.Assign(HostName(site, 0), site);
      plan.Assign(HostName(site, 1), site);
      sim::Link& link = cluster.Connect(HostName(site, 0), HostName(site, 1),
                                        sim::LinkConfig::Lan());
      injectors.push_back(
          std::make_unique<fault::FaultInjector>(fault_config));
      link.SetFaultInjector(injectors.back().get());
    }
    const auto window = injectors.front()->LinkOutages().front();

    SchedulerConfig sconfig;
    sconfig.workers = workers;
    sconfig.max_attempts = 10;
    MigrationScheduler scheduler(cluster, pdes, plan, sconfig);

    // Park the fleet just before the first outage so the initial
    // attempts stream into the window and get cut.
    pdes.AdvanceAllTo(window.start - Milliseconds(1.0));

    migration::MigrationConfig config;
    config.strategy = migration::Strategy::kFull;
    std::vector<std::unique_ptr<VmInstance>> fleet;
    for (std::uint32_t site = 0; site < 2; ++site) {
      for (std::uint64_t v = 0; v < 2; ++v) {
        fleet.push_back(std::make_unique<VmInstance>(
            "vm-" + std::to_string(site * 2 + v), MiB(4),
            vm::ContentMode::kSeedOnly));
        Xoshiro256 rng(0xfa017u + site * 2 + v);
        vm::MemoryProfile{}.Apply(fleet.back()->Memory(), rng);
        fleet.back()->SetCurrentHost(HostName(site, 0));
        scheduler.Submit(*fleet.back(), HostName(site, 1), config);
      }
    }
    const std::size_t completed = scheduler.Drain();
    VEC_CHECK_MSG(completed == fleet.size(),
                  "fault sweep: not every VM migrated");
    std::uint64_t folded =
        SplitMix64(scheduler.CombinedFingerprint() ^ completed).Next();
    return SplitMix64(folded ^ scheduler.Retries()).Next();
  };
  const auto sweep = audit::ReplayCheck::CompareWorkers(scenario, {1, 2});
  EXPECT_TRUE(sweep.Deterministic());
}

TEST(PdesDeterminism, MultifdSessionsReplayUnderChannelFaults) {
  // The transfer stack under the worker sweep: four forward streams per
  // session on a flaky intra-shard link, so outages cut individual
  // multifd channel messages mid-round. Striping, per-channel round
  // markers, retries and the auto-converge throttle state must all
  // replay bit-for-bit at any worker count.
  const auto scenario = [](std::size_t workers) -> std::uint64_t {
    fault::FaultConfig fault_config;
    fault_config.enabled = true;
    fault_config.seed = 29;
    fault_config.link_outages_per_hour = 6.0;
    fault_config.link_outage_mean = Seconds(2.0);
    fault_config.horizon = Hours(4.0);

    sim::ShardedSimulator pdes(2);
    core::Cluster cluster(pdes.Shard(0));
    sim::ShardPlan plan;
    std::vector<std::unique_ptr<fault::FaultInjector>> injectors;
    for (std::uint32_t site = 0; site < 2; ++site) {
      cluster.AddHost({HostName(site, 0), sim::DiskConfig::Ssd(), {}, {}, {}});
      cluster.AddHost({HostName(site, 1), sim::DiskConfig::Ssd(), {}, {}, {}});
      plan.Assign(HostName(site, 0), site);
      plan.Assign(HostName(site, 1), site);
      sim::Link& link = cluster.Connect(HostName(site, 0), HostName(site, 1),
                                        sim::LinkConfig::Lan());
      injectors.push_back(
          std::make_unique<fault::FaultInjector>(fault_config));
      link.SetFaultInjector(injectors.back().get());
    }
    const auto window = injectors.front()->LinkOutages().front();

    SchedulerConfig sconfig;
    sconfig.workers = workers;
    sconfig.max_attempts = 10;
    MigrationScheduler scheduler(cluster, pdes, plan, sconfig);
    pdes.AdvanceAllTo(window.start - Milliseconds(1.0));

    migration::MigrationConfig config;
    config.strategy = migration::Strategy::kFull;
    config.multifd.enabled = true;
    config.multifd.channels = 4;
    config.auto_converge.enabled = true;
    std::vector<std::unique_ptr<VmInstance>> fleet;
    for (std::uint32_t site = 0; site < 2; ++site) {
      for (std::uint64_t v = 0; v < 2; ++v) {
        fleet.push_back(std::make_unique<VmInstance>(
            "vm-" + std::to_string(site * 2 + v), MiB(4),
            vm::ContentMode::kSeedOnly));
        Xoshiro256 rng(0xfd017u + site * 2 + v);
        vm::MemoryProfile{}.Apply(fleet.back()->Memory(), rng);
        fleet.back()->SetCurrentHost(HostName(site, 0));
        scheduler.Submit(*fleet.back(), HostName(site, 1), config);
      }
    }
    const std::size_t completed = scheduler.Drain();
    VEC_CHECK_MSG(completed == fleet.size(),
                  "multifd fault sweep: not every VM migrated");
    std::uint64_t folded =
        SplitMix64(scheduler.CombinedFingerprint() ^ completed).Next();
    return SplitMix64(folded ^ scheduler.Retries()).Next();
  };
  audit::ReplayCheck::VerifyWorkers(scenario, {1, 2, 4});
}

// --- Saturating retry backoff ------------------------------------------

TEST(SchedulerBackoff, RetryNotBeforeDoublesThenSaturates) {
  const SimTime when = kSimEpoch + Seconds(100.0);
  const SimDuration backoff = Seconds(5.0);
  EXPECT_EQ(RetryNotBefore(when, backoff, 1), when + Seconds(5.0));
  EXPECT_EQ(RetryNotBefore(when, backoff, 2), when + Seconds(10.0));
  EXPECT_EQ(RetryNotBefore(when, backoff, 4), when + Seconds(40.0));
  // Zero backoff never gates.
  EXPECT_EQ(RetryNotBefore(when, SimDuration::zero(), 9), when);

  // Monotone in the failure count: a longer streak can only push the
  // deadline later, never wrap it into the past (the overflow bug this
  // guards against produced a negative delay around 2^63).
  SimTime previous = kSimEpoch;
  for (std::uint64_t failures = 1; failures <= 100; ++failures) {
    const SimTime deadline = RetryNotBefore(when, backoff, failures);
    EXPECT_GE(deadline, previous) << "failures=" << failures;
    EXPECT_GE(deadline, when) << "failures=" << failures;
    previous = deadline;
  }
  // A long streak saturates to "never" instead of overflowing.
  EXPECT_EQ(RetryNotBefore(when, backoff, 100), SimTime::max());
  EXPECT_EQ(RetryNotBefore(when, backoff, 64), SimTime::max());
  // The final sum saturates too, even at one failure.
  EXPECT_EQ(RetryNotBefore(SimTime::max() - Seconds(1.0), backoff, 1),
            SimTime::max());
}

}  // namespace
}  // namespace vecycle::core
