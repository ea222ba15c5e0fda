// Datacenter-scale PDES scaling benchmark: 1000 hosts (25 sites of 40)
// carrying 10,000 VMs, sharded one site per shard, drained through the
// sharded MigrationScheduler at 1 worker and at 8 workers. Each host
// pairs with a neighbour inside its site over a LAN link; host 0 of each
// site also connects to host 0 of the next site over a 5 ms inter-site
// link, which sets the conservative lookahead window and carries the
// cross-shard migrations. Every VM migrates once: to its host's partner
// (intra-shard) or, for VMs on the site gateways, to the next site
// (cross-shard).
//
// The two worker counts must produce the same combined audit
// fingerprint (the PDES determinism contract); this binary enforces that
// with a VEC_CHECK and reports both wall-clock rows for
// tools/bench_compare.py. The interesting outputs are fleet_pdes_w1 /
// fleet_pdes_w8 ns/op and the printed speedup. The speedup is only
// meaningful on a machine with spare cores — on a single-core box the
// eight workers timeshare one CPU and the w8 row measures barrier
// overhead instead, so the printed figure is labelled with the core
// count and nothing asserts on it there.
//
// Usage: fleet_pdes [--out BENCH_fleet_pdes.json]
#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstring>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "bench_util.hpp"
#include "common/check.hpp"
#include "common/rng.hpp"
#include "core/cluster.hpp"
#include "core/scheduler.hpp"
#include "core/vm_instance.hpp"
#include "sim/link.hpp"
#include "sim/sharded.hpp"
#include "vm/guest_memory.hpp"

namespace {

using namespace vecycle;
using Clock = std::chrono::steady_clock;

constexpr std::uint32_t kSites = 25;
constexpr std::uint32_t kHostsPerSite = 40;   // 1000 hosts
constexpr std::uint64_t kVmsPerHost = 10;     // 10,000 VMs
constexpr std::uint64_t kVms =
    static_cast<std::uint64_t>(kSites) * kHostsPerSite * kVmsPerHost;

struct Result {
  std::string name;
  std::uint64_t iters = 0;
  double ns_per_op = 0.0;
};

std::string HostName(std::uint32_t site, std::uint32_t host) {
  // Appended piecewise: GCC 12 reports a false -Wrestrict on an inlined
  // "literal" + std::string.
  std::string name = "s";
  name += std::to_string(site);
  name += "-h";
  name += std::to_string(host);
  return name;
}

/// Builds the fleet from scratch, drains every migration with the given
/// worker-pool size, and returns the combined per-shard audit
/// fingerprint folded with the completion count.
std::uint64_t RunFleet(std::size_t workers) {
  sim::ShardedSimulator pdes(kSites);
  // The cluster needs a nominal simulator for its serial-mode APIs; the
  // sharded scheduler routes every session to its own shard instead.
  core::Cluster cluster(pdes.Shard(0));
  sim::ShardPlan plan;

  const sim::LinkConfig intersite{GigabitsPerSecond(1.0), Milliseconds(5.0),
                                  Bytes{0}};
  for (std::uint32_t site = 0; site < kSites; ++site) {
    for (std::uint32_t host = 0; host < kHostsPerSite; ++host) {
      cluster.AddHost({HostName(site, host), sim::DiskConfig::Ssd(), {}, {}, {}});
      plan.Assign(HostName(site, host), site);
    }
    // Partner hosts pairwise inside the site (h0-h1, h2-h3, ...).
    for (std::uint32_t host = 0; host + 1 < kHostsPerSite; host += 2) {
      cluster.Connect(HostName(site, host), HostName(site, host + 1),
                      sim::LinkConfig::Lan());
    }
  }
  // Inter-site ring through each site's gateway host 0. Its latency is
  // the minimum cross-shard latency, i.e. the lookahead window.
  for (std::uint32_t site = 0; site < kSites; ++site) {
    cluster.Connect(HostName(site, 0), HostName((site + 1) % kSites, 0),
                    intersite);
  }

  core::MigrationScheduler scheduler(cluster, pdes, plan,
                                     [workers] {
                                       core::SchedulerConfig config;
                                       config.workers = workers;
                                       return config;
                                     }());

  std::vector<std::unique_ptr<core::VmInstance>> fleet;
  fleet.reserve(kVms);
  migration::MigrationConfig config;
  config.strategy = migration::Strategy::kFull;

  std::uint64_t vm_index = 0;
  for (std::uint32_t site = 0; site < kSites; ++site) {
    for (std::uint32_t host = 0; host < kHostsPerSite; ++host) {
      for (std::uint64_t v = 0; v < kVmsPerHost; ++v, ++vm_index) {
        fleet.push_back(std::make_unique<core::VmInstance>(
            "vm-" + std::to_string(vm_index), MiB(1),
            vm::ContentMode::kSeedOnly));
        Xoshiro256 rng(0xf1ee7000 + vm_index);
        vm::MemoryProfile{}.Apply(fleet.back()->Memory(), rng);
        fleet.back()->SetCurrentHost(HostName(site, host));
        // Gateway VMs hop to the next site (cross-shard); everyone else
        // moves to the in-site partner host (intra-shard).
        const std::string to =
            host == 0 ? HostName((site + 1) % kSites, 0)
                      : HostName(site, host % 2 == 0 ? host + 1 : host - 1);
        scheduler.Submit(*fleet.back(), to, config);
      }
    }
  }

  const std::uint64_t completed = scheduler.Drain();
  VEC_CHECK_MSG(completed == kVms, "fleet_pdes: not every migration ran");
  return SplitMix64(scheduler.CombinedFingerprint() ^ completed).Next();
}

Result MeasureFleet(const std::string& name, std::size_t workers, int reps,
                    std::uint64_t* fingerprint_out) {
  double best_ns = 1e300;
  std::uint64_t fingerprint = 0;
  for (int r = 0; r < reps; ++r) {
    const auto t0 = Clock::now();
    const std::uint64_t fp = RunFleet(workers);
    const auto t1 = Clock::now();
    if (r == 0) {
      fingerprint = fp;
    } else {
      VEC_CHECK_MSG(fp == fingerprint,
                    "fleet_pdes: fingerprint diverged between repetitions");
    }
    best_ns = std::min(
        best_ns, std::chrono::duration<double, std::nano>(t1 - t0).count());
  }
  *fingerprint_out = fingerprint;
  Result result;
  result.name = name;
  result.iters = kVms;
  result.ns_per_op = best_ns / static_cast<double>(kVms);
  std::printf("%-32s %12.1f ns/op  (%.2f s total)\n", name.c_str(),
              result.ns_per_op, best_ns / 1e9);
  return result;
}

void WriteJson(const std::string& path, const std::vector<Result>& results) {
  std::FILE* out = std::fopen(path.c_str(), "w");
  if (out == nullptr) {
    std::fprintf(stderr, "cannot write %s\n", path.c_str());
    std::exit(1);
  }
  std::fprintf(out, "{\n  \"schema\": \"vecycle.bench_perf.v1\",\n");
  std::fprintf(out, "  \"benchmarks\": [\n");
  for (std::size_t i = 0; i < results.size(); ++i) {
    const auto& r = results[i];
    std::fprintf(out,
                 "    {\"name\": \"%s\", \"iters\": %llu, "
                 "\"ns_per_op\": %.3f, \"ops_per_sec\": %.3f}%s\n",
                 r.name.c_str(),
                 static_cast<unsigned long long>(r.iters), r.ns_per_op,
                 1e9 / r.ns_per_op, i + 1 < results.size() ? "," : "");
  }
  std::fprintf(out, "  ]\n}\n");
  std::fclose(out);
  std::printf("\nwrote %s\n", path.c_str());
}

}  // namespace

int main(int argc, char** argv) {
  std::string out_path;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--out") == 0 && i + 1 < argc) {
      out_path = argv[++i];
    } else {
      std::fprintf(stderr, "usage: %s [--out FILE.json]\n", argv[0]);
      return 2;
    }
  }

  bench::PrintHeader(
      "fleet_pdes: 1000-host / 10k-VM sharded fleet drain (w1 vs w8)");

  std::uint64_t fp_w1 = 0;
  std::uint64_t fp_w8 = 0;
  std::vector<Result> results;
  results.push_back(MeasureFleet("fleet_pdes_w1", 1, 2, &fp_w1));
  results.push_back(MeasureFleet("fleet_pdes_w8", 8, 2, &fp_w8));
  VEC_CHECK_MSG(fp_w1 == fp_w8,
                "fleet_pdes: 1-worker and 8-worker runs diverged — the "
                "worker count leaked into simulation results");

  const unsigned cores = std::thread::hardware_concurrency();
  std::printf(
      "\nspeedup w8/w1: %.2fx on %u core%s  (fingerprint %016llx, "
      "identical)\n",
      results[0].ns_per_op / results[1].ns_per_op, cores,
      cores == 1 ? "" : "s", static_cast<unsigned long long>(fp_w1));

  if (!out_path.empty()) WriteJson(out_path, results);
  return 0;
}
