// The benchmark's three workloads, each a closed batch over the public
// library API (see perfbench/README.md for why each was chosen):
//
//  * diurnal_policy        — bench_policy's `diurnal` corpus entry under
//                            affinity_cycle placement on one simulator,
//                            replayed wave by wave so the VMs' workloads
//                            and the policy can be decorated.
//  * fleet_roundtrip       — fleet_pdes's 1000-host / 10k-VM topology:
//                            every VM migrates out, then home, both legs
//                            with kHashes under the sharded scheduler.
//  * pingpong_materialized — the paper's case: one 256 MiB VM with real
//                            page bytes bouncing between two LAN hosts
//                            with kHashesPlusDedup.
//
// Setup() builds the world (timed as setup_s), Run() is the timed batch
// (wall_s), and Collect() reads the outcome afterwards, untimed. Run()
// marks the end of each segment of its batch with Lap().
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "migration/stats.hpp"
#include "policy/placement.hpp"
#include "policy/runner.hpp"
#include "spans.hpp"

namespace perfbench {

/// What one timed batch did, read after the clock stopped.
struct Outcome {
  std::uint64_t submitted = 0;  ///< legs handed to the orchestrator
  std::uint64_t aborted = 0;    ///< legs that exhausted their retries
  std::uint64_t retries = 0;
  /// Every completed leg's statistics, in completion order.
  std::vector<vecycle::migration::MigrationStats> legs;
  /// Failed output checks; any entry makes the run incorrect.
  std::vector<std::string> failures;

  std::uint64_t sim_events = 0;  ///< events executed by the timed batch
  /// Busiest shard's events over the mean (1 on one simulator).
  double shard_events_max_over_mean = 1.0;

  double storage_footprint_mib = 0.0;
  std::uint64_t storage_checkpoints = 0;
  std::uint64_t storage_evictions = 0;

  /// The placement policy's counters (zero when no policy ran).
  vecycle::policy::DecisionStats decisions;

  /// Run fingerprint: compared across PDES worker counts.
  std::uint64_t fingerprint = 0;

  /// Workload-specific figures for the printout (name, value).
  std::vector<std::pair<std::string, double>> notes;
};

class Bench {
 public:
  virtual ~Bench() = default;
  /// Builds the world for `seed`. `traced` installs the timing
  /// decorators (and, for pingpong_materialized, arms the audit layer).
  virtual void Setup(std::uint64_t seed, bool traced) = 0;
  virtual void Run() = 0;
  [[nodiscard]] virtual Outcome Collect() = 0;

  /// A segment boundary: one segment ended at `end` and the next started
  /// at `restart`. A probed workload takes its probe in between.
  struct LapMark {
    WallClock::time_point end;
    WallClock::time_point restart;
  };

  /// The segment boundaries of the last Run(). A segment is a fixed,
  /// seed-determined piece of the batch (a simulated step or a policy
  /// wave, a fleet drain, a ping-pong leg), so every repetition of a
  /// seed has the same segments.
  [[nodiscard]] const std::vector<LapMark>& Laps() const { return laps_; }

  /// Whether the workload takes a host-speed probe (ProbeSeconds) at
  /// every segment boundary, and Probes() holds them in order.
  [[nodiscard]] bool Probed() const { return probed_; }
  [[nodiscard]] const std::vector<double>& Probes() const { return probes_; }

 protected:
  explicit Bench(bool probed) : probed_(probed) {}

  void Lap() {
    const auto end = WallClock::now();
    if (probed_) probes_.push_back(ProbeSeconds());
    laps_.push_back({end, WallClock::now()});
  }

 private:
  const bool probed_;
  std::vector<LapMark> laps_;
  std::vector<double> probes_;
};

[[nodiscard]] std::unique_ptr<Bench> MakeDiurnalBench();
/// `workers` is the PDES worker-thread count.
[[nodiscard]] std::unique_ptr<Bench> MakeFleetBench(std::size_t workers);
[[nodiscard]] std::unique_ptr<Bench> MakePingPongBench();

/// The PolicyRunner scorecard for the diurnal corpus entry at `seed`.
[[nodiscard]] vecycle::policy::RunResult DiurnalReference(std::uint64_t seed);

/// Runs the benchmark's own diurnal_policy replay on `seed`, with or
/// without decorators, and returns its differences from `reference`, the
/// DiurnalReference of the same seed (empty when they agree on
/// completions, wire bytes, downtimes and DecisionStats).
[[nodiscard]] std::vector<std::string> DiurnalFidelity(
    std::uint64_t seed, bool traced,
    const vecycle::policy::RunResult& reference);

}  // namespace perfbench
