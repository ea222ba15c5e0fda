// perfbench: one benchmark repetition per process.
//
//   perfbench run --workload NAME --seed N [--workers N]
//                 [--trace] [--spans FILE]
//   perfbench setup --workload NAME --seed N [--workers N]
//   perfbench fidelity --seed N
//
// `run` builds the world (setup_s, wall clock), runs the workload's
// closed batch (wall_s), reads the outcome and prints one JSON object on
// stdout: the host-time figures (with the batch's per-segment times
// and, for a probed workload, its host-speed probes), the simulated-time
// figures over every completed leg, the output checks that failed, and
// with --trace the per-layer figures from the span recorder. `setup` only builds the
// world. `fidelity` checks the diurnal_policy replay against
// policy::PolicyRunner::Run, with and without decorators, and exits
// nonzero on any difference.
//
// perfbench/run.py starts a fresh process per repetition: digest memos
// and allocator state would otherwise stay warm across repetitions.
#include <algorithm>
#include <chrono>
#include <cinttypes>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <exception>
#include <map>
#include <string>
#include <vector>

#include "benches.hpp"
#include "common/units.hpp"
#include "spans.hpp"

namespace perfbench {
namespace {

using namespace vecycle;

/// Null for an unknown name.
std::unique_ptr<Bench> MakeBench(const std::string& name,
                                 std::size_t workers) {
  if (name == "diurnal_policy") return MakeDiurnalBench();
  if (name == "fleet_roundtrip") return MakeFleetBench(workers);
  if (name == "pingpong_materialized") return MakePingPongBench();
  return nullptr;
}

struct Args {
  std::string command;
  std::string workload;
  std::uint64_t seed = 0;
  bool has_seed = false;
  std::size_t workers = 4;
  bool trace = false;
  std::string spans_path;
};

[[noreturn]] void Usage() {
  std::fprintf(stderr,
               "usage: perfbench run|setup --workload NAME --seed N "
               "[--workers N] [--trace] [--spans FILE]\n"
               "       perfbench fidelity --seed N\n");
  std::exit(2);
}

Args Parse(int argc, char** argv) {
  if (argc < 2) Usage();
  Args args;
  args.command = argv[1];
  for (int i = 2; i < argc; ++i) {
    const std::string flag = argv[i];
    const bool has_value = i + 1 < argc;
    if (flag == "--workload" && has_value) {
      args.workload = argv[++i];
    } else if (flag == "--seed" && has_value) {
      args.seed = std::strtoull(argv[++i], nullptr, 10);
      args.has_seed = true;
    } else if (flag == "--workers" && has_value) {
      args.workers = std::strtoull(argv[++i], nullptr, 10);
    } else if (flag == "--spans" && has_value) {
      args.spans_path = argv[++i];
    } else if (flag == "--trace") {
      args.trace = true;
    } else {
      Usage();
    }
  }
  if (!args.has_seed || args.workers < 1 || args.workers > 4) Usage();
  return args;
}

/// Peak resident memory of this process image, from /proc/self/status
/// VmHWM. (getrusage's ru_maxrss would also count the parent's image
/// that was resident before exec.)
double PeakRssMiB() {
  std::FILE* status = std::fopen("/proc/self/status", "r");
  if (status == nullptr) return 0.0;
  char line[256];
  double kib = 0.0;
  while (std::fgets(line, sizeof(line), status) != nullptr) {
    if (std::strncmp(line, "VmHWM:", 6) == 0) kib = std::atof(line + 6);
  }
  std::fclose(status);
  return kib / 1024.0;
}

/// 1-based nearest rank of percentile `p` over `n` samples.
std::size_t NearestRank(std::uint32_t p, std::size_t n) {
  return std::max<std::size_t>(1, (p * n + 99) / 100);
}

/// The tail percentile: the highest whole percentile whose nearest rank
/// still leaves at least 10 samples above it (p50 below 11 samples).
std::uint32_t TailPercentile(std::size_t n) {
  for (std::uint32_t p = 99; p >= 1; --p) {
    if (n >= NearestRank(p, n) + 10) return p;
  }
  return 50;
}

double Percentile(std::vector<double> values, std::uint32_t p) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  return values[std::min(NearestRank(p, values.size()), values.size()) - 1];
}

/// Minimal JSON object writer: keys in insertion order, doubles with all
/// their digits.
class JsonObject {
 public:
  static std::string Quote(const std::string& value) {
    std::string quoted = "\"";
    for (const char c : value) {
      if (c == '"' || c == '\\') quoted += '\\';
      quoted += (c == '\n' ? ' ' : c);
    }
    return quoted + "\"";
  }

  void Number(const std::string& key, double value) {
    char buf[64];
    std::snprintf(buf, sizeof(buf), "%.17g", value);
    Raw(key, buf);
  }
  void Integer(const std::string& key, std::uint64_t value) {
    Raw(key, std::to_string(value));
  }
  void String(const std::string& key, const std::string& value) {
    Raw(key, Quote(value));
  }
  void Strings(const std::string& key, const std::vector<std::string>& values) {
    std::string list = "[";
    for (std::size_t i = 0; i < values.size(); ++i) {
      list += (i == 0 ? "" : ", ") + Quote(values[i]);
    }
    Raw(key, list + "]");
  }
  void Numbers(const std::string& key, const std::vector<double>& values) {
    std::string list = "[";
    char buf[64];
    for (std::size_t i = 0; i < values.size(); ++i) {
      std::snprintf(buf, sizeof(buf), "%s%.17g", i == 0 ? "" : ", ",
                    values[i]);
      list += buf;
    }
    Raw(key, list + "]");
  }
  void Object(const std::string& key, const JsonObject& value) {
    Raw(key, value.Str());
  }
  void Raw(const std::string& key, const std::string& value) {
    body_ += (body_.empty() ? "\"" : ", \"") + key + "\": " + value;
  }
  [[nodiscard]] std::string Str() const { return "{" + body_ + "}"; }

 private:
  std::string body_;
};

/// Simulated-time figures over every completed leg.
JsonObject SimMetrics(const Outcome& outcome) {
  std::vector<double> migration_s;
  std::vector<double> downtime_ms;
  Bytes wire;
  for (const auto& leg : outcome.legs) {
    wire += leg.tx_bytes;
    migration_s.push_back(ToSeconds(leg.total_time));
    downtime_ms.push_back(ToSeconds(leg.downtime) * 1e3);
  }
  const std::uint32_t tail = TailPercentile(outcome.legs.size());
  JsonObject sim;
  sim.Number("sim_wire_mib", ToMiB(wire));
  sim.Number("sim_migration_p50_s", Percentile(migration_s, 50));
  sim.Number("sim_migration_tail_s", Percentile(migration_s, tail));
  sim.Number("sim_downtime_p50_ms", Percentile(downtime_ms, 50));
  sim.Number("sim_downtime_tail_ms", Percentile(downtime_ms, tail));
  sim.Integer("tail_percentile", tail);
  sim.Integer("legs", outcome.legs.size());
  return sim;
}

/// Per-layer figures of a traced run. Host times come from the span
/// recorder; counts from the outcome and the decorators.
JsonObject LayerMetrics(const Outcome& outcome, const SpanRecorder& recorder,
                        double wall_s, double span_cost_s) {
  const auto totals = recorder.Totals();
  auto total = [&](const char* name) {
    const auto it = totals.find(name);
    return it == totals.end() ? 0.0 : it->second.total_s;
  };
  auto self = [&](const char* name) {
    const auto it = totals.find(name);
    return it == totals.end() ? 0.0 : it->second.self_s;
  };
  auto count = [&](const char* name) {
    const auto it = totals.find(name);
    return it == totals.end() ? std::uint64_t{0} : it->second.count;
  };
  JsonObject layers;

  const double advance_s = total("vm.advance");
  const std::uint64_t writes = DecoratedPageWrites();
  layers.Number("vm.advance_s", advance_s);
  layers.Integer("vm.page_writes", writes);
  layers.Number("vm.ns_per_write",
                writes == 0 ? 0.0 : advance_s * 1e9 / static_cast<double>(writes));

  const auto& decisions = outcome.decisions;
  layers.Number("policy.decide_s", total("policy.decide"));
  layers.Integer("policy.decisions", decisions.decisions);
  layers.Number("policy.observe_s", total("policy.observe"));
  layers.Integer("policy.observes", count("policy.observe"));
  layers.Integer("policy.deferred", decisions.deferred);
  layers.Number("policy.affinity_hit_ratio",
                decisions.decisions == 0
                    ? 0.0
                    : static_cast<double>(decisions.affinity_hits) /
                          static_cast<double>(decisions.decisions));

  std::vector<double> migrate_ms;
  if (const auto it = totals.find("core.migrate"); it != totals.end()) {
    for (const double d : it->second.durations_s) migrate_ms.push_back(d * 1e3);
  }
  const double core_self_s = self("core.run_for") + self("core.run_policy") +
                             self("core.migrate") + total("core.drain_out") +
                             total("core.drain_back");
  layers.Number("core.run_for_self_s", self("core.run_for"));
  layers.Number("core.run_policy_self_s", self("core.run_policy"));
  layers.Number("core.drain_out_s", total("core.drain_out"));
  layers.Number("core.drain_back_s", total("core.drain_back"));
  layers.Number("core.migrate_ms_p50", Percentile(migrate_ms, 50));
  layers.Number("core.migrate_ms_tail",
                Percentile(migrate_ms, TailPercentile(migrate_ms.size())));
  layers.Integer("core.legs", outcome.legs.size());
  layers.Integer("core.retries", outcome.retries);
  layers.Integer("core.aborts", outcome.aborted);

  std::uint64_t rounds = 0, full = 0, checksum = 0, dup = 0, resent = 0;
  std::uint64_t round1 = 0;
  Bytes hashed, reverse;
  double setup_sim_s = 0.0;
  for (const auto& leg : outcome.legs) {
    rounds += leg.rounds;
    full += leg.pages_sent_full;
    checksum += leg.pages_sent_checksum;
    dup += leg.pages_dup_ref;
    resent += leg.pages_resent_dirty;
    round1 += leg.Round1Pages();
    hashed += leg.source_hashed_bytes + leg.dest_hashed_bytes;
    reverse += leg.bulk_exchange_bytes + leg.query_bytes;
    setup_sim_s += ToSeconds(leg.setup_time);
  }
  layers.Integer("migration.rounds", rounds);
  layers.Integer("migration.pages_full", full);
  layers.Integer("migration.pages_checksum", checksum);
  layers.Integer("migration.pages_dup_ref", dup);
  layers.Integer("migration.pages_resent_dirty", resent);
  layers.Number("migration.recycle_ratio",
                round1 == 0 ? 0.0
                            : static_cast<double>(checksum) /
                                  static_cast<double>(round1));
  layers.Number("digest.hashed_mib", ToMiB(hashed));
  layers.Number("storage.footprint_mib", outcome.storage_footprint_mib);
  layers.Integer("storage.checkpoints", outcome.storage_checkpoints);
  layers.Integer("storage.evictions", outcome.storage_evictions);
  layers.Number("storage.setup_sim_s", setup_sim_s);
  layers.Integer("sim.events", outcome.sim_events);
  layers.Number("sim.ns_per_event",
                outcome.sim_events == 0
                    ? 0.0
                    : core_self_s * 1e9 /
                          static_cast<double>(outcome.sim_events));
  layers.Number("sim.shard_events_max_over_mean",
                outcome.shard_events_max_over_mean);
  layers.Number("net.reverse_mib", ToMiB(reverse));
  layers.Number("trace.overhead_ratio",
                static_cast<double>(recorder.Spans().size()) * span_cost_s /
                    wall_s);
  layers.Number("trace.unattributed_s", wall_s - recorder.TopLevelSeconds());
  return layers;
}

/// The batch's segment durations: from `start` to the first lap's end,
/// from each lap's restart to the next lap's end, and from the last
/// restart to `end`. The probes between segments are left out.
std::vector<double> SegmentSeconds(const Bench& bench,
                                   WallClock::time_point start,
                                   WallClock::time_point end) {
  std::vector<double> seconds;
  WallClock::time_point from = start;
  for (const Bench::LapMark& lap : bench.Laps()) {
    seconds.push_back(std::chrono::duration<double>(lap.end - from).count());
    from = lap.restart;
  }
  seconds.push_back(std::chrono::duration<double>(end - from).count());
  return seconds;
}

/// Host self time per decorated layer, for the profile note: guest
/// writes (vm), placement (policy), and everything the core calls run
/// beneath them (core).
JsonObject LayerSelfTimes(const SpanRecorder& recorder) {
  std::map<std::string, double> by_layer = {
      {"vm", 0.0}, {"policy", 0.0}, {"core", 0.0}};
  for (const auto& [name, totals] : recorder.Totals()) {
    by_layer[name.substr(0, name.find('.'))] += totals.self_s;
  }
  JsonObject self;
  for (const auto& [layer, seconds] : by_layer) self.Number(layer, seconds);
  return self;
}

int RunCommand(const Args& args, bool setup_only) {
  auto bench = MakeBench(args.workload, args.workers);
  if (bench == nullptr) {
    std::fprintf(stderr, "unknown workload '%s'\n", args.workload.c_str());
    return 2;
  }
  SpanRecorder recorder;
  const double span_cost_s =
      args.trace ? SpanRecorder::CalibrateSpanCostSeconds() : 0.0;

  JsonObject out;
  out.String("workload", args.workload);
  out.Integer("seed", args.seed);
  out.Integer("workers", args.workers);
  out.Raw("traced", args.trace ? "true" : "false");

  const auto setup_start = WallClock::now();
  bench->Setup(args.seed, args.trace);
  out.Number("setup_s", SecondsSince(setup_start));
  if (setup_only) {
    std::printf("%s\n", out.Str().c_str());
    return 0;
  }

  Outcome outcome;
  std::vector<std::string> errors;
  const double first_probe_s = bench->Probed() ? ProbeSeconds() : 0.0;
  const auto start = WallClock::now();
  auto end = start;
  try {
    if (args.trace) SetActiveRecorder(&recorder);
    bench->Run();
    end = WallClock::now();
    SetActiveRecorder(nullptr);
    outcome = bench->Collect();
  } catch (const std::exception& e) {
    // An abort or a failed audit: the batch is incomplete and run.py
    // counts all of it as failed.
    end = WallClock::now();
    SetActiveRecorder(nullptr);
    errors.emplace_back(e.what());
  }
  const std::vector<double> segments_s = SegmentSeconds(*bench, start, end);
  double wall_s = 0.0;
  for (const double seconds : segments_s) wall_s += seconds;
  // One probe before each segment and one after the last: segment j
  // lies between probes j and j + 1.
  std::vector<double> probes_s;
  if (bench->Probed()) {
    probes_s.push_back(first_probe_s);
    probes_s.insert(probes_s.end(), bench->Probes().begin(),
                    bench->Probes().end());
    probes_s.push_back(ProbeSeconds());
  }
  errors.insert(errors.end(), outcome.failures.begin(),
                outcome.failures.end());

  out.Number("wall_s", wall_s);
  out.Numbers("segments_s", segments_s);
  out.Numbers("probes_s", probes_s);
  out.Number("peak_rss_mib", PeakRssMiB());
  out.Integer("submitted", outcome.submitted);
  out.Integer("completed", outcome.legs.size());
  out.Integer("aborted", outcome.aborted);
  out.Strings("failures", errors);
  char fingerprint[32];
  std::snprintf(fingerprint, sizeof(fingerprint), "%016" PRIx64,
                outcome.fingerprint);
  out.String("fingerprint", fingerprint);
  out.Object("sim", SimMetrics(outcome));
  JsonObject notes;
  for (const auto& [name, value] : outcome.notes) notes.Number(name, value);
  out.Object("notes", notes);
  if (args.trace) {
    out.Object("layers", LayerMetrics(outcome, recorder, wall_s, span_cost_s));
    out.Object("self_s", LayerSelfTimes(recorder));
    out.Integer("spans", recorder.Spans().size());
    if (!args.spans_path.empty() && !recorder.WriteTsv(args.spans_path)) {
      std::fprintf(stderr, "cannot write %s\n", args.spans_path.c_str());
      return 1;
    }
  }
  std::printf("%s\n", out.Str().c_str());
  return 0;
}

int FidelityCommand(const Args& args) {
  // The reference scorecard, in bench_policy's format.
  const auto reference = DiurnalReference(args.seed);
  std::printf("PolicyRunner::Run diurnal/affinity_cycle seed %" PRIu64
              ": %zu legs  %.1f MiB wire  %.3f ms p99 downtime  %" PRIu64
              " warm  %" PRIu64 " deferred\n",
              args.seed, reference.completed, ToMiB(reference.wire_bytes),
              ToSeconds(reference.P99Downtime()) * 1e3,
              reference.decisions.affinity_hits,
              reference.decisions.deferred);
  int status = 0;
  for (const bool traced : {false, true}) {
    const auto diffs = DiurnalFidelity(args.seed, traced, reference);
    std::printf("diurnal_policy replay vs PolicyRunner::Run, seed %" PRIu64
                ", %s: %s\n",
                args.seed, traced ? "decorated" : "plain",
                diffs.empty() ? "identical" : "DIFFERENT");
    for (const auto& diff : diffs) std::printf("  %s\n", diff.c_str());
    if (!diffs.empty()) status = 1;
  }
  return status;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  const perfbench::Args args = perfbench::Parse(argc, argv);
  if (args.command == "run") return perfbench::RunCommand(args, false);
  if (args.command == "setup") return perfbench::RunCommand(args, true);
  if (args.command == "fidelity") return perfbench::FidelityCommand(args);
  perfbench::Usage();
}
