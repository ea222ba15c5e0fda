#!/usr/bin/env python3
"""Two-clock benchmark of the vecycle simulator.

Usage (from the root of a checkout):

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Builds the perfbench binary from source on first use (CMake, into
$CARGO_TARGET_DIR or .bench_build), then measures for about S seconds
by starting one fresh process per repetition, one at a time, so no
digest memo or allocator state of a previous repetition is warm. Each
repetition builds its world (setup_s) and runs the workload's fixed
batch, timing each of the batch's segments.

--trace 0 reports the end-to-end metrics: norm_wall_s sums each
segment's median time over the repetitions, each time first scaled to a
host of nominal speed by the host-speed probes taken on either side of
the segment; the other host figures are medians over the repetitions,
and the simulated-time figures (sim_*) come from the first repetition
after checking every repetition reproduced them exactly. --trace 1 runs the decorated workload instead and reports the
per-layer metrics (medians over repetitions); its spans are written to
<build dir>/spans/.

Every line but the last is for people and names each metric's clock
(wall = host time, sim = simulated time). The last line is one JSON
object: {"correct", "attempted", "failed", "metrics"}. See
perfbench/README.md for the metrics, the workloads and their seeds.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent

WORKLOADS = ("diurnal_policy", "fleet_roundtrip", "pingpong_materialized")

# name -> unit, in printout order. Each metric is on one of two clocks:
# wall (host time and memory, measured by this process) or sim (a
# deterministic output of the simulation for the seed). Sim-clock units
# carry a "sim." prefix, so the clock travels with the value into the
# result line.
END_TO_END = {
    "norm_wall_s": "s",
    "setup_s": "s",
    "norm_legs_per_s": "1/s",
    "peak_rss_mib": "MiB",
    "completed_ratio": "ratio",
    "sim_wire_mib": "sim.MiB",
    "sim_migration_p50_s": "sim.s",
    "sim_migration_tail_s": "sim.s",
    "sim_downtime_p50_ms": "sim.ms",
    "sim_downtime_tail_ms": "sim.ms",
}

PER_LAYER = {
    "vm.advance_s": "s",
    "vm.page_writes": "sim.count",
    "vm.ns_per_write": "ns",
    "policy.decide_s": "s",
    "policy.decisions": "sim.count",
    "policy.observe_s": "s",
    "policy.observes": "sim.count",
    "policy.deferred": "sim.count",
    "policy.affinity_hit_ratio": "sim.ratio",
    "core.run_for_self_s": "s",
    "core.run_policy_self_s": "s",
    "core.drain_out_s": "s",
    "core.drain_back_s": "s",
    "core.migrate_ms_p50": "ms",
    "core.migrate_ms_tail": "ms",
    "core.legs": "sim.count",
    "core.retries": "sim.count",
    "core.aborts": "sim.count",
    "migration.rounds": "sim.count",
    "migration.pages_full": "sim.count",
    "migration.pages_checksum": "sim.count",
    "migration.pages_dup_ref": "sim.count",
    "migration.pages_resent_dirty": "sim.count",
    "migration.recycle_ratio": "sim.ratio",
    "digest.hashed_mib": "sim.MiB",
    "storage.footprint_mib": "sim.MiB",
    "storage.checkpoints": "sim.count",
    "storage.evictions": "sim.count",
    "storage.setup_sim_s": "sim.s",
    "sim.events": "sim.count",
    "sim.ns_per_event": "ns",
    "sim.shard_events_max_over_mean": "sim.ratio",
    "sim.pdes_w1_s": "s",
    "sim.pdes_efficiency": "ratio",
    "net.reverse_mib": "sim.MiB",
    "trace.overhead_ratio": "ratio",
    "trace.unattributed_s": "s",
}

# Fresh-process setups per run: setup_s is the median of at least this
# many (timed repetitions count, setup-only processes make up the rest).
MIN_SETUPS = 7
# PDES worker count of fleet_roundtrip's timed runs (nproc = 4).
FLEET_WORKERS = 4
CHILD_TIMEOUT_S = 120
# ProbeSeconds (cpp/spans.cpp) on the reference host of README.md when
# nothing else loads it. norm_* figures are seconds on a host that runs
# the probe in this time.
NOMINAL_PROBE_S = 180e-6


def log(message):
    print(message, file=sys.stderr, flush=True)


def build(build_dir):
    """Configures (once) and builds the perfbench binary; returns its path."""
    if not (build_dir / "CMakeCache.txt").exists():
        configure = [
            "cmake", "-S", str(HERE), "-B", str(build_dir),
            "-DCMAKE_BUILD_TYPE=Release",
        ]
        if subprocess.run(configure, stdout=sys.stderr).returncode != 0:
            sys.exit("perfbench: cmake configure failed")
    compile_cmd = [
        "cmake", "--build", str(build_dir), "-j4", "--target",
        "perfbench",
    ]
    if subprocess.run(compile_cmd, stdout=sys.stderr).returncode != 0:
        sys.exit("perfbench: build failed")
    return build_dir / "perfbench"


class Budget:
    """Repeats whole batches for about `seconds`: at least one, and
    another only if it would end nearer the target than stopping now."""

    def __init__(self, seconds):
        self.seconds = seconds
        self.start = time.monotonic()
        self.done = 0

    def another(self):
        elapsed = time.monotonic() - self.start
        if self.done > 0 and elapsed + 0.5 * elapsed / self.done > self.seconds:
            return False
        self.done += 1
        return True


class Run:
    """Spawns benchmark processes and keeps every failure it sees."""

    def __init__(self, binary, workload, seed):
        self.binary = binary
        self.workload = workload
        self.seed = seed
        self.failures = []
        self.attempted = 0
        self.failed = 0

    def child(self, command, *extra):
        """Runs one benchmark process and waits for it; returns its
        result, or None if it failed."""
        argv = [str(self.binary), command, "--workload", self.workload,
                "--seed", str(self.seed), *extra]
        proc = subprocess.Popen(argv, stdout=subprocess.PIPE,
                                stderr=subprocess.PIPE, text=True)
        try:
            stdout, stderr = proc.communicate(timeout=CHILD_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            self.failures.append(f"{' '.join(argv)}: timed out")
            return None
        finally:
            # Never leave a benchmark process behind, whatever went wrong.
            if proc.poll() is None:
                proc.kill()
                proc.communicate()
        if proc.returncode != 0:
            self.failures.append(
                f"{' '.join(argv)}: exit {proc.returncode}: "
                f"{stderr.strip()[-500:]}")
            return None
        return json.loads(stdout.strip().splitlines()[-1])

    def repetition(self, *extra):
        """One batch; its legs count toward attempted and failed.
        Returns the batch's result, or None if it did not report."""
        result = self.child("run", *extra)
        if result is None:
            # The process died before reporting its legs: count one
            # failed attempt so the run can never read as clean.
            self.attempted += 1
            self.failed += 1
            return None
        submitted = max(result["submitted"], 1)
        self.attempted += submitted
        if result["failures"]:
            # A failed check discredits the whole batch.
            self.failures.extend(result["failures"])
            self.failed += submitted
        else:
            self.failed += result["submitted"] - result["completed"]
        return result

    def check_same(self, results, key, what):
        first = results[0][key]
        for other in results[1:]:
            if other[key] != first:
                self.failures.append(
                    f"{self.workload}: {what} differs between repetitions "
                    f"of seed {self.seed}: {first} vs {other[key]}")
                self.failed += other["submitted"]


def normalized_segments_s(result):
    """Each segment's time on a host of nominal speed: its wall time times
    NOMINAL_PROBE_S over the mean of the probes just before and just
    after it. A workload that takes no probes keeps its wall times."""
    probes = result["probes_s"]
    if not probes:
        return result["segments_s"]
    return [seconds * NOMINAL_PROBE_S * 2.0 / (probes[j] + probes[j + 1])
            for j, seconds in enumerate(result["segments_s"])]


def batch_s(results, segments):
    """Sums, over the batch's segments, each segment's median over the
    repetitions; `segments` maps a result to its per-segment times."""
    return sum(statistics.median(times)
               for times in zip(*(segments(r) for r in results)))


def timed_run(run, seconds):
    extra = (["--workers", str(FLEET_WORKERS)]
             if run.workload == "fleet_roundtrip" else [])
    results = []
    budget = Budget(seconds)
    while budget.another():
        result = run.repetition(*extra)
        if result is not None:
            results.append(result)
        if result is None or run.failures:
            break
    if not results:
        return None
    setups = [r["setup_s"] for r in results]
    while len(setups) < MIN_SETUPS:
        setup = run.child("setup", *extra)
        if setup is None:
            break
        setups.append(setup["setup_s"])
    run.check_same(results, "sim", "simulated outcome")
    run.check_same(results, "fingerprint", "fingerprint")
    counts = {len(r["segments_s"]) for r in results}
    if len(counts) != 1:
        run.failures.append(
            f"{run.workload}: segment count differs between repetitions "
            f"of seed {run.seed}: {sorted(counts)}")
        run.failed += sum(r["submitted"] for r in results[1:])

    wall_s = batch_s(results, lambda r: r["segments_s"])
    norm_wall_s = batch_s(results, normalized_segments_s)
    probes = [p for r in results for p in r["probes_s"]]
    metrics = {
        "norm_wall_s": norm_wall_s,
        "setup_s": statistics.median(setups),
        "norm_legs_per_s": results[0]["completed"] / norm_wall_s,
        "peak_rss_mib": statistics.median(r["peak_rss_mib"] for r in results),
        "completed_ratio": (run.attempted - run.failed) / run.attempted,
    }
    for name in END_TO_END:
        if name.startswith("sim_"):
            metrics[name] = results[0]["sim"][name]
    sim = results[0]["sim"]
    notes = [
        f"{len(results)} repetitions of {len(results[0]['segments_s'])} "
        f"segments, {len(setups)} setups",
        f"tail = p{sim['tail_percentile']} of {sim['legs']} legs",
        f"wall_s = {wall_s:.3f} as measured"
        + (f"; probe median {statistics.median(probes) * 1e6:.1f} us, "
           f"nominal {NOMINAL_PROBE_S * 1e6:.1f} us" if probes else
           " (not probed: norm_wall_s = wall_s)"),
    ] + [f"{k} = {v:.3f}" for k, v in results[0]["notes"].items()]
    return metrics, notes


def traced_repetition(run, spans_dir, index):
    """One traced batch: (per-layer metrics, self time per layer).

    fleet_roundtrip runs it at 4 and at 1 worker.
    """
    def spans(tag):
        return ["--spans",
                str(spans_dir / f"{run.workload}-seed{run.seed}-{index}{tag}.tsv")]

    if run.workload != "fleet_roundtrip":
        result = run.repetition("--trace", *spans(""))
        if result is None:
            return None
        layers = dict(result["layers"])
        layers["sim.pdes_w1_s"] = 0.0
        layers["sim.pdes_efficiency"] = 0.0
        return layers, result["self_s"]

    wide = run.repetition("--trace", "--workers", str(FLEET_WORKERS),
                          *spans("-w4"))
    narrow = run.repetition("--trace", "--workers", "1", *spans("-w1"))
    if wide is None or narrow is None:
        return None
    # PDES determinism: the worker count must not leak into results.
    run.check_same([wide, narrow], "fingerprint", "fingerprint at w1 vs w4")
    run.check_same([wide, narrow], "sim", "simulated outcome at w1 vs w4")
    layers = dict(wide["layers"])
    drain = lambda r: r["layers"]["core.drain_out_s"] + r["layers"]["core.drain_back_s"]
    layers["sim.pdes_w1_s"] = drain(narrow)
    layers["sim.pdes_efficiency"] = drain(narrow) / (FLEET_WORKERS * drain(wide))
    return layers, wide["self_s"]


def traced_run(run, seconds, spans_dir):
    spans_dir.mkdir(parents=True, exist_ok=True)
    repetitions = []
    budget = Budget(seconds)
    while budget.another():
        traced = traced_repetition(run, spans_dir, len(repetitions))
        if traced is not None:
            repetitions.append(traced)
        if traced is None or run.failures:
            break
    if not repetitions:
        return None
    metrics = {name: statistics.median(r[0][name] for r in repetitions)
               for name in PER_LAYER}
    self_s = repetitions[0][1]
    largest = max(self_s, key=self_s.get)
    notes = [
        f"{len(repetitions)} traced repetitions, spans in {spans_dir}",
        "layer self times (wall s): " + ", ".join(
            f"{k} {v:.3f}" for k, v in self_s.items())
        + f"; largest: {largest}",
    ]
    return metrics, notes


def clock(unit):
    return "sim" if unit.startswith("sim.") else "wall"


def print_table(metrics, spec):
    for name, unit in spec.items():
        print(f"  {name:<34} {clock(unit):<5} {metrics[name]:>18.6f} {unit}")


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if args.seed < 0:
        parser.error("--seed must be non-negative")

    build_dir = Path(os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    binary = build(build_dir)
    run = Run(binary, args.workload, args.seed)
    if args.trace:
        measured = traced_run(run, args.seconds, build_dir / "spans")
        spec = PER_LAYER
    else:
        measured = timed_run(run, args.seconds)
        spec = END_TO_END
    for failure in run.failures:
        log(f"perfbench: FAILED: {failure}")
    if measured is None:
        sys.exit(f"perfbench: {args.workload} produced no result")
    metrics, notes = measured

    print(f"perfbench {args.workload} seed {args.seed} "
          f"({'per layer, traced' if args.trace else 'end to end'})")
    for note in notes:
        print(f"  {note}")
    print_table(metrics, spec)
    correct = not run.failures and run.failed == 0
    print(json.dumps({
        "correct": correct,
        "attempted": run.attempted,
        "failed": run.failed,
        "metrics": {name: {"value": metrics[name], "unit": unit}
                    for name, unit in spec.items()},
    }))


if __name__ == "__main__":
    main()
