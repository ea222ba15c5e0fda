#!/usr/bin/env python3
"""Validates observability artifacts emitted by the bench binaries.

Usage:
    tools/validate_metrics.py METRICS_JSON [--trace TRACE_JSON]

Checks that METRICS_JSON follows the vecycle.metrics.v1 schema and that
every "precopy" record carries the full pre-copy MigrationStats field
set (and every "postcopy" record the full post-copy set), so a stats field
added without extending migration/observe.cpp fails CI here. "store"
records (per-host CheckpointStore counters, emitted by the VDI example
when tracing is on) must carry the full chunk-store counter set plus
the derived dedup/tier-hit ratios. "policy" records (placement-policy
decision tallies, emitted by bench_policy's smoke run) must carry the
full DecisionStats set, and every decision must be accounted warm or
cold: affinity_hits + cold_placements == decisions.

With --trace, also checks the Chrome-trace file: it must parse, use only
the phases the recorder emits, and contain a "round 1" span for every
migration process — the per-round timeline the traces exist for.
"""

import argparse
import json
import numbers
import sys

PRECOPY_COUNTERS = {
    "session_id",
    "rounds", "tx_bytes", "bulk_exchange_bytes", "query_bytes",
    "query_count", "pages_sent_full", "pages_sent_checksum",
    "pages_dup_ref", "pages_skipped_clean", "pages_resent_dirty",
    "pages_matched_in_place", "pages_from_checkpoint",
    "fallback_pages", "disk_read_errors", "retries",
    "source_hashed_bytes", "dest_hashed_bytes", "payload_bytes_original",
    "payload_bytes_on_wire", "total_time_ns", "downtime_ns",
    "setup_time_ns", "round1_pages", "multifd_channels",
    "pages_sent_delta", "delta_bytes_original", "delta_bytes_on_wire",
    "pages_delta_fallback", "throttle_rounds",
}
PRECOPY_GAUGES = {
    "total_time_s", "downtime_s", "setup_time_s", "throughput_mib_per_s",
    "compression_ratio", "max_throttle",
}
POSTCOPY_COUNTERS = {
    "remote_faults", "pages_prefetched", "pages_from_checkpoint",
    "tx_bytes", "checksum_vector_bytes", "downtime_ns",
    "time_to_residency_ns", "total_stall_ns",
}
POSTCOPY_GAUGES = {"downtime_s", "time_to_residency_s", "total_stall_s"}
STORE_COUNTERS = {
    "checkpoints_held", "footprint_bytes", "evictions",
    "chunks_written", "chunks_deduped", "chunks_gc_freed",
    "chunks_resident", "chunk_refs",
    "ssd_hits", "ssd_misses", "ssd_promotions",
}
STORE_GAUGES = {"dedup_ratio", "ssd_hit_rate", "footprint_mib"}
POLICY_COUNTERS = {
    "decisions", "deferred", "affinity_hits", "cold_placements",
}
POLICY_GAUGES = {"mean_affinity", "mean_score", "max_defer_s"}

TRACE_PHASES = {"M", "X", "i", "C"}


class ValidationError(Exception):
    pass


def require(condition, message):
    if not condition:
        raise ValidationError(message)


def validate_metrics(path):
    with open(path, encoding="utf-8") as handle:
        doc = json.load(handle)
    require(doc.get("schema") == "vecycle.metrics.v1",
            f"schema is {doc.get('schema')!r}, want 'vecycle.metrics.v1'")
    require(isinstance(doc.get("source"), str) and doc["source"],
            "source must be a non-empty string")
    records = doc.get("records")
    require(isinstance(records, list) and records,
            "records must be a non-empty list")

    for index, record in enumerate(records):
        where = f"record {index} ({record.get('label', '?')})"
        require(isinstance(record.get("label"), str) and record["label"],
                f"{where}: label must be a non-empty string")
        require(isinstance(record.get("kind"), str),
                f"{where}: kind must be a string")
        counters = record.get("counters")
        gauges = record.get("gauges")
        require(isinstance(counters, dict), f"{where}: counters must be an "
                "object")
        require(isinstance(gauges, dict), f"{where}: gauges must be an "
                "object")
        for name, value in counters.items():
            require(isinstance(value, int) and not isinstance(value, bool)
                    and value >= 0,
                    f"{where}: counter {name} must be a non-negative int")
        for name, value in gauges.items():
            require(isinstance(value, numbers.Real)
                    and not isinstance(value, bool),
                    f"{where}: gauge {name} must be a number")

        wanted = {
            "precopy": (PRECOPY_COUNTERS, PRECOPY_GAUGES),
            "postcopy": (POSTCOPY_COUNTERS, POSTCOPY_GAUGES),
            "store": (STORE_COUNTERS, STORE_GAUGES),
            "policy": (POLICY_COUNTERS, POLICY_GAUGES),
        }.get(record["kind"])
        if wanted is not None:
            missing = ((wanted[0] - counters.keys())
                       | (wanted[1] - gauges.keys()))
            require(not missing,
                    f"{where}: missing {record['kind']} fields: "
                    f"{sorted(missing)}")

        # Multifd sessions emit one tx_bytes_ch<k> counter per forward
        # channel; the per-channel bytes must conserve: their sum equals
        # tx_bytes, with no stray channels beyond multifd_channels.
        if record["kind"] == "precopy":
            channels = counters.get("multifd_channels", 1)
            per_channel = {name: value for name, value in counters.items()
                           if name.startswith("tx_bytes_ch")}
            if channels > 1 or per_channel:
                expected = {f"tx_bytes_ch{k}" for k in range(channels)}
                require(set(per_channel) == expected,
                        f"{where}: per-channel counters {sorted(per_channel)}"
                        f" do not match multifd_channels={channels}")
                total = sum(per_channel.values())
                require(total == counters.get("tx_bytes"),
                        f"{where}: sum of per-channel tx bytes {total} != "
                        f"tx_bytes {counters.get('tx_bytes')}")

        # Store records derive two ratios; both must be fractions, and a
        # deduplicated chunk implies the original was written first.
        if record["kind"] == "store":
            for name in ("dedup_ratio", "ssd_hit_rate"):
                require(0.0 <= gauges[name] <= 1.0,
                        f"{where}: gauge {name} must be in [0, 1]")
            require(counters["chunks_deduped"] == 0
                    or counters["chunks_written"] > 0,
                    f"{where}: deduped chunks without any written chunk")

        # Every placement decision is either an affinity hit (a warm
        # destination was chosen) or a cold placement; the tallies must
        # partition the decision count, and deferrals never outnumber
        # the decisions they delayed.
        if record["kind"] == "policy":
            require(counters["affinity_hits"] + counters["cold_placements"]
                    == counters["decisions"],
                    f"{where}: affinity_hits + cold_placements "
                    f"({counters['affinity_hits']} + "
                    f"{counters['cold_placements']}) != decisions "
                    f"({counters['decisions']})")
            require(counters["deferred"] <= counters["decisions"],
                    f"{where}: deferred exceeds decisions")
            require(0.0 <= gauges["mean_affinity"] <= 1.0,
                    f"{where}: gauge mean_affinity must be in [0, 1]")

        # Scheduler sessions tag their label with "#<session_id>"; the
        # suffix must agree with the session_id counter.
        if record["kind"] == "precopy" and "#" in record["label"]:
            suffix = record["label"].rsplit("#", 1)[1]
            require(suffix.isdigit(),
                    f"{where}: label session suffix {suffix!r} is not a "
                    "number")
            require(int(suffix) == counters.get("session_id"),
                    f"{where}: label says session {suffix} but session_id "
                    f"counter is {counters.get('session_id')}")
    return doc


def validate_trace(path):
    with open(path, encoding="utf-8") as handle:
        doc = json.load(handle)
    events = doc.get("traceEvents")
    require(isinstance(events, list) and events,
            "traceEvents must be a non-empty list")

    processes = {}  # pid -> label
    spans_by_pid = {}
    last_ts = None
    for event in events:
        phase = event.get("ph")
        require(phase in TRACE_PHASES, f"unexpected phase {phase!r}")
        if phase == "M":
            if event.get("name") == "process_name":
                processes[event["pid"]] = event["args"]["name"]
            continue
        ts = event.get("ts")
        require(isinstance(ts, numbers.Real) and ts >= 0,
                "event timestamps must be non-negative numbers")
        require(last_ts is None or ts >= last_ts,
                "events must be sorted by timestamp")
        last_ts = ts
        if phase == "X":
            require(event.get("dur", 0) >= 0, "span durations must be >= 0")
            spans_by_pid.setdefault(event["pid"], set()).add(event["name"])

    # Every pre-copy migration process (one per strategy in the fig5
    # sweep) must carry its per-round spans. Post-copy sessions
    # ("<vm>/postcopy", "#<session id>" under a scheduler) have no rounds.
    migrations = 0
    for pid, label in processes.items():
        if label.split("#")[0].endswith("/postcopy") or "/" not in label:
            continue
        migrations += 1
        require("round 1" in spans_by_pid.get(pid, set()),
                f"process {label!r} has no 'round 1' span")
    require(migrations > 0, "trace contains no migration process")
    return len(events), migrations


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("metrics", help="path to a *.metrics.json file")
    parser.add_argument("--trace", help="path to a *.trace.json file")
    args = parser.parse_args()

    try:
        doc = validate_metrics(args.metrics)
        kinds = [record["kind"] for record in doc["records"]]
        print(f"OK {args.metrics}: {len(kinds)} records "
              f"({kinds.count('precopy')} precopy, "
              f"{kinds.count('postcopy')} postcopy, "
              f"{kinds.count('store')} store, "
              f"{kinds.count('policy')} policy)")
        if args.trace:
            events, migrations = validate_trace(args.trace)
            print(f"OK {args.trace}: {events} events, "
                  f"{migrations} migration processes with round spans")
    except (ValidationError, OSError, json.JSONDecodeError, KeyError) as err:
        print(f"FAIL: {err}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
