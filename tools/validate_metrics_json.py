#!/usr/bin/env python3
"""Validates a --metrics-json dump from the bench/harness binaries.

Two dump formats are recognized:

* The metrics-snapshot format (counters / gauges / histograms) every
  instrumented bench emits. Checks structural invariants (sections present,
  histogram buckets sum to the recorded count) and that the metric families
  the experiments depend on — insert, lookup, cache, and diversion —
  actually appear.

* The per-shard scale-engine format ("schema": "past-scale-metrics-v1",
  bench_scale --metrics-json). Checks that the per-shard route accounting
  sums exactly to the merged totals on every integer field (hops, messages,
  bytes_sent, rpcs), that the merged totals equal the canonical op-order
  totals the serial commit phase recorded (the shard decomposition must be
  lossless), and that the mean-field histograms are mass-consistent.

Exits nonzero with a message per problem, so CI can gate on any bench run's
dump:

    build/bench/bench_fig8_caching --nodes 100 --metrics-json metrics.json
    python3 tools/validate_metrics_json.py metrics.json
"""

import json
import sys


REQUIRED_COUNTERS = [
    # Insert path.
    "past.insert.attempts",
    "client.files_attempted",
    "client.files_stored",
    # Lookup path.
    "past.lookup.requests",
    "past.lookup.found",
    "past.lookup.cache_hits",
    # Async operation engine (instruments exist from network construction).
    "engine.ops.submitted",
    "engine.ops.completed",
    # Cache layer (per-node scopes merged into the global snapshot).
    "node.cache.hits",
    "node.cache.misses",
    # Cache accounting: lookups no cache served.
    "past.cache.tier_misses",
]

REQUIRED_GAUGES = [
    # Diversion census.
    "past.replicas.stored",
    "past.replicas.diverted",
    "past.utilization",
    # Engine in-flight tracking; zero at any quiescent dump point.
    "engine.ops_in_flight",
    "engine.ops_in_flight_peak",
]

REQUIRED_HISTOGRAMS = [
    "past.insert.file_size_bytes",
    "past.insert.hops",
    "past.lookup.hops",
    "engine.op_latency_ms",
]

# Optional latency percentile gauges (bench_overload exports these); when
# present they must be internally ordered.
LATENCY_PERCENTILE_GAUGES = [
    "engine.op_latency_p50_ms",
    "engine.op_latency_p95_ms",
    "engine.op_latency_p99_ms",
]


def validate(doc):
    errors = []
    for section in ("counters", "gauges", "histograms"):
        if not isinstance(doc.get(section), dict):
            errors.append(f"missing or malformed section: {section!r}")
    if errors:
        return errors

    counters = doc["counters"]
    gauges = doc["gauges"]
    histograms = doc["histograms"]

    for name in REQUIRED_COUNTERS:
        if name not in counters:
            errors.append(f"missing counter: {name!r}")
        elif not isinstance(counters[name], int) or counters[name] < 0:
            errors.append(f"counter {name!r} is not a non-negative integer")
    for name in REQUIRED_GAUGES:
        if name not in gauges:
            errors.append(f"missing gauge: {name!r}")
    for name in REQUIRED_HISTOGRAMS:
        if name not in histograms:
            errors.append(f"missing histogram: {name!r}")

    for name, hist in histograms.items():
        bounds = hist.get("upper_bounds")
        buckets = hist.get("buckets")
        count = hist.get("count")
        if not isinstance(bounds, list) or not isinstance(buckets, list):
            errors.append(f"histogram {name!r}: malformed bounds/buckets")
            continue
        if len(buckets) != len(bounds) + 1:
            errors.append(
                f"histogram {name!r}: expected {len(bounds) + 1} buckets "
                f"(bounds + overflow), got {len(buckets)}"
            )
        if sorted(bounds) != bounds:
            errors.append(f"histogram {name!r}: upper_bounds not sorted")
        if sum(buckets) != count:
            errors.append(
                f"histogram {name!r}: buckets sum to {sum(buckets)} "
                f"but count is {count}"
            )

    # Cross-family consistency.
    if not errors:
        if counters["client.files_stored"] > counters["client.files_attempted"]:
            errors.append("client.files_stored exceeds client.files_attempted")
        if counters["past.lookup.found"] > counters["past.lookup.requests"]:
            errors.append("past.lookup.found exceeds past.lookup.requests")
        if counters["past.insert.attempts"] == 0:
            errors.append("past.insert.attempts is zero: run inserted nothing")
        finished = counters["engine.ops.completed"] + counters.get(
            "engine.ops.cancelled", 0
        )
        if finished > counters["engine.ops.submitted"]:
            errors.append(
                "engine.ops.completed + engine.ops.cancelled exceeds "
                "engine.ops.submitted"
            )
        if gauges["engine.ops_in_flight"] > gauges["engine.ops_in_flight_peak"]:
            errors.append("engine.ops_in_flight exceeds its recorded peak")
        present = [g for g in LATENCY_PERCENTILE_GAUGES if g in gauges]
        if present:
            if present != LATENCY_PERCENTILE_GAUGES:
                errors.append(
                    "latency percentile gauges are incomplete: "
                    f"have {present}"
                )
            else:
                p50, p95, p99 = (gauges[g] for g in LATENCY_PERCENTILE_GAUGES)
                if not (p50 <= p95 <= p99):
                    errors.append(
                        f"latency percentiles unordered: p50={p50} p95={p95} p99={p99}"
                    )
    return errors


SCALE_SCHEMA = "past-scale-metrics-v1"
SHARD_INT_FIELDS = ("hops", "messages", "bytes_sent", "rpcs")


def validate_scale(doc):
    errors = []
    for section in ("config", "shards", "merged", "op_totals", "report"):
        if section not in doc:
            errors.append(f"missing section: {section!r}")
    if errors:
        return errors

    shards = doc["shards"]
    merged = doc["merged"]
    op_totals = doc["op_totals"]
    if not isinstance(shards, list) or not shards:
        return ["'shards' must be a non-empty list"]
    jobs = doc["config"].get("jobs")
    if len(shards) != jobs:
        errors.append(f"config says jobs={jobs} but dump has {len(shards)} shards")

    # The shard decomposition must be lossless: per-shard integers sum to the
    # merged totals exactly, and the merged totals equal what the serial
    # commit phase accounted in canonical op order.
    for field in SHARD_INT_FIELDS:
        shard_sum = 0
        for shard in shards:
            value = shard.get(field)
            if not isinstance(value, int) or value < 0:
                errors.append(f"shard {shard.get('shard')}: {field!r} not a non-negative int")
                break
            shard_sum += value
        else:
            if shard_sum != merged.get(field):
                errors.append(
                    f"shard sums diverge from merged: {field} "
                    f"{shard_sum} != {merged.get(field)}"
                )
            if merged.get(field) != op_totals.get(field):
                errors.append(
                    f"merged diverges from op-order totals: {field} "
                    f"{merged.get(field)} != {op_totals.get(field)}"
                )

    # Distance is a double accumulated in different orders (shard order vs op
    # order); require agreement only up to relative rounding.
    shard_distance = sum(s.get("distance", 0.0) for s in shards)
    for name, a, b in (
        ("shards vs merged", shard_distance, merged.get("distance", 0.0)),
        ("merged vs op_totals", merged.get("distance", 0.0), op_totals.get("distance", 0.0)),
    ):
        if abs(a - b) > 1e-6 * (1.0 + abs(b)):
            errors.append(f"distance mismatch ({name}): {a} != {b}")

    report = doc["report"]
    for key in (
        "inserts",
        "inserts_stored",
        "lookups",
        "lookups_found",
        "events",
        "state_fingerprint",
        "schedule_fingerprint",
    ):
        if key not in report:
            errors.append(f"report: missing {key!r}")
    if not errors:
        if report["inserts_stored"] > report["inserts"]:
            errors.append("report: inserts_stored exceeds inserts")
        if report["lookups_found"] > report["lookups"]:
            errors.append("report: lookups_found exceeds lookups")
        for key in ("state_fingerprint", "schedule_fingerprint"):
            if len(report[key]) != 40:
                errors.append(f"report: {key} is not a SHA-1 hex digest")

    mean_field = doc.get("mean_field")
    if mean_field is not None:
        empirical = mean_field.get("empirical", [])
        predicted = mean_field.get("predicted", [])
        eligible = mean_field.get("eligible", 0)
        if len(empirical) != len(predicted):
            errors.append("mean_field: empirical/predicted length mismatch")
        if sum(empirical) != eligible:
            errors.append(
                f"mean_field: empirical histogram sums to {sum(empirical)} "
                f"but eligible is {eligible}"
            )
        if predicted and abs(sum(predicted) - eligible) > 0.05 * (1.0 + eligible):
            errors.append(
                f"mean_field: predicted mass {sum(predicted)} far from eligible {eligible}"
            )
        tv = mean_field.get("tv_distance", 0.0)
        if not 0.0 <= tv <= 1.0:
            errors.append(f"mean_field: tv_distance {tv} outside [0, 1]")
    return errors


def main(argv):
    if len(argv) != 2:
        print(f"usage: {argv[0]} <metrics.json>", file=sys.stderr)
        return 2
    try:
        with open(argv[1], encoding="utf-8") as f:
            doc = json.load(f)
    except (OSError, json.JSONDecodeError) as err:
        print(f"error: cannot parse {argv[1]}: {err}", file=sys.stderr)
        return 1
    if doc.get("schema") == SCALE_SCHEMA:
        errors = validate_scale(doc)
        for error in errors:
            print(f"error: {error}", file=sys.stderr)
        if errors:
            return 1
        report = doc["report"]
        print(
            f"ok: {argv[1]} valid scale dump "
            f"({doc['config']['nodes']} nodes, {len(doc['shards'])} shards; "
            f"shard sums == merged == op-order totals; "
            f"{report['inserts_stored']}/{report['inserts']} inserts stored)"
        )
        return 0
    errors = validate(doc)
    for error in errors:
        print(f"error: {error}", file=sys.stderr)
    if errors:
        return 1
    counters = doc["counters"]
    print(
        f"ok: {argv[1]} valid "
        f"({len(counters)} counters, {len(doc['gauges'])} gauges, "
        f"{len(doc['histograms'])} histograms; "
        f"{counters['client.files_stored']}/{counters['client.files_attempted']} "
        f"files stored)"
    )
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
