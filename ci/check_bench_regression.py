#!/usr/bin/env python3
"""Bench regression gate for the CI smoke benches.

Compares a freshly produced BENCH_*.json against the baseline artifact
downloaded from main and fails (exit 1) when any matched queries/sec figure
dropped by more than --tolerance (default 25%), or when a gated COUNTER grew
(counters gate work done, not wall time: they are deterministic, so the
tolerance is zero by default).

Understands all seven smoke formats:
  * BENCH_throughput.json: {"results": [{"batch", "indexed",
    "per_query_qps", "batched_qps", ...}]} -- gates batched_qps and
    per_query_qps per (batch, indexed) configuration;
  * BENCH_parallel.json: {"solo_qps", "sharded": [{"threads", "qps", ...}],
    "service": [{"clients", "qps"}]} -- gates solo_qps, qps per thread
    count, and qps per client count;
  * BENCH_docplane.json: {"workloads": [{"name", "batch_full_qps",
    "batch_jump_qps", "sharded_baseline_qps", "sharded_jump_qps",
    "configs_interned_*", "cans_peak_vertices", ...}]} -- gates every qps
    figure per workload (the >= 1.5x sparse jump-vs-baseline bar itself is
    enforced inside bench_docplane, after its bit-identity gate), the
    interning counters (warm-start interning must not grow vs main: plane
    sharing must keep re-runs at zero insertions) and the resident cans
    high-water mark (phase two runs per filter region, so a return to
    whole-pass cans graphs grows it);
  * BENCH_rewrite.json: {"compiles_per_sec", "cache_hits_per_sec",
    "cold_starts_per_sec", "warm_starts_per_sec", "counters": {...}} --
    gates the four rates plus the configs_interned counters;
  * BENCH_mutation.json: {"mutation": {"read_only_qps", "mixed_qps",
    "writes_per_sec", "advances_per_sec", "counters": {...}}} -- gates the
    rates plus the warm-advance interning counter (a warm delta
    re-evaluation that interns configurations again means the standing
    queries stopped reusing the shared transition plane);
  * BENCH_authz.json: {"authz": {"sweep": [{"roles", "warm_qps",
    "materialize_qps", ...}], "counters": {...}}} -- gates warm and
    materialize qps per role count plus the warm-role interning counter
    (zero: a warm role partition must reuse its planes) and the
    deterministic eviction count (the >= 5x warm-vs-materialize bar itself
    is enforced inside bench_authz, after its bit-identity gate);
  * BENCH_recovery.json: {"recovery": {"recoveries_per_sec",
    "reparses_per_sec", "inmemory_mixed_qps", "durable_mixed_qps",
    "counters": {...}}} -- gates the cold-start and mixed-throughput rates
    plus the durability failure counters (wal_rollbacks,
    compactions_failed, recovery_bytes_truncated: a healthy smoke run must
    keep all three at zero; the >= 0.5x durable-vs-in-memory bar itself is
    enforced inside bench_recovery, after its recovery bit-identity gate).

A metric present in the PR artifact but absent from the baseline (a newly
added bench or sweep point) passes with a [new] notice -- it becomes gated
once the baseline refreshes from main. A missing/unreadable baseline is not
an error either (first run on a branch, expired artifact): the gate prints
a warning and passes, so the pipeline bootstraps itself. A baseline metric
whose qps reads zero is likewise skipped with a warning (a degenerate
artifact must not wedge the gate with divide-by-zero ratios). Smoke runs on
shared runners are noisy; the qps tolerance is deliberately loose and only
guards against step-function regressions.

--self-test runs a built-in fixture suite over the extraction and gating
logic (invoked by CI before the real gates, so a broken gate script cannot
silently wave regressions through).
"""

import argparse
import json
import sys


def extract_metrics(data):
    """Flattens a smoke JSON into {metric_name: qps} (higher is better)."""
    metrics = {}
    for row in data.get("results", []):  # BENCH_throughput.json
        key = f"batch={row['batch']}/indexed={row['indexed']}"
        metrics[f"throughput/{key}/batched_qps"] = row["batched_qps"]
        metrics[f"throughput/{key}/per_query_qps"] = row["per_query_qps"]
    if "solo_qps" in data:  # BENCH_parallel.json
        metrics["parallel/solo_qps"] = data["solo_qps"]
    for row in data.get("sharded", []):
        metrics[f"parallel/sharded/threads={row['threads']}/qps"] = row["qps"]
    for row in data.get("service", []):
        metrics[f"parallel/service/clients={row['clients']}/qps"] = row["qps"]
    for row in data.get("workloads", []):  # BENCH_docplane.json
        for key in ("batch_full_qps", "batch_jump_qps",
                    "sharded_baseline_qps", "sharded_jump_qps"):
            metrics[f"docplane/{row['name']}/{key}"] = row[key]
    if "compiles_per_sec" in data:  # BENCH_rewrite.json
        for key in ("compiles_per_sec", "cache_hits_per_sec",
                    "cold_starts_per_sec", "warm_starts_per_sec"):
            metrics[f"rewrite/{key}"] = data[key]
    mutation = data.get("mutation", {})  # BENCH_mutation.json
    for key in ("read_only_qps", "mixed_qps", "writes_per_sec",
                "advances_per_sec"):
        if key in mutation:
            metrics[f"mutation/{key}"] = mutation[key]
    for row in data.get("authz", {}).get("sweep", []):  # BENCH_authz.json
        for key in ("warm_qps", "materialize_qps"):
            if key in row:
                metrics[f"authz/roles={row['roles']}/{key}"] = row[key]
    recovery = data.get("recovery", {})  # BENCH_recovery.json
    for key in ("recoveries_per_sec", "reparses_per_sec",
                "inmemory_mixed_qps", "durable_mixed_qps"):
        if key in recovery:
            metrics[f"recovery/{key}"] = recovery[key]
    return metrics


def extract_counters(data):
    """Flattens gated counters into {name: value} (lower is better; growth
    beyond --counter-tolerance fails). Counters are work counts, not
    timings, so they are stable across runners."""
    counters = {}
    for name, value in data.get("counters", {}).items():  # BENCH_rewrite.json
        counters[f"rewrite/{name}"] = value
    for row in data.get("workloads", []):  # BENCH_docplane.json
        for key in ("configs_interned_sharded_cold",
                    "configs_interned_sharded_warm_delta",
                    "cans_peak_vertices"):
            if key in row:
                counters[f"docplane/{row['name']}/{key}"] = row[key]
    for row in data.get("service", []):  # BENCH_parallel.json
        # The smoke workload carries no deadlines or cancellations, so any
        # timed-out/shed/cancelled query is the overload machinery
        # misfiring; zero tolerance. Absent in pre-PR-7 baselines, which
        # extraction tolerates automatically (iteration is baseline-driven).
        for key in ("queries_timed_out", "queries_shed", "queries_cancelled",
                    "queries_retried"):
            if key in row:
                counters[f"parallel/service/clients={row['clients']}/{key}"] \
                    = row[key]
    for name, value in data.get("mutation", {}).get("counters", {}).items():
        counters[f"mutation/{name}"] = value  # BENCH_mutation.json
    for name, value in data.get("authz", {}).get("counters", {}).items():
        counters[f"authz/{name}"] = value  # BENCH_authz.json
    for name, value in data.get("recovery", {}).get("counters", {}).items():
        counters[f"recovery/{name}"] = value  # BENCH_recovery.json
    return counters


def compare(baseline_data, current_data, tolerance, counter_tolerance):
    """Gates `current_data` against `baseline_data`; returns the list of
    failed metric/counter names (empty = pass)."""
    baseline = extract_metrics(baseline_data)
    baseline_counters = extract_counters(baseline_data)
    current = extract_metrics(current_data)
    current_counters = extract_counters(current_data)

    failures = []
    for name, base_qps in sorted(baseline.items()):
        if name not in current:
            print(f"  [gone]  {name} (baseline {base_qps:.0f} qps) -- "
                  "configuration no longer emitted, not gated")
            continue
        cur_qps = current[name]
        if base_qps <= 0:
            print(f"  [skipped] {name}: baseline qps is {base_qps}, "
                  "not gated (degenerate baseline artifact)")
            continue
        ratio = cur_qps / base_qps
        status = "OK" if ratio >= 1.0 - tolerance else "REGRESSED"
        print(f"  [{status:>9}] {name}: {base_qps:.0f} -> {cur_qps:.0f} qps "
              f"({ratio:.1%} of baseline)")
        if status == "REGRESSED":
            failures.append(name)
    # A metric the baseline has never seen (new bench, new sweep point)
    # cannot be gated yet: pass with a notice so its first run is visible
    # in the log, and let the refreshed main artifact pick it up.
    for name, cur_qps in sorted(current.items()):
        if name not in baseline:
            print(f"  [new]   {name}: {cur_qps:.0f} qps -- no baseline "
                  "yet, pass with notice (gated once main publishes one)")

    # Counter gate: deterministic work counts must not GROW vs main. A warm
    # start that suddenly interns configurations again means the shared
    # transition plane stopped being shared.
    for name, base_count in sorted(baseline_counters.items()):
        if name not in current_counters:
            print(f"  [gone]  {name} (baseline counter {base_count}) -- "
                  "no longer emitted, not gated")
            continue
        cur_count = current_counters[name]
        limit = base_count * (1.0 + counter_tolerance)
        status = "OK" if cur_count <= limit else "GREW"
        print(f"  [{status:>9}] {name}: {base_count} -> {cur_count} "
              "(counter, must not grow)")
        if status == "GREW":
            failures.append(name)
    for name, cur_count in sorted(current_counters.items()):
        if name not in baseline_counters:
            print(f"  [new]   {name}: counter {cur_count} -- no baseline "
                  "yet, pass with notice")
    return failures


def self_test():
    """Fixture suite over extraction and gating; exits nonzero on the first
    broken invariant. Fixtures are miniature but structurally faithful
    copies of every smoke format the gate claims to understand."""
    fixtures = {
        "throughput": {"results": [
            {"batch": 16, "indexed": True,
             "batched_qps": 100.0, "per_query_qps": 50.0}]},
        "parallel": {"solo_qps": 10.0,
                     "sharded": [{"threads": 4, "qps": 40.0}],
                     "service": [{"clients": 8, "qps": 80.0,
                                  "queries_shed": 0,
                                  "queries_retried": 0}]},
        "docplane": {"workloads": [
            {"name": "sparse", "batch_full_qps": 1.0, "batch_jump_qps": 2.0,
             "sharded_baseline_qps": 3.0, "sharded_jump_qps": 4.0,
             "configs_interned_sharded_cold": 7,
             "configs_interned_sharded_warm_delta": 0,
             "cans_peak_vertices": 40}]},
        "rewrite": {"compiles_per_sec": 1.0, "cache_hits_per_sec": 2.0,
                    "cold_starts_per_sec": 3.0, "warm_starts_per_sec": 4.0,
                    "counters": {"configs_interned_warm": 0}},
        "mutation": {"mutation": {
            "read_only_qps": 9.0, "mixed_qps": 8.0, "writes_per_sec": 1.0,
            "advances_per_sec": 2.0,
            "counters": {"configs_interned_warm_advance": 0}}},
        "authz": {"authz": {
            "sweep": [{"roles": 100, "warm_qps": 500.0,
                       "materialize_qps": 50.0},
                      {"roles": 1000, "warm_qps": 400.0,
                       "materialize_qps": 40.0}],
            "counters": {"configs_interned_warm_role": 0,
                         "planes_evicted": 8}}},
        "recovery": {"recovery": {
            "recoveries_per_sec": 600.0, "reparses_per_sec": 400.0,
            "inmemory_mixed_qps": 2000.0, "durable_mixed_qps": 1700.0,
            "counters": {"wal_rollbacks": 0, "compactions_failed": 0,
                         "recovery_bytes_truncated": 0}}},
    }
    expected_metrics = {"throughput": 2, "parallel": 3, "docplane": 4,
                        "rewrite": 4, "mutation": 4, "authz": 4,
                        "recovery": 4}
    expected_counters = {"throughput": 0, "parallel": 2, "docplane": 3,
                         "rewrite": 1, "mutation": 1, "authz": 2,
                         "recovery": 3}
    checks = 0

    def check(ok, what):
        nonlocal checks
        checks += 1
        if not ok:
            print(f"SELF-TEST FAIL: {what}")
            sys.exit(1)

    for name, data in fixtures.items():
        check(len(extract_metrics(data)) == expected_metrics[name],
              f"{name}: expected {expected_metrics[name]} metrics, "
              f"got {sorted(extract_metrics(data))}")
        check(len(extract_counters(data)) == expected_counters[name],
              f"{name}: expected {expected_counters[name]} counters, "
              f"got {sorted(extract_counters(data))}")
        # Identity must always gate clean.
        check(compare(data, data, 0.25, 0.0) == [],
              f"{name}: identical artifacts must pass")

    authz = fixtures["authz"]
    # A >tolerance qps drop fails, naming the metric.
    dropped = json.loads(json.dumps(authz))
    dropped["authz"]["sweep"][1]["warm_qps"] = 100.0
    check(compare(authz, dropped, 0.25, 0.0)
          == ["authz/roles=1000/warm_qps"], "qps drop must fail the gate")
    # A drop inside tolerance passes.
    wobble = json.loads(json.dumps(authz))
    wobble["authz"]["sweep"][1]["warm_qps"] = 320.0
    check(compare(authz, wobble, 0.25, 0.0) == [],
          "in-tolerance qps wobble must pass")
    # Counter growth fails at zero tolerance.
    grew = json.loads(json.dumps(authz))
    grew["authz"]["counters"]["configs_interned_warm_role"] = 3
    check(compare(authz, grew, 0.25, 0.0)
          == ["authz/configs_interned_warm_role"],
          "counter growth must fail the gate")
    # Metric in PR but not in baseline: pass with notice (the ratchet for
    # newly added benches/sweep points).
    pre_authz = {"mutation": fixtures["mutation"]["mutation"]}
    merged = json.loads(json.dumps(fixtures["mutation"]))
    merged.update(json.loads(json.dumps(authz)))
    check(compare(pre_authz, merged, 0.25, 0.0) == [],
          "new metrics absent from baseline must pass with notice")
    # Metric gone from the PR: not gated (configuration retired).
    check(compare(merged, fixtures["mutation"], 0.25, 0.0) == [],
          "metrics gone from the PR artifact must not fail the gate")
    # Degenerate zero-qps baseline is skipped, not divided by.
    zero = json.loads(json.dumps(authz))
    zero["authz"]["sweep"][0]["warm_qps"] = 0.0
    check(compare(zero, authz, 0.25, 0.0) == [],
          "zero-qps baseline must be skipped")

    print(f"\nSELF-TEST PASS: {checks} checks over "
          f"{len(fixtures)} smoke formats")
    return 0


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--baseline")
    parser.add_argument("--current")
    parser.add_argument("--tolerance", type=float, default=0.25,
                        help="allowed fractional qps drop (0.25 = 25%%)")
    parser.add_argument("--counter-tolerance", type=float, default=0.0,
                        help="allowed fractional counter growth (0 = any "
                             "increase fails)")
    parser.add_argument("--self-test", action="store_true",
                        help="run the built-in fixture suite and exit")
    args = parser.parse_args()

    if args.self_test:
        return self_test()
    if not args.baseline or not args.current:
        parser.error("--baseline and --current are required "
                     "(unless --self-test)")

    try:
        with open(args.baseline) as f:
            baseline_data = json.load(f)
        extract_metrics(baseline_data)  # validate before gating
    except (OSError, ValueError, KeyError) as e:
        print(f"WARNING: no usable baseline at {args.baseline} ({e}); "
              "skipping the regression gate")
        return 0

    try:
        with open(args.current) as f:
            current_data = json.load(f)
    except (OSError, ValueError, KeyError) as e:
        # The bench that should have produced the artifact failed or wrote
        # garbage: fail the gate, but with a diagnosis instead of a
        # traceback.
        print(f"ERROR: no usable current artifact at {args.current} ({e})")
        return 1

    failures = compare(baseline_data, current_data, args.tolerance,
                       args.counter_tolerance)
    if failures:
        print(f"\nFAIL: {len(failures)} metric(s)/counter(s) regressed vs "
              "the main baseline:")
        for name in failures:
            print(f"  - {name}")
        return 1
    print(f"\nPASS: no qps metric dropped more than {args.tolerance:.0%} and "
          "no gated counter grew")
    return 0


if __name__ == "__main__":
    sys.exit(main())
