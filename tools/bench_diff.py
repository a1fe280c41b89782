#!/usr/bin/env python3
"""Diff ctbus-bench-v1 JSON reports and flag perf regressions.

Usage:
  tools/bench_diff.py BASELINE CURRENT [--threshold 0.10]
  tools/bench_diff.py --self-check

BASELINE and CURRENT are either two BENCH_<name>.json files or two
directories of them (matched by file name). Each metric carries its own
direction ("higher" / "lower" / "neutral" is better), so the tool knows
which way a change is a regression without a side table:

  - a "lower"-better metric regresses when current > baseline * (1 + t)
  - a "higher"-better metric regresses when current < baseline * (1 - t)
  - "neutral" metrics are reported but never fail the diff

Checksums are planning-result fingerprints and must match EXACTLY —
any drift is a correctness failure, not a perf regression, and fails the
diff regardless of threshold. A baseline checksum missing from the
current report fails too (the fingerprint was removed); a checksum only
the current report has is reported as added and does not fail. Metrics
present on only one side are reported as added/removed but do not fail
(benches evolve).

Exit status: 0 = clean, 1 = regression or checksum mismatch,
2 = usage/schema error.
"""

import argparse
import json
import os
import sys

SCHEMA = "ctbus-bench-v1"


def load_report(path):
    with open(path) as f:
        report = json.load(f)
    if report.get("schema") != SCHEMA:
        raise ValueError(
            f"{path}: expected schema {SCHEMA!r}, got {report.get('schema')!r}")
    return report


def diff_reports(baseline, current, threshold):
    """Returns (lines, failures): human-readable rows and failure messages."""
    lines, failures = [], []
    name = current.get("bench", "?")

    base_metrics = baseline.get("metrics", {})
    cur_metrics = current.get("metrics", {})
    for key in sorted(set(base_metrics) | set(cur_metrics)):
        if key not in base_metrics:
            lines.append(f"  {name}/{key}: added (no baseline)")
            continue
        if key not in cur_metrics:
            lines.append(f"  {name}/{key}: removed")
            continue
        old = float(base_metrics[key]["value"])
        new = float(cur_metrics[key]["value"])
        better = cur_metrics[key].get("better", "neutral")
        change = (new - old) / abs(old) if old != 0 else (0.0 if new == 0 else
                                                          float("inf"))
        # The margin scales with |old| so metrics that can go negative
        # (e.g. an overhead percentage) keep the threshold on the correct
        # side of the baseline.
        margin = threshold * abs(old)
        regressed = False
        if better == "lower":
            regressed = new > old + margin
        elif better == "higher":
            regressed = new < old - margin
        tag = "REGRESSION" if regressed else "ok"
        lines.append(f"  {name}/{key}: {old:.6g} -> {new:.6g} "
                     f"({change:+.1%}, better={better}) {tag}")
        if regressed:
            failures.append(
                f"{name}/{key} regressed: {old:.6g} -> {new:.6g} "
                f"({change:+.1%}, better={better}, threshold {threshold:.0%})")

    base_sums = baseline.get("checksums", {})
    cur_sums = current.get("checksums", {})
    for key in sorted(set(base_sums) | set(cur_sums)):
        if key not in base_sums:
            lines.append(f"  {name}/checksum {key}: added (no baseline)")
            continue
        if key not in cur_sums:
            failures.append(
                f"{name}/checksum {key} fingerprint removed: baseline "
                f"{base_sums[key]!r} has no current value")
            continue
        if base_sums[key] != cur_sums[key]:
            failures.append(
                f"{name}/checksum {key} DRIFTED: {base_sums[key]!r} -> "
                f"{cur_sums[key]!r} (planning results changed)")
        else:
            lines.append(f"  {name}/checksum {key}: match")

    # Comparing runs at different scales would produce meaningless deltas.
    if baseline.get("scale") != current.get("scale"):
        failures.append(
            f"{name}: scale mismatch ({baseline.get('scale')} vs "
            f"{current.get('scale')}) — reports are not comparable")
    return lines, failures


def collect_pairs(baseline_path, current_path):
    if os.path.isdir(baseline_path) and os.path.isdir(current_path):
        names = sorted(
            set(n for n in os.listdir(baseline_path)
                if n.startswith("BENCH_") and n.endswith(".json")) &
            set(n for n in os.listdir(current_path)
                if n.startswith("BENCH_") and n.endswith(".json")))
        if not names:
            raise ValueError("no matching BENCH_*.json files in both dirs")
        return [(os.path.join(baseline_path, n), os.path.join(current_path, n))
                for n in names]
    return [(baseline_path, current_path)]


def self_check():
    """Embedded unit tests; returns 0 on success (run in CI before use)."""
    base = {
        "schema": SCHEMA, "bench": "t", "scale": 1.0,
        "metrics": {
            "latency": {"value": 1.0, "better": "lower"},
            "qps": {"value": 100.0, "better": "higher"},
            "count": {"value": 5.0, "better": "neutral"},
            "overhead_pct": {"value": -0.5, "better": "lower"},
        },
        "checksums": {"sum": 2.5},
    }

    def variant(**metric_values):
        cur = json.loads(json.dumps(base))
        for key, value in metric_values.items():
            cur["metrics"][key]["value"] = value
        return cur

    checks = []
    _, fails = diff_reports(base, json.loads(json.dumps(base)), 0.10)
    checks.append(("identical reports pass", not fails))
    _, fails = diff_reports(base, variant(latency=1.05), 0.10)
    checks.append(("5% slowdown within 10% threshold passes", not fails))
    _, fails = diff_reports(base, variant(latency=1.25), 0.10)
    checks.append(("25% slowdown flagged", len(fails) == 1))
    _, fails = diff_reports(base, variant(qps=80.0), 0.10)
    checks.append(("qps drop flagged on higher-better", len(fails) == 1))
    _, fails = diff_reports(base, variant(qps=120.0), 0.10)
    checks.append(("qps gain passes", not fails))
    _, fails = diff_reports(base, variant(count=50.0), 0.10)
    checks.append(("neutral metric never fails", not fails))
    _, fails = diff_reports(base, variant(overhead_pct=-0.5), 0.10)
    checks.append(("unchanged negative metric passes", not fails))
    _, fails = diff_reports(base, variant(overhead_pct=-0.3), 0.10)
    checks.append(("worsened negative lower-better metric flagged",
                   len(fails) == 1))
    cur = json.loads(json.dumps(base))
    cur["checksums"]["sum"] = 2.5000001
    _, fails = diff_reports(base, cur, 0.10)
    checks.append(("checksum drift always fails", len(fails) == 1))
    cur = json.loads(json.dumps(base))
    cur["scale"] = 2.0
    _, fails = diff_reports(base, cur, 0.10)
    checks.append(("scale mismatch fails", len(fails) == 1))
    cur = json.loads(json.dumps(base))
    cur["metrics"]["new_metric"] = {"value": 1.0, "better": "lower"}
    _, fails = diff_reports(base, cur, 0.10)
    checks.append(("added metric does not fail", not fails))
    cur = json.loads(json.dumps(base))
    del cur["checksums"]["sum"]
    _, fails = diff_reports(base, cur, 0.10)
    checks.append(("removed checksum fails", len(fails) == 1))
    cur = json.loads(json.dumps(base))
    cur["checksums"]["new_sum"] = 7.0
    lines, fails = diff_reports(base, cur, 0.10)
    checks.append(("added checksum is reported and does not fail",
                   not fails and any("new_sum: added" in l for l in lines)))

    ok = True
    for label, passed in checks:
        print(f"self-check: {label}: {'ok' if passed else 'FAILED'}")
        ok = ok and passed
    return 0 if ok else 1


def main():
    parser = argparse.ArgumentParser(
        description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("baseline", nargs="?")
    parser.add_argument("current", nargs="?")
    parser.add_argument("--threshold", type=float, default=0.10,
                        help="relative regression threshold (default 0.10)")
    parser.add_argument("--self-check", action="store_true",
                        help="run the embedded unit tests and exit")
    args = parser.parse_args()

    if args.self_check:
        sys.exit(self_check())
    if not args.baseline or not args.current:
        parser.error("baseline and current are required (or --self-check)")

    try:
        pairs = collect_pairs(args.baseline, args.current)
        all_failures = []
        for base_path, cur_path in pairs:
            baseline = load_report(base_path)
            current = load_report(cur_path)
            lines, failures = diff_reports(baseline, current, args.threshold)
            print(f"{base_path} vs {cur_path}:")
            for line in lines:
                print(line)
            all_failures.extend(failures)
    except (OSError, ValueError, KeyError, json.JSONDecodeError) as err:
        print(f"error: {err}", file=sys.stderr)
        sys.exit(2)

    if all_failures:
        print()
        for failure in all_failures:
            print(f"FAIL: {failure}")
        sys.exit(1)
    print("\nno regressions.")
    sys.exit(0)


if __name__ == "__main__":
    main()
