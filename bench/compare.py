#!/usr/bin/env python3
"""Compare two sets of benchmark result files: a parent and a change.

Usage (from the repository root)::

    python3 bench/compare.py --base A1.json A2.json ... \\
                             --head B1.json B2.json ...

Each file is what ``python3 bench/run.py --out FILE`` wrote for one
untraced run. Files pair up in the order given (``A1`` with ``B1``, ...),
so run them as alternating pairs, back to back: parent first in one
pair, change first in the next. For every workload × end-to-end metric
the report gives each side's median and quartiles, the share of pairs
the change wins (ties count for neither), the pair spread and a verdict,
tested in this order:

* ``regressed`` — the change's median is worse than the parent's by
  more than the metric's bound;
* ``improved`` — the change wins at least 9/10 of the pairs and its
  median is better than the parent's by more than the distance between
  the parent's quartiles;
* ``unresolved`` — the pair spread exceeds the bound, so "no worse than
  the bound" cannot be told apart from noise, and not every run of the
  change reads better than every run of the parent;
* ``unchanged`` — otherwise.

The pair spread is the quartile distance of the per-pair ratios
change / parent over their median. The two runs of a pair ran back to
back, so host speed drifting over the session cancels out of it.

Bounds come from ``BENCHMARK.json`` (via ``bench/spec.py``).
``error_rate`` has bound 0 and is compared as an absolute difference.
Exit status: 0 when every verdict is ``improved`` or ``unchanged``, 1
otherwise, 2 on unusable input.
"""

from __future__ import annotations

import argparse
import json
import statistics
import sys
from pathlib import Path

import spec

#: Share of pairs the change must win to claim a gain.
WIN_SHARE = 0.9
#: Calibration scores of the two sides further apart than this share
#: get a warning: the host, not the code, may have moved the timings.
HOST_DRIFT = 0.10


def _load(paths: list[str]) -> list[dict]:
    runs = []
    for path in paths:
        data = json.loads(Path(path).read_text())
        if data.get("traced"):
            raise ValueError(f"{path} is a traced run; compare untraced runs")
        runs.append(data)
    return runs


def _quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def _pair_spread(metric: spec.Metric, pairs: list[tuple]) -> float:
    """Quartile distance of the per-pair ratios change / parent over
    their median; of the per-pair differences for error_rate."""
    if not metric.bound:
        q1, _, q3 = _quartiles([b - a for a, b in pairs])
        return q3 - q1
    if any(a == 0 for a, _ in pairs):
        return float("inf")
    q1, median, q3 = _quartiles([b / a for a, b in pairs])
    return (q3 - q1) / median


def judge(metric: spec.Metric, pairs: list[tuple]) -> dict:
    """The §8 comparison of one metric on one workload, from its
    (parent, change) value pairs."""
    lower = metric.better == "lower"

    def better(a, b):  # is a better than b?
        return a < b if lower else a > b

    base = [a for a, _ in pairs]
    head = [b for _, b in pairs]
    win_share = sum(1 for a, b in pairs if better(b, a)) / len(pairs)
    base_med = statistics.median(base)
    head_med = statistics.median(head)
    q1, _, q3 = _quartiles(base)
    worse = head_med - base_med if lower else base_med - head_med
    if base_med and metric.bound:
        worse_share = worse / abs(base_med)
    else:
        worse_share = worse  # absolute, for error_rate
    pair_spread = _pair_spread(metric, pairs)
    if worse_share > metric.bound:
        verdict = "regressed"
    elif win_share >= WIN_SHARE and -worse > q3 - q1:
        verdict = "improved"
    elif pair_spread > metric.bound and not all(
        better(b, a) for a in base for b in head
    ):
        verdict = "unresolved"
    else:
        verdict = "unchanged"
    return {
        "base_median": base_med,
        "base_quartiles": [q1, q3],
        "head_median": head_med,
        "head_quartiles": list(_quartiles(head)[::2]),
        "win_share": win_share,
        "worse_share": worse_share,
        "pair_spread": pair_spread,
        "verdict": verdict,
    }


def compare(base_runs: list[dict], head_runs: list[dict]) -> dict:
    """Verdicts per workload × end-to-end metric, pairing the runs in
    the order given."""
    if len(base_runs) != len(head_runs):
        raise ValueError(
            f"{len(base_runs)} parent files against {len(head_runs)} change "
            "files; give them as pairs"
        )
    table: dict[str, dict] = {}
    for workload in spec.WORKLOAD_NAMES:
        runs = [
            (a["workloads"][workload]["metrics"],
             b["workloads"][workload]["metrics"])
            for a, b in zip(base_runs, head_runs)
            if workload in a["workloads"] and workload in b["workloads"]
        ]
        if not runs:
            continue
        table[workload] = {
            metric.name: judge(metric, [
                (a[metric.name]["value"], b[metric.name]["value"])
                for a, b in runs
            ])
            for metric in spec.END_TO_END
        }
    return table


def _calibration(runs: list[dict], workload: str) -> float:
    """Median host calibration score over the runs of ``workload``."""
    scores = [
        run["host"][key]
        for run in runs
        if workload in run["workloads"]
        for key in ("calibration_mloops_before", "calibration_mloops_after")
    ]
    return statistics.median(scores)


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        description=__doc__,
        formatter_class=argparse.RawDescriptionHelpFormatter,
    )
    parser.add_argument("--base", nargs="+", required=True,
                        help="result files of the parent commit")
    parser.add_argument("--head", nargs="+", required=True,
                        help="result files of the change, in pair order")
    parser.add_argument("--json", help="also write the verdicts here")
    args = parser.parse_args(argv)
    try:
        base_runs = _load(args.base)
        head_runs = _load(args.head)
        table = compare(base_runs, head_runs)
    except (OSError, ValueError, KeyError) as exc:
        print(f"compare: {exc}", file=sys.stderr)
        return 2
    if not table:
        print("compare: no workload appears on both sides", file=sys.stderr)
        return 2

    print(f"{'workload':<15} {'metric':<19} {'base median':>12} "
          f"{'head median':>12} {'worse':>8} {'pair spread':>11} "
          f"{'wins':>5}  verdict")
    bad = 0
    for workload, metrics in table.items():
        base_cal = _calibration(base_runs, workload)
        head_cal = _calibration(head_runs, workload)
        print(f"{workload}: host calibration {base_cal:.2f} -> "
              f"{head_cal:.2f} Mloops/s")
        if abs(head_cal / base_cal - 1.0) > HOST_DRIFT:
            print(f"  warning: host speed differs by more than "
                  f"{HOST_DRIFT:.0%} between the sides; timing verdicts "
                  "may reflect the host")
        for name, row in metrics.items():
            print(f"{workload:<15} {name:<19} {row['base_median']:>12.5g} "
                  f"{row['head_median']:>12.5g} {row['worse_share']:>8.2%} "
                  f"{row['pair_spread']:>11.1%} {row['win_share']:>5.0%}  "
                  f"{row['verdict']}")
            bad += row["verdict"] in ("regressed", "unresolved")
    if args.json:
        Path(args.json).write_text(json.dumps(table, indent=2) + "\n")
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
