#!/usr/bin/env python3
"""End-to-end validation benchmark: validated packets/s and campaign
latency on four closed-loop workloads, with a traced per-layer run.

Usage (from the repository root)::

    python3 bench/run.py [--workload W] [--seed N] [--seconds S]
                         [--trace 0|FILE] [--out FILE] [--smoke]

Each workload runs in fresh ``bench/workload.py`` processes, each with
its own empty ``REPRO_COMPILE_CACHE`` under ``.bench_tmp/``. Untraced,
a workload takes :data:`spec.SETUP_REPEATS` set-up samples (the last
process also measures) and prints every end-to-end metric with its unit
and sample count. ``--trace FILE`` runs the workload three times
instead, untraced, traced and untraced, prints the per-layer metrics and
layer table, and writes a Chrome trace-event file to FILE
(``--trace 1`` writes it to ``.bench_tmp/trace.json``).

Without ``--seconds`` a run measures a fixed number of campaigns per
workload (``spec.CAMPAIGNS``). With it, each workload measures for ``S``
seconds (a traced workload splits them over its three runs), plus about
3 s of set-up and checks. Every workload must end within
:data:`WORKLOAD_DEADLINE_S`, so a one-workload run, the way
``BENCHMARK.json`` runs it, ends within 180 s.

The last line of standard output is one JSON object:
``{"correct", "attempted", "failed", "metrics"}``. Exit status is 0
only when every output was correct.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

import spec

ROOT = Path(__file__).resolve().parent.parent
HERE = Path(__file__).resolve().parent
TMP_ROOT = ROOT / ".bench_tmp"
#: Where ``--trace 1`` writes the Chrome trace.
DEFAULT_TRACE = TMP_ROOT / "trace.json"

#: Every child process of one workload must be done this long after the
#: workload started.
WORKLOAD_DEADLINE_S = 170.0
#: Campaigns per measured run in ``--smoke`` mode.
SMOKE_CAMPAIGNS = 2
#: On seeded_matrix the layer self times must add up to the campaign
#: busy time within this share.
SELF_TIME_TOLERANCE = 0.05
#: Throughput and latency percentiles are the median over up to
#: BLOCKS consecutive blocks of a run's campaigns, each holding at least
#: BLOCK_CAMPAIGNS of them.
BLOCKS = 5
BLOCK_CAMPAIGNS = 30
CALIBRATION_LOOPS = 1_000_000


class ChildFailed(RuntimeError):
    pass


# ---------------------------------------------------------------------------
# Host context
# ---------------------------------------------------------------------------

def calibration_score() -> float:
    """Millions of iterations per second of a fixed pure-Python loop
    (best of three) — tells a slow host apart from a regression."""
    best = float("inf")
    for _ in range(3):
        start = time.perf_counter()
        acc = 0
        for i in range(CALIBRATION_LOOPS):
            acc = (acc + i * i) % 1000003
        best = min(best, time.perf_counter() - start)
    return CALIBRATION_LOOPS / best / 1e6


def host_block() -> dict:
    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "platform": platform.platform(),
        "loadavg": list(os.getloadavg()),
    }


# ---------------------------------------------------------------------------
# Child processes
# ---------------------------------------------------------------------------

def run_child(workload: str, seed: int, deadline: float, *,
              campaigns: int = 0, seconds: float | None = None,
              setup_only: bool = False, traced: bool = False) -> dict:
    """One fresh ``workload.py`` process with an empty compile cache."""
    TMP_ROOT.mkdir(exist_ok=True)
    tmp = Path(tempfile.mkdtemp(prefix=f"{workload}-", dir=TMP_ROOT))
    try:
        result_path = tmp / "result.json"
        command = [
            sys.executable, str(HERE / "workload.py"),
            "--workload", workload, "--seed", str(seed),
            "--campaigns", str(campaigns), "--result", str(result_path),
        ]
        if seconds is not None:
            command += ["--seconds", str(seconds)]
        if setup_only:
            command.append("--setup-only")
        if traced:
            command.append("--traced")
        env = dict(os.environ)
        env["REPRO_COMPILE_CACHE"] = str(tmp / "cache")
        env.pop("REPRO_SERVICE_SECRET", None)
        # Its own session, so a timeout can stop the forked workers too.
        child = subprocess.Popen(
            command, cwd=ROOT, env=env, start_new_session=True,
            stdout=subprocess.PIPE, stderr=subprocess.STDOUT, text=True,
        )
        try:
            output, _ = child.communicate(
                timeout=max(1.0, deadline - time.monotonic())
            )
        except subprocess.TimeoutExpired:
            raise ChildFailed(f"{workload}: child process timed out")
        finally:
            _kill_group(child.pid)
            child.wait()
        if child.returncode != 0 or not result_path.is_file():
            raise ChildFailed(
                f"{workload}: child process exited {child.returncode}:\n"
                f"{output.strip()[-3000:]}"
            )
        return json.loads(result_path.read_text())
    finally:
        shutil.rmtree(tmp, ignore_errors=True)


def _kill_group(pgid: int) -> None:
    """Kill whatever is left in a child's process group."""
    with contextlib.suppress(ProcessLookupError):
        os.killpg(pgid, signal.SIGKILL)


# ---------------------------------------------------------------------------
# Metrics
# ---------------------------------------------------------------------------

def _p(values: list[float], q: int) -> float:
    """The ``q``-th percentile (inclusive method); the value itself for
    a single sample."""
    if len(values) == 1:
        return values[0]
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def _over_blocks(ok: list[dict], statistic) -> float:
    """Median of ``statistic`` over consecutive blocks of the measured
    campaigns. A host stall that lands in one block moves that block's
    tail, not the reported value; short runs form one block, since a
    percentile of a handful of campaigns is noise."""
    if not ok:
        return 0.0
    k = max(1, min(BLOCKS, len(ok) // BLOCK_CAMPAIGNS))
    return statistics.median(
        statistic(ok[i * len(ok) // k:(i + 1) * len(ok) // k])
        for i in range(k)
    )


def end_to_end(setups: list[float], measured: dict) -> dict:
    """Every end-to-end metric of one workload from its child results."""
    samples = measured["samples"]
    ok = [s for s in samples if s is not None and "error" not in s]
    failed = len(samples) - len(ok)
    n = len(ok)

    def metric(name, value, count):
        unit = next(m.unit for m in spec.END_TO_END if m.name == name)
        return {"value": value, "unit": unit, "samples": count}

    def pps(block):
        wall = sum(s["latency_s"] for s in block)
        return sum(s["packets"] for s in block) / wall if wall else 0.0

    def percentile(key, q):
        return lambda block: _p([s[key] for s in block], q)

    return {
        "setup_s": metric("setup_s", statistics.median(setups), len(setups)),
        "validated_pps": metric("validated_pps", _over_blocks(ok, pps), n),
        **{
            f"{name}_p{q}_s": metric(
                f"{name}_p{q}_s", _over_blocks(ok, percentile(key, q)), n
            )
            for name, key in (("campaign", "latency_s"),
                              ("first_result", "first_result_s"))
            for q in (50, 90)
        },
        "peak_rss_mb": metric("peak_rss_mb", measured["peak_rss_mb"], 1),
        "error_rate": metric(
            "error_rate", failed / len(samples) if samples else 1.0,
            len(samples),
        ),
    }


def _problems(workload: str, result: dict) -> list[str]:
    problems = list(result.get("errors", []))
    if result.get("golden_error"):
        problems.append(result["golden_error"])
    for sample in result.get("samples", []):
        if sample is not None and "error" in sample:
            problems.append(sample["error"])
    if "trace" in result:
        if not result.get("restored"):
            problems.append("tracer left a wrapper installed")
        coverage = result["trace"]["table"]["self_time_coverage"]
        if workload == "seeded_matrix" and \
                abs(coverage - 1.0) > SELF_TIME_TOLERANCE:
            problems.append(
                f"layer self times cover {coverage:.1%} of campaign busy "
                "time (tolerance 5%)"
            )
    return problems


def run_workload(name: str, args, traced: bool) -> dict:
    """Measure one workload; returns its entry for the result file."""
    deadline = time.monotonic() + WORKLOAD_DEADLINE_S
    if args.smoke:
        campaigns, seconds = SMOKE_CAMPAIGNS, None
    elif args.seconds is not None:
        campaigns, seconds = 0, args.seconds / (3 if traced else 1)
    else:
        fixed, fixed_traced = spec.CAMPAIGNS[name]
        campaigns, seconds = (fixed_traced if traced else fixed), None
    run = dict(campaigns=campaigns, seconds=seconds)
    if not traced:
        repeats = 1 if args.smoke else spec.SETUP_REPEATS
        setups = [
            run_child(name, args.seed, deadline, setup_only=True)["setup_s"]
            for _ in range(repeats - 1)
        ]
        measured = run_child(name, args.seed, deadline, **run)
        setups.append(measured["setup_s"])
        problems = _problems(name, measured)
        return {
            "correct": not problems,
            "problems": problems,
            "attempted": len(measured["samples"]),
            "failed": sum(
                1 for s in measured["samples"] if s is None or "error" in s
            ),
            "metrics": end_to_end(setups, measured),
            "setups_s": setups,
            "campaigns": [
                None if s is None else
                [s["latency_s"], s["first_result_s"], s["packets"]]
                for s in measured["samples"]
            ],
        }
    # Untraced, traced, untraced: host speed drifting over the run
    # cancels out of the overhead estimate.
    before = run_child(name, args.seed, deadline, **run)
    traced_result = run_child(name, args.seed, deadline, traced=True, **run)
    after = run_child(name, args.seed, deadline, **run)
    runs = (before, traced_result, after)
    problems = [p for result in runs for p in _problems(name, result)]

    def p50(*results):
        return _p([
            s["latency_s"] for result in results for s in result["samples"]
            if s is not None and "error" not in s
        ] or [0.0], 50)

    untraced_p50 = p50(before, after)
    trace = traced_result["trace"]
    layer = dict(trace["metrics"])
    layer["trace.overhead_pct"] = (
        (p50(traced_result) / untraced_p50 - 1.0) * 100.0
        if untraced_p50 else 0.0
    )
    samples = [s for result in runs for s in result["samples"]]
    return {
        "correct": not problems,
        "problems": problems,
        "attempted": len(samples),
        "failed": sum(1 for s in samples if s is None or "error" in s),
        "per_layer": {
            m.name: {"value": layer[m.name], "unit": m.unit}
            for m in spec.PER_LAYER
        },
        "layers": trace["table"],
        "events": trace["events"],
    }


# ---------------------------------------------------------------------------
# Output
# ---------------------------------------------------------------------------

def print_end_to_end(name: str, entry: dict) -> None:
    print(f"\n{name}  (attempted {entry['attempted']}, "
          f"failed {entry['failed']})")
    for metric, value in entry["metrics"].items():
        print(f"  {metric:<20} {value['value']:>14.6g} {value['unit']:<6} "
              f"n={value['samples']}")


def print_per_layer(name: str, entry: dict) -> None:
    print(f"\n{name}  traced (attempted {entry['attempted']}, "
          f"failed {entry['failed']})")
    print(f"  {'layer':<24} {'busy_ms':>10} {'self_ms':>10} "
          f"{'count':>9} {'share':>7}")
    for layer, row in entry["layers"]["layers"].items():
        self_ms = "-" if row["self_ms"] is None else f"{row['self_ms']:.1f}"
        share = "-" if row["share"] is None else f"{row['share']:.1%}"
        print(f"  {layer:<24} {row['busy_ms']:>10.1f} {self_ms:>10} "
              f"{row['count']:>9} {share:>7}")
    print("  self times cover "
          f"{entry['layers']['self_time_coverage']:.2%} of campaign busy time")
    for metric, value in entry["per_layer"].items():
        print(f"  {metric:<32} {value['value']:>14.6g} {value['unit']}")


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        description=__doc__,
        formatter_class=argparse.RawDescriptionHelpFormatter,
    )
    parser.add_argument("--workload", choices=spec.WORKLOAD_NAMES,
                        help="one workload (default: all four)")
    parser.add_argument("--seed", type=int, default=spec.DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=None,
                        help="measure each workload for this long instead "
                             "of a fixed number of campaigns")
    parser.add_argument("--trace", default="0", metavar="0|FILE",
                        help="0: end-to-end metrics; otherwise per-layer "
                             "metrics of a traced run, whose Chrome trace "
                             "goes to FILE (1: "
                             f"{DEFAULT_TRACE.relative_to(ROOT)})")
    parser.add_argument("--out", help="write the result file here")
    parser.add_argument("--smoke", action="store_true",
                        help=f"{SMOKE_CAMPAIGNS} campaigns per workload, "
                             "one set-up sample: a quick self-check")
    args = parser.parse_args(argv)
    # Children run in their own sessions; turning SIGTERM into an exit
    # lets run_child's cleanup stop them too.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    if not (ROOT / "src" / "repro").is_dir():
        print(f"no repro package under {ROOT / 'src'}; run from a "
              "checkout of the repository", file=sys.stderr)
        return 2
    names = [args.workload] if args.workload else list(spec.WORKLOAD_NAMES)
    trace_file = None
    if args.trace != "0":
        trace_file = DEFAULT_TRACE if args.trace == "1" else Path(args.trace)
    traced = trace_file is not None

    calibration_before = calibration_score()
    host = host_block()
    entries: dict[str, dict] = {}
    problems: list[str] = []
    try:
        for name in names:
            entry = run_workload(name, args, traced)
            entries[name] = entry
            problems += [f"{name}: {p}" for p in entry["problems"]]
            (print_per_layer if traced else print_end_to_end)(name, entry)
    except ChildFailed as exc:
        print(str(exc), file=sys.stderr)
        return 1
    finally:
        with contextlib.suppress(OSError):
            TMP_ROOT.rmdir()
    host["calibration_mloops_before"] = calibration_before
    host["calibration_mloops_after"] = calibration_score()

    if args.out:
        Path(args.out).write_text(json.dumps({
            "seed": args.seed,
            "seconds": args.seconds,
            "smoke": args.smoke,
            "traced": traced,
            "host": host,
            "workloads": {
                name: {k: v for k, v in entry.items() if k != "events"}
                for name, entry in entries.items()
            },
        }, indent=2) + "\n")
    if traced:
        events = [e for entry in entries.values() for e in entry["events"]]
        trace_file.parent.mkdir(parents=True, exist_ok=True)
        trace_file.write_text(json.dumps({"traceEvents": events}))
        print(f"\nChrome trace: {trace_file}")
    print("\nhost: " + ", ".join(f"{k}={v}" for k, v in host.items()))
    for problem in problems:
        print(f"INCORRECT: {problem}")

    metric_key = "per_layer" if traced else "metrics"
    listed = (
        [m.name for m in spec.PER_LAYER if m.listed] if traced
        else [m.name for m in spec.END_TO_END if m.listed]
    )
    metrics = {}
    for name, entry in entries.items():
        for metric in listed:
            value = entry[metric_key][metric]
            key = metric if len(entries) == 1 else f"{name}.{metric}"
            metrics[key] = {"value": value["value"], "unit": value["unit"]}
    print(json.dumps({
        "correct": not problems,
        "attempted": sum(e["attempted"] for e in entries.values()),
        "failed": sum(e["failed"] for e in entries.values()),
        "metrics": metrics,
    }))
    return 0 if not problems else 1


if __name__ == "__main__":
    sys.exit(main())
