"""Shared helpers for the benchmark harness.

Each bench module reproduces one paper artifact (figure, table, or the §4
case study). Benchmarks both *time* the experiment kernel via
pytest-benchmark and *verify* the reproduced result's shape, attaching the
reproduced rows to ``benchmark.extra_info`` and printing a paper-style
table (visible with ``pytest -s`` or in the saved benchmark JSON).

Every timed run also appends one entry to ``BENCH_perf.json`` at the
repository root: per-benchmark median timings plus the ``extra_info``
rows, and a ``host`` block (CPU count, Python, platform, load average)
so a slow host can be told apart from a regression. The file is the
repo's performance trajectory — diff entries across commits to see a
hot path regress or improve.
"""

from __future__ import annotations

import json
import os
import platform
import statistics
import time
from pathlib import Path


def emit(title: str, lines: list[str]) -> None:
    """Print a reproduction table under a banner."""
    banner = "=" * max(len(title), 40)
    print(f"\n{banner}\n{title}\n{banner}")
    for line in lines:
        print(line)


def paired_ratio(slow, fast, pairs: int = 15) -> dict:
    """Time two arms in short alternating rounds; the median of the
    per-pair ratios ``slow / fast`` is what a speed-up gate reads.

    Each pair runs one call of each arm back to back, alternating which
    goes first, so host speed drifting over the run cancels out of the
    pair's ratio (the method ``bench/compare.py`` uses across commits).
    Both arms are called once untimed first (warm caches, compile).
    Returns the median ratio, its quartiles and each arm's median
    seconds per call.
    """
    slow()
    fast()
    ratios, slow_s, fast_s = [], [], []
    for index in range(pairs):
        timed = {}
        for arm in ((slow, fast) if index % 2 == 0 else (fast, slow)):
            start = time.perf_counter()
            arm()
            timed[arm] = time.perf_counter() - start
        slow_s.append(timed[slow])
        fast_s.append(timed[fast])
        ratios.append(timed[slow] / timed[fast])
    q1, median, q3 = statistics.quantiles(ratios, n=4)
    return {
        "ratio": median,
        "ratio_q1": q1,
        "ratio_q3": q3,
        "slow_s": statistics.median(slow_s),
        "fast_s": statistics.median(fast_s),
    }


def _stat(bench, name: str):
    """Best-effort read of one pytest-benchmark statistic."""
    try:
        return getattr(bench.stats.stats, name)
    except Exception:
        try:
            return getattr(bench.stats, name)
        except Exception:
            return None


def pytest_sessionfinish(session, exitstatus):
    """Append this run's per-benchmark medians to BENCH_perf.json."""
    benchmark_session = getattr(session.config, "_benchmarksession", None)
    if benchmark_session is None:
        return
    rows = []
    for bench in getattr(benchmark_session, "benchmarks", []):
        rows.append(
            {
                "name": bench.name,
                "group": getattr(bench, "group", None),
                "median_s": _stat(bench, "median"),
                "mean_s": _stat(bench, "mean"),
                "rounds": _stat(bench, "rounds"),
                "extra_info": dict(getattr(bench, "extra_info", {}) or {}),
            }
        )
    if not rows:
        return  # nothing timed (e.g. --benchmark-disable smoke runs)
    path = Path(str(session.config.rootpath)) / "BENCH_perf.json"
    history: list = []
    if path.exists():
        try:
            history = json.loads(path.read_text()).get("runs", [])
        except (ValueError, OSError):
            history = []
    history.append(
        {
            "timestamp": time.strftime("%Y-%m-%dT%H:%M:%S%z"),
            "exit_status": int(exitstatus),
            "host": {
                "cpus": os.cpu_count(),
                "python": platform.python_version(),
                "implementation": platform.python_implementation(),
                "platform": platform.platform(),
                "loadavg": list(os.getloadavg()),
            },
            "benchmarks": rows,
        }
    )
    try:
        path.write_text(
            json.dumps({"runs": history}, indent=2, default=str) + "\n"
        )
    except OSError:
        pass  # a read-only checkout must not fail the bench run
