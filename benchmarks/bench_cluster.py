"""EXP-CLUSTER — distributed campaign execution with streaming ingest.

The scaling experiment behind the cluster subsystem, on the same seeded
matrix the golden baselines pin:

* **Streaming vs barrier**: a barrier campaign is only useful when the
  last shard lands; streaming ingest hands the first verdict to the
  operator while the rest of the matrix is still running. The asserted
  contract is time-to-first-result strictly below the full-barrier
  wall time, read as the median ratio over alternating pairs.
* **Worker scaling**: the same matrix across 1/2/4 socket-connected
  workers, byte-identical throughout (the determinism contract that
  lets cluster output feed the diff gate and golden baselines).

Timings land in ``BENCH_perf.json`` via the shared conftest hook.
"""

import io
import os
import statistics
import time

from conftest import emit

from repro.netdebug.campaign import run_campaign
from repro.netdebug.cluster import ProgressPrinter, run_cluster_campaign
from repro.netdebug.diffing import baseline_matrix

#: The committed-baseline matrix (12 scenarios, 3 targets) — "the
#: seeded matrix" every other gate uses — at a packet count that makes
#: shard work dominate connection setup.
MATRIX = baseline_matrix(count=40)


#: Alternating barrier/streamed pairs the streaming gate reads.
STREAMING_PAIRS = 7


def _barrier_arm():
    """The pool barrier campaign: its report and wall time."""
    t0 = time.perf_counter()
    report = run_campaign(MATRIX, workers=2, name="baseline")
    return report, time.perf_counter() - t0


def _streamed_arm():
    """The streamed cluster campaign: its report, time to first result,
    wall time and the share of that wall time between its first and
    last result. The live renderer is itself the measurement
    instrument: its ``first_result_s`` is the time-to-first-result
    definition."""
    printer = ProgressPrinter(stream=io.StringIO())
    arrivals = []

    def on_result(*args):
        printer(*args)
        arrivals.append(time.perf_counter())

    t0 = time.perf_counter()
    report = run_cluster_campaign(
        MATRIX, workers=2, name="baseline", on_result=on_result,
        timeout=600,
    )
    t_cluster = time.perf_counter() - t0
    assert arrivals, "the cluster delivered no result through on_result"
    assert printer.first_result_s is not None, (
        "the live renderer recorded no first result"
    )
    spread = (arrivals[-1] - arrivals[0]) / t_cluster
    return report, printer.first_result_s, t_cluster, spread


def test_cluster_streaming_beats_the_barrier(benchmark):
    """Time-to-first-result under streaming ingest must come in
    strictly below the full-barrier campaign wall time, in the median
    over alternating pairs (one barrier and one streamed run each,
    alternating which goes first, so host drift cancels out of each
    pair's ratio), and every pair must be byte-identical.

    The forked cluster can finish the whole matrix about as fast as
    the pool barrier, so that ratio alone would pass a cluster that
    held every result to the end. The results must also land
    progressively: in the median pair, first to last result spans at
    least a tenth of the streamed run's wall time (all at once, they
    span microseconds)."""

    def experiment():
        _barrier_arm()  # untimed warm-up: compile caches
        pairs = []
        for index in range(STREAMING_PAIRS):
            if index % 2 == 0:
                barrier, t_barrier = _barrier_arm()
                streamed, *streamed_times = _streamed_arm()
            else:
                streamed, *streamed_times = _streamed_arm()
                barrier, t_barrier = _barrier_arm()
            # Determinism: pool barrier vs distributed cluster.
            assert barrier.to_json() == streamed.to_json()
            pairs.append((t_barrier, *streamed_times))
        return barrier.scenarios, pairs

    scenarios, pairs = benchmark.pedantic(
        experiment, rounds=1, iterations=1
    )
    ratios = [ttfr / t_barrier for t_barrier, ttfr, _, _ in pairs]
    q1, ratio, q3 = statistics.quantiles(ratios, n=4)
    t_barrier, ttfr, t_cluster, spread = (
        statistics.median(column) for column in zip(*pairs)
    )
    spread_q1, _, spread_q3 = statistics.quantiles(
        [pair[3] for pair in pairs], n=4
    )
    emit(
        "EXP-CLUSTER — streaming ingest vs barrier execution "
        f"(medians over {len(pairs)} alternating pairs)",
        [
            f"{'scenarios':>10} {'barrier_s':>10} {'ttfr_s':>8} "
            f"{'cluster_s':>10} {'ttfr/barrier':>13} {'q1..q3':>15} "
            f"{'spread':>7} {'q1..q3':>15}",
            f"{scenarios:>10} {t_barrier:>10.3f} {ttfr:>8.3f} "
            f"{t_cluster:>10.3f} {ratio:>12.2%} "
            f"{q1:>7.2%}..{q3:.2%} {spread:>7.2%} "
            f"{spread_q1:>7.2%}..{spread_q3:.2%}",
        ],
    )
    benchmark.extra_info["scenarios"] = scenarios
    benchmark.extra_info["pairs"] = len(pairs)
    benchmark.extra_info["barrier_s"] = round(t_barrier, 4)
    benchmark.extra_info["time_to_first_result_s"] = round(ttfr, 4)
    benchmark.extra_info["cluster_s"] = round(t_cluster, 4)
    benchmark.extra_info["ttfr_over_barrier"] = round(ratio, 4)
    benchmark.extra_info["result_spread"] = round(spread, 4)
    benchmark.extra_info["result_spread_q1_q3"] = [
        round(spread_q1, 4), round(spread_q3, 4)
    ]
    benchmark.extra_info["byte_identical"] = True
    # The tentpole claim: streaming renders progressively, so the first
    # verdict lands well before a barrier run would have returned.
    assert ratio < 1, (
        f"first streamed result took {ratio:.2f}x the barrier wall time "
        f"in the median pair (quartiles {q1:.2f}..{q3:.2f})"
    )
    assert spread >= 0.1, (
        f"streamed results landed within {spread:.2%} of the run's wall "
        "time: held to the end, not streamed"
    )


def test_cluster_scaling_across_worker_counts(benchmark):
    """Wall clock of the seeded matrix on 1, 2 and 4 socket-connected
    workers; every fleet size must produce identical bytes."""

    def experiment():
        timings = {}
        reports = {}
        for workers in (1, 2, 4):
            t0 = time.perf_counter()
            reports[workers] = run_cluster_campaign(
                MATRIX, workers=workers, name="baseline", timeout=600
            )
            timings[workers] = time.perf_counter() - t0
        return timings, reports

    timings, reports = benchmark.pedantic(
        experiment, rounds=1, iterations=1
    )

    texts = {w: r.to_json() for w, r in reports.items()}
    assert texts[1] == texts[2] == texts[4]

    # Scaling gate: adding workers must shorten the wall clock — but
    # only fleet sizes the host can actually back. On a box with fewer
    # CPUs than workers the fleet time-slices one core and the
    # assertion would measure the scheduler, not the cluster; those
    # sizes are annotated instead of gated.
    cpus = os.cpu_count() or 1
    backed = [w for w in (2, 4) if w <= cpus]
    gated = bool(backed) and not getattr(benchmark, "disabled", False)
    if gated:
        best_multi = min(timings[w] for w in backed)
        assert best_multi < timings[1], (
            f"{backed} workers on {cpus} CPUs never beat one worker "
            f"({best_multi:.3f}s vs {timings[1]:.3f}s)"
        )

    lines = [f"{'workers':>8} {'wall_s':>8} {'speedup':>8}"]
    for workers, wall in sorted(timings.items()):
        lines.append(
            f"{workers:>8} {wall:>8.3f} "
            f"{timings[1] / wall if wall else float('inf'):>7.2f}x"
            + ("" if workers <= max(cpus, 1) else "  (unbacked)")
        )
    lines.append(
        f"(host has {cpus} CPUs; scaling gate "
        + (f"covers {backed} workers)" if gated else "skipped)")
    )
    emit("EXP-CLUSTER — worker-count scaling (byte-identical)", lines)
    for workers, wall in timings.items():
        benchmark.extra_info[f"workers_{workers}_s"] = round(wall, 4)
    benchmark.extra_info["cpus"] = cpus
    benchmark.extra_info["scaling_gate_workers"] = backed if gated else []
    benchmark.extra_info["byte_identical"] = True
