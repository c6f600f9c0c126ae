"""EXP-BATCH — the batch kernel and the compiled-artifact cache.

Two properties behind the batch kernel's line-rate claim:

* Per-block throughput must grow with block size — the kernel
  amortizes dispatch, parse codegen and deparse over a
  struct-of-arrays block, so bigger blocks mean more packets per
  second, and the largest block must beat per-packet injection.
* The persistent compiled-artifact cache must make warm provisioning
  cheaper than cold compilation — the property that lets cluster
  workers and replay runs skip recompiles.

Wall-clock assertions only fire on timed runs (the ones recorded in
BENCH_perf.json) so ``--benchmark-disable`` smoke jobs check semantics
without flaking on noisy shared runners.
"""

import time

from conftest import emit

from repro.exceptions import CompileError
from repro.p4.stdlib import PROGRAMS
from repro.sim.traffic import default_flow, udp_stream
from repro.target.artifact_cache import (
    ArtifactCache,
    stats_delta,
    stats_snapshot,
)
from repro.target.reference import ReferenceCompiler, make_reference_device
from repro.target.sdnet import SDNetCompiler
from repro.target.tofino import TofinoCompiler

BLOCK_SIZES = (16, 64, 256, 1024)
CACHE_PROGRAMS = ("strict_parser", "acl_firewall", "ipv4_router",
                  "mpls_tunnel")
CACHE_TARGETS = (ReferenceCompiler, SDNetCompiler, TofinoCompiler)


def test_batch_block_throughput(benchmark):
    """Per-block throughput scales with block size."""
    wires = [
        p.pack()
        for p in udp_stream(default_flow(), max(BLOCK_SIZES), size=128)
    ]

    def throughput(run, frames):
        run(frames[:1])  # warm caches / compile
        best = float("inf")
        for _ in range(5):
            start = time.perf_counter()
            run(frames)
            best = min(best, time.perf_counter() - start)
        return len(frames) / best

    def experiment():
        device = make_reference_device("bk-throughput")
        device.load(PROGRAMS["strict_parser"](forward_port=0))
        rows = [
            (size, throughput(device.inject_block, wires[:size]))
            for size in BLOCK_SIZES
        ]
        per_packet = make_reference_device("bk-single")
        per_packet.load(PROGRAMS["strict_parser"](forward_port=0))

        def inject_each(frames):
            for wire in frames:
                per_packet.inject(wire)

        baseline = throughput(inject_each, wires)
        return rows, baseline

    rows, baseline = benchmark.pedantic(experiment, rounds=1, iterations=1)

    lines = [f"{'block':>8} {'pkts/s':>14}"]
    for size, rate in rows:
        lines.append(f"{size:>8} {rate:>14,.0f}")
    lines.append(f"{'per-pkt':>8} {baseline:>14,.0f}")
    emit("EXP-BATCH — block throughput vs block size", lines)

    if not getattr(benchmark, "disabled", False):
        # The largest block must out-run per-packet injection; smaller
        # blocks may tie (fixed per-block overhead dominates at 16).
        best_rate = max(rate for _, rate in rows)
        assert best_rate > baseline, (
            f"batch peak {best_rate:,.0f} pkts/s does not beat "
            f"per-packet {baseline:,.0f} pkts/s"
        )
    benchmark.extra_info["throughput_pkts_per_s"] = {
        str(size): round(rate) for size, rate in rows
    }
    benchmark.extra_info["per_packet_pkts_per_s"] = round(baseline)


def _resolve_all(cache):
    """The campaign worker's disk-tier resolution, for every seeded
    program × target pair: hit the cache or compile and store."""
    for name in CACHE_PROGRAMS:
        for compiler_cls in CACHE_TARGETS:
            compiler = compiler_cls()
            program = PROGRAMS[name]()
            try:
                key = cache.key_for(program, compiler)
            except Exception:
                continue
            compiled = cache.load(key, compiler)
            if compiled is None:
                try:
                    compiled = compiler.compile(program)
                except CompileError:
                    continue
                cache.store(key, compiled)


def test_compile_cache_warm_vs_cold(benchmark, tmp_path):
    """Warm artifact resolution must be cheaper than cold compilation."""

    def timed_resolve(directory):
        before = stats_snapshot()
        start = time.perf_counter()
        _resolve_all(ArtifactCache(directory))
        return time.perf_counter() - start, stats_delta(before)

    def experiment():
        # Cold can only happen once per directory: best-of-3 over three
        # fresh directories, then best-of-3 warm over a populated one.
        cold_s = float("inf")
        for round_index in range(3):
            elapsed, cold_stats = timed_resolve(
                tmp_path / f"cold-{round_index}"
            )
            cold_s = min(cold_s, elapsed)
        warm_s = float("inf")
        for _ in range(3):
            elapsed, warm_stats = timed_resolve(tmp_path / "cold-0")
            warm_s = min(warm_s, elapsed)
        return cold_s, warm_s, cold_stats, warm_stats

    cold_s, warm_s, cold_stats, warm_stats = benchmark.pedantic(
        experiment, rounds=1, iterations=1
    )

    assert cold_stats["stores"] > 0 and cold_stats["misses"] > 0
    assert warm_stats["hits"] == cold_stats["stores"]
    assert warm_stats["misses"] == 0 and warm_stats["stores"] == 0
    if not getattr(benchmark, "disabled", False):
        assert warm_s < cold_s, (
            f"warm resolution ({warm_s * 1e3:.1f}ms) not cheaper than "
            f"cold compilation ({cold_s * 1e3:.1f}ms)"
        )

    emit(
        "EXP-BATCH — compiled-artifact cache, cold vs warm",
        [
            f"{'path':>6} {'time':>10} {'hits':>6} {'misses':>7} "
            f"{'stores':>7}",
            f"{'cold':>6} {cold_s * 1e3:>8.1f}ms {cold_stats['hits']:>6} "
            f"{cold_stats['misses']:>7} {cold_stats['stores']:>7}",
            f"{'warm':>6} {warm_s * 1e3:>8.1f}ms {warm_stats['hits']:>6} "
            f"{warm_stats['misses']:>7} {warm_stats['stores']:>7}",
            f"speedup: {cold_s / warm_s:.2f}x (bar: warm < cold)",
        ],
    )
    benchmark.extra_info.update(
        {
            "cold_s": round(cold_s, 6),
            "warm_s": round(warm_s, 6),
            "cold_cache": cold_stats,
            "warm_cache": warm_stats,
        }
    )
