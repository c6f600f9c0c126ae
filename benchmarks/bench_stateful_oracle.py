"""EXP-ORACLE — what session-scoped prediction costs.

Both oracles predict with the program's spec-faithful generated
kernel. The stateful oracle threads one register file through the
whole packet sequence; the stateless one starts every packet from
fresh registers. ``stateful_firewall`` touches its register from one
stage, so its kernel is columnar: the stateful oracle predicts the
sequence as stage-major blocks of at most ``BLOCK_LANES`` packets over
its own registers, and the stateless oracle, which needs fresh
registers per packet, predicts packet by packet. Three things are
worth pinning on a big bidirectional sweep:

* **throughput** — expectations per second for the stateful vs the
  stateless oracle over the same 10k-packet ``tcp_bidir``-style
  workload (both rows land in ``BENCH_perf.json``);
* **schedule** — the stateful oracle predicts the sweep in exactly
  ``ceil(10_000 / BLOCK_LANES)`` kernel ``run_block`` calls, not one
  per packet. A count, not a timing, so it means the same on a 1-CPU
  CI host;
* **semantics** — the two predictions must actually diverge on the
  sweep: the stateful oracle forwards the return-path packets of
  opened flows that the stateless oracle keeps forbidding.
"""

import time

from conftest import emit

from repro.netdebug.oracle import (
    BLOCK_LANES,
    ReferenceOracle,
    StatelessOracle,
)
from repro.p4.stdlib_ext import stateful_firewall
from repro.sim.traffic import OUTSIDE_PORT, bidirectional_flows, default_flow
from repro.target.batch import BatchProgram

SWEEP_PACKETS = 10_000
SEED = 2018


def _sweep():
    pairs = bidirectional_flows(default_flow(), SWEEP_PACKETS, seed=SEED)
    frames = [packet.pack() for packet, _ in pairs]
    ports = [port for _, port in pairs]
    return frames, ports


def _throughput(factory, frames, ports):
    program = stateful_firewall()
    best = float("inf")
    expectations = None
    for _ in range(3):
        oracle = factory(program, num_ports=8)
        start = time.perf_counter()
        expectations = oracle.expect_all(
            frames, ingress_ports=ports, label="bench"
        )
        best = min(best, time.perf_counter() - start)
    return len(frames) / best, expectations


def test_stateful_oracle_predicts_the_sweep_in_blocks(monkeypatch):
    """The 10k sweep is one ``run_block`` call per ``BLOCK_LANES``
    packets on the stateful oracle."""
    frames, ports = _sweep()
    calls = []
    run_block = BatchProgram.run_block

    def counted(kernel, wires, *args, **kwargs):
        calls.append(kernel)
        return run_block(kernel, wires, *args, **kwargs)

    monkeypatch.setattr(BatchProgram, "run_block", counted)
    oracle = ReferenceOracle(stateful_firewall(), num_ports=8)
    expectations = oracle.expect_all(frames, ingress_ports=ports)
    assert len(expectations) == SWEEP_PACKETS
    assert calls == [oracle.spec.kernel] * -(-SWEEP_PACKETS // BLOCK_LANES)


def test_stateful_vs_stateless_oracle_throughput(benchmark):
    """10k bidirectional packets through both oracle semantics."""
    frames, ports = _sweep()

    def experiment():
        stateful_rate, stateful_exp = _throughput(
            ReferenceOracle, frames, ports
        )
        stateless_rate, stateless_exp = _throughput(
            StatelessOracle, frames, ports
        )
        return stateful_rate, stateless_rate, stateful_exp, stateless_exp

    stateful_rate, stateless_rate, stateful_exp, stateless_exp = (
        benchmark.pedantic(experiment, rounds=1, iterations=1)
    )

    assert len(stateful_exp) == len(stateless_exp) == SWEEP_PACKETS
    # The semantics divergence: return-path packets of opened flows are
    # forwarded only under session-scoped state.
    opened_returns = sum(
        1
        for port, stateful_e, stateless_e in zip(
            ports, stateful_exp, stateless_exp
        )
        if port == OUTSIDE_PORT
        and not stateful_e.forbid
        and stateless_e.forbid
    )
    assert opened_returns > 0
    ratio = stateful_rate / stateless_rate

    emit(
        "EXP-ORACLE — stateful vs stateless oracle throughput",
        [
            f"{'oracle':>10} {'expectations/s':>16}",
            f"{'stateful':>10} {stateful_rate:>16,.0f}",
            f"{'stateless':>10} {stateless_rate:>16,.0f}",
            f"stateful/stateless ratio: {ratio:.2f}x",
            f"return-path flips (forwarded only when stateful): "
            f"{opened_returns}/{SWEEP_PACKETS}",
        ],
    )

    benchmark.extra_info["stateful_expectations_per_s"] = round(
        stateful_rate
    )
    benchmark.extra_info["stateless_expectations_per_s"] = round(
        stateless_rate
    )
    benchmark.extra_info["stateful_over_stateless"] = round(ratio, 3)
    benchmark.extra_info["return_path_flips"] = opened_returns
    benchmark.extra_info["sweep_packets"] = SWEEP_PACKETS
