"""Validation sessions: the unit of work the software tool executes.

A :class:`ValidationSession` declares *what to test*: the test streams to
inject, the programmable checks to run at the output tap, and how
expected outputs are derived — explicitly, or from the **reference
oracle**, which executes the same program (and table state) under
spec-faithful semantics and predicts the exact output bytes and egress
port. Divergence between the oracle and the device under test is
precisely how NetDebug catches target bugs like the missing ``reject``
state.

:func:`run_session` has one loop: every stream enters the device through
the generator (:meth:`PacketGenerator.run_stream`, one
:meth:`~repro.target.device.NetworkDevice.inject_block` call), and the
checker then grades each injected packet's run in injection order. It
is the one place a packet sequence is graded: campaign cells, replayed
recordings and regression suites all run as sessions.
"""

from __future__ import annotations

from dataclasses import dataclass, field as dc_field

from ..exceptions import NetDebugError
from ..p4.interpreter import Verdict
from ..target.device import NetworkDevice
from ..target.pipeline import PacketSnapshot, TAP_OUTPUT, TargetRun
from .checker import CheckRule, ExpectedOutput, OutputChecker
from .generator import PacketGenerator, StreamSpec
from .oracle import (
    ORACLES,
    OracleFactory,
    ReferenceOracle,
    StatelessOracle,
    build_oracle,
    require_known_oracle,
)
from .report import SessionReport

__all__ = [
    "ReferenceOracle",
    "StatelessOracle",
    "ORACLES",
    "require_known_oracle",
    "ValidationSession",
    "run_session",
]


@dataclass
class ValidationSession:
    """A declarative test specification.

    The checker grades what reaches the ``output`` tap; attach an
    :class:`~repro.netdebug.checker.OutputChecker` to the device
    directly to watch another tap.

    Attributes:
        name: Session name for reports.
        streams: Test streams to inject (in listed order).
        checks: Programmable rules evaluated on every observed packet.
        expectations: Explicit per-packet expectations, consumed in
            injection order (override the oracle when non-empty; must
            cover every injected packet).
        oracle_factory: How to derive an expectation per injected
            packet when none are explicit — called once per
            :func:`run_session` as ``factory(program, num_ports=...)``
            and fed every packet in injection order.
            :class:`~repro.netdebug.oracle.StatelessOracle` predicts
            each packet on fresh state;
            :class:`~repro.netdebug.oracle.ReferenceOracle` threads
            register state across the session. ``None`` grades checks
            only.
    """

    name: str
    streams: list[StreamSpec] = dc_field(default_factory=list)
    checks: list[CheckRule] = dc_field(default_factory=list)
    expectations: list[ExpectedOutput] = dc_field(default_factory=list)
    oracle_factory: OracleFactory | None = None


def _output_snapshot(run: TargetRun) -> PacketSnapshot | None:
    """What the ``output`` tap saw of ``run``, or None when the packet
    never reached it: the forwarded packet, or a dead snapshot for a
    packet killed in the output stage itself."""
    result = run.result
    if result.verdict is Verdict.FORWARDED:
        out_wire = run.output_wire
        if out_wire is None:
            out_wire = result.packet.pack()
            run.output_wire = out_wire
        metadata = result.metadata
        metadata["_cycles_elapsed"] = run.latency_cycles
        return PacketSnapshot(
            TAP_OUTPUT, out_wire, result.packet, metadata, True
        )
    if run.died_at == TAP_OUTPUT:
        return PacketSnapshot(
            TAP_OUTPUT, None, None, result.metadata, False
        )
    return None


def run_session(
    device: NetworkDevice, session: ValidationSession
) -> SessionReport:
    """Execute a session on a device and collect the report.

    Each stream enters the device through
    :meth:`PacketGenerator.run_stream` (one block through the batch
    kernel), and its expectations are resolved in one step: the next
    slice of the explicit list, or one
    :meth:`~repro.netdebug.oracle.ReferenceOracle.expect_all` over the
    injected records. The lockstep protocol is then replayed per
    injected packet: the expectation is armed, the checker observes
    what the ``output`` tap saw of the packet's run, and the window is
    closed.
    The kernel runs packets in arrival order, so this grades exactly
    what a checker attached to the output tap during a packet-by-packet
    injection would. The report aggregates check outcomes, stream
    statistics, latency samples and all findings.
    """
    if not session.streams:
        raise NetDebugError(f"session {session.name!r} has no streams")

    # Directional workloads carry per-packet ingress ports chosen by
    # traffic generators that do not know the device (int_probe spreads
    # over four ports, tcp_bidir assumes ports {0, 1}); a port beyond
    # the compiled device's count must fail HERE, before any packet of
    # any stream is injected, naming the offending index — not mid-run
    # as a target error after earlier packets already mutated state.
    port_count = len(device.ports)
    for stream in session.streams:
        if stream.ingress_ports is None:
            continue
        for index, port in enumerate(stream.ingress_ports):
            if not 0 <= port < port_count:
                raise NetDebugError(
                    f"session {session.name!r}: stream "
                    f"{stream.stream_id} ingress_ports[{index}] is "
                    f"{port}, but device {device.name!r} has only "
                    f"{port_count} ports (valid: 0..{port_count - 1})"
                )

    generator = PacketGenerator(device)
    for stream in session.streams:
        generator.configure(stream)

    checker = OutputChecker(device)
    for rule in session.checks:
        checker.add_check(rule)

    oracle = (
        build_oracle(session.oracle_factory, device)
        if session.oracle_factory is not None
        else None
    )
    graded = 0
    sent_per_stream: dict[int, int] = {}

    for stream in session.streams:
        # Configured again: a later stream may reuse an earlier id.
        generator.configure(stream)
        records = generator.run_stream(stream.stream_id)
        # One expectation per record: the next slice of the explicit
        # list, or the oracle's predictions for the records as injected.
        if session.expectations:
            expectations = session.expectations[graded:graded + len(records)]
            if len(expectations) < len(records):
                raise NetDebugError(
                    f"session {session.name!r}: fewer expectations "
                    "than injected packets"
                )
        elif oracle is not None:
            expectations = oracle.expect_all(
                [record.wire for record in records],
                ingress_ports=stream.ingress_ports,
                timestamps=[record.timestamp for record in records],
                label=f"s{stream.stream_id}",
            )
        else:
            expectations = [None] * len(records)
        graded += len(records)
        for record, expectation in zip(records, expectations):
            if expectation is not None:
                checker.arm(expectation)
            snapshot = _output_snapshot(record.run)
            if snapshot is not None:
                checker._on_snapshot(snapshot)
            if expectation is not None:
                checker.disarm()
        sent_per_stream[stream.stream_id] = len(records)
    checker.finalize(
        sent_per_stream if any(s.wrap for s in session.streams) else None
    )

    return SessionReport(
        session=session.name,
        device=device.name,
        program=device.program.name,
        checks=checker.outcomes(),
        findings=list(checker.findings),
        streams=dict(checker.streams),
        latency=checker.latency,
        injected=sum(sent_per_stream.values()),
        observed=checker.observed,
    )
