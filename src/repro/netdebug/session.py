"""Validation sessions: the unit of work the software tool executes.

A :class:`ValidationSession` declares *what to test*: the test streams to
inject, the programmable checks to run at a tap, and how expected outputs
are derived — explicitly, or from the **reference oracle**, which executes
the same program (and table state) under spec-faithful semantics and
predicts the exact output bytes and egress port. Divergence between the
oracle and the device under test is precisely how NetDebug catches target
bugs like the missing ``reject`` state.
"""

from __future__ import annotations

from dataclasses import dataclass, field as dc_field
from typing import Callable

from ..exceptions import NetDebugError
from ..p4.interpreter import Verdict
from ..target.device import NetworkDevice
from ..target.pipeline import PacketSnapshot, TAP_INPUT, TAP_OUTPUT
from .checker import CheckRule, ExpectedOutput, OutputChecker
from .generator import PacketGenerator, StreamSpec, wire_of
from .oracle import (
    ORACLES,
    OracleFactory,
    ReferenceOracle,
    StatelessOracle,
    require_known_oracle,
)
from .report import SessionReport
from .testpacket import make_probe

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

    Attributes:
        name: Session name for reports.
        streams: Test streams to inject (in listed order).
        checks: Programmable rules evaluated on every observed packet.
        tap: Where the checker observes (default: the output tap).
        use_reference_oracle: Derive an expectation per injected packet
            from the spec-faithful oracle (fresh state per packet
            unless ``oracle_factory`` overrides the construction).
        expectations: Explicit per-packet expectations (overrides the
            oracle when non-empty; must match the injection count).
        oracle_factory: How to build this session's oracle — called
            once per :func:`run_session` as ``factory(program,
            num_ports=...)`` and fed every packet in injection order.
            Pass :class:`~repro.netdebug.oracle.ReferenceOracle` for
            session-scoped stateful predictions; the default (``None``
            with ``use_reference_oracle``) is
            :class:`~repro.netdebug.oracle.StatelessOracle`, preserving
            the historical per-packet fresh-state semantics.
        oracle: Legacy per-packet callable ``(wire, ingress_port) ->
            ExpectedOutput``; opaque to the session, so it forces the
            per-packet path (prefer ``oracle_factory``).
    """

    name: str
    streams: list[StreamSpec] = dc_field(default_factory=list)
    checks: list[CheckRule] = dc_field(default_factory=list)
    tap: str = TAP_OUTPUT
    use_reference_oracle: bool = False
    expectations: list[ExpectedOutput] = dc_field(default_factory=list)
    oracle: Callable[[bytes, int], ExpectedOutput] | None = None
    oracle_factory: OracleFactory | None = None


def _block_eligible(
    device: NetworkDevice, session: ValidationSession
) -> str | None:
    """``None`` when the session can run through the batch kernel, else
    the short reason it cannot.

    The block path replays the lockstep protocol after the kernel runs,
    which is only equivalent when nothing needs to observe or perturb
    packets mid-flight: no taps, no armed faults, checking at the
    output tap, input-tap injection, and no custom oracle (an arbitrary
    callable may read device state between injections). Wrapped streams
    must be fully timed — an untimed probe's wire bytes embed the
    running clock, which the kernel only knows afterwards.

    A *stateful* ``oracle_factory`` oracle stays block-compatible: its
    arrival-order contract holds because the kernel preserves arrival
    order for exactly the programs whose predictions depend on it —
    register-bearing programs take the packet-major schedule
    (:attr:`repro.target.batch.BatchProgram.columnar` is False), and
    the post-block replay feeds the oracle in sequence order.
    """
    if session.tap != TAP_OUTPUT:
        return "non-output tap"
    if session.oracle is not None:
        return "custom oracle"
    injector = device.injector
    if injector is not None and injector._active:
        return "faults armed"
    if device.pipeline.has_taps():
        return "taps"
    for stream in session.streams:
        if stream.inject_at != TAP_INPUT:
            return "mid-pipeline inject_at"
        if stream.wrap:
            count = (
                len(stream.packets)
                if stream.packets is not None
                else stream.count
            )
            if (
                stream.timestamps is None
                or len(stream.timestamps) < count
            ):
                return "untimed wrapped stream"
    return None


def _session_oracle(
    device: NetworkDevice, session: ValidationSession
) -> ReferenceOracle | None:
    """Build the one oracle that serves this session, or ``None``.

    ``oracle_factory`` wins when set (with or without
    ``use_reference_oracle``); ``use_reference_oracle`` alone keeps the
    historical default, a :class:`StatelessOracle`. Both execution
    paths construct the oracle exactly once per run and feed it every
    packet in injection order — the arrival-order contract stateful
    oracles require.
    """
    if session.oracle_factory is not None:
        return session.oracle_factory(
            device.program, num_ports=len(device.ports)
        )
    if session.use_reference_oracle:
        return StatelessOracle(
            device.program, num_ports=len(device.ports)
        )
    return None


def _run_session_block(
    device: NetworkDevice, session: ValidationSession
) -> SessionReport:
    """Block-wise session execution through the batch kernel.

    Injects each stream as one block through the batch kernel, then
    replays the arm → observe → disarm protocol per packet against the
    kernel's outcomes — the output tap fires only for forwarded
    packets, so a synthesized output snapshot per forwarded run
    reproduces exactly what the attached checker would have seen.
    """
    generator = PacketGenerator(device)
    for stream in session.streams:
        generator.configure(stream)

    checker = OutputChecker(device, tap=session.tap)
    for rule in session.checks:
        checker.add_check(rule)

    oracle = _session_oracle(device, session)
    explicit = list(session.expectations)
    explicit_index = 0
    sent_per_stream: dict[int, int] = {}

    for stream in session.streams:
        packets = list(stream.materialize())
        if stream.wrap:
            wires = [
                make_probe(
                    stream.stream_id,
                    seq_no,
                    timestamp=stream.timestamps[seq_no],
                    inner=packet,
                ).pack()
                for seq_no, packet in enumerate(packets)
            ]
        else:
            wires = [wire_of(packet) for packet in packets]
        timestamps = (
            list(stream.timestamps)
            if stream.timestamps is not None
            else None
        )
        ports = (
            [stream.port_at(i) for i in range(len(wires))]
            if stream.ingress_ports is not None
            else None
        )
        outcomes = device.inject_block(
            wires, timestamps=timestamps, ports=ports
        )

        for seq_no, (timestamp, run) in enumerate(outcomes):
            expectation: ExpectedOutput | None = None
            if explicit:
                if explicit_index >= len(explicit):
                    raise NetDebugError(
                        f"session {session.name!r}: fewer expectations "
                        "than injected packets"
                    )
                expectation = explicit[explicit_index]
                explicit_index += 1
            elif oracle is not None:
                expectation = oracle.expect(
                    wires[seq_no],
                    ingress_port=stream.port_at(seq_no),
                    timestamp=timestamp,
                    label=f"s{stream.stream_id}#{seq_no}",
                )

            if expectation is not None:
                checker.arm(expectation)
            if run.result.verdict is Verdict.FORWARDED:
                out_packet = run.result.packet
                out_wire = run.output_wire
                if out_wire is None:
                    out_wire = out_packet.pack()
                    run.output_wire = out_wire
                metadata = run.result.metadata
                metadata["_cycles_elapsed"] = run.latency_cycles
                checker._on_snapshot(
                    PacketSnapshot(
                        TAP_OUTPUT, out_wire, out_packet, metadata, True
                    )
                )
            if expectation is not None:
                checker.disarm()
        sent_per_stream[stream.stream_id] = len(wires)
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


def run_session(
    device: NetworkDevice, session: ValidationSession
) -> SessionReport:
    """Execute a session on a device and collect the report.

    Injection and checking run in lockstep: for each test packet the
    expectation is armed, the packet is injected directly into the data
    plane, the tap observation (synchronous in this simulation) consumes
    the expectation, and the window is closed. The report aggregates
    check outcomes, stream statistics, latency samples and all findings.

    Sessions that need no mid-flight observation run block-wise
    through the batch kernel instead (see :func:`_block_eligible` and
    :func:`_run_session_block`); the report is identical byte for byte.
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

    if _block_eligible(device, session) is None:
        return _run_session_block(device, session)

    generator = PacketGenerator(device)
    for stream in session.streams:
        generator.configure(stream)

    checker = OutputChecker(device, tap=session.tap)
    for rule in session.checks:
        checker.add_check(rule)

    oracle = _session_oracle(device, session)
    explicit = list(session.expectations)
    explicit_index = 0
    sent_per_stream: dict[int, int] = {}

    with checker:
        for stream in session.streams:
            sent = 0
            for seq_no, packet in enumerate(stream.materialize()):
                timestamp = stream.timestamp_at(
                    seq_no, device.clock_cycles
                )
                port = stream.port_at(seq_no)
                if stream.wrap:
                    wire = make_probe(
                        stream.stream_id,
                        seq_no,
                        timestamp=timestamp,
                        inner=packet,
                    ).pack()
                else:
                    wire = wire_of(packet)

                expectation: ExpectedOutput | None = None
                if explicit:
                    if explicit_index >= len(explicit):
                        raise NetDebugError(
                            f"session {session.name!r}: fewer expectations "
                            "than injected packets"
                        )
                    expectation = explicit[explicit_index]
                    explicit_index += 1
                elif session.oracle is not None:
                    expectation = session.oracle(wire, port)
                elif oracle is not None:
                    expectation = oracle.expect(
                        wire,
                        ingress_port=port,
                        timestamp=timestamp,
                        label=f"s{stream.stream_id}#{seq_no}",
                    )

                if expectation is not None:
                    checker.arm(expectation)
                device.inject(
                    wire, at=stream.inject_at, port=port,
                    timestamp=timestamp,
                )
                if expectation is not None:
                    checker.disarm()
                sent += 1
            sent_per_stream[stream.stream_id] = sent
        checker.finalize(
            sent_per_stream if any(s.wrap for s in session.streams) else None
        )

    report = SessionReport(
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
    return report
