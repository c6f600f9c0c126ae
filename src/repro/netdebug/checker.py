"""The in-device output packet checker.

The checker is NetDebug's second hardware module (Figure 1). It attaches
to any pipeline tap — the ``output`` tap for end-to-end validation, or an
internal tap for mid-pipeline visibility — and verifies packets at line
rate, in real time.

Checks are *programmable* in the same expression language the data-plane
programs use: an :class:`ExprCheck` wraps a :class:`repro.p4.expr.Expr`
evaluated against the observed packet and metadata, which is the
reproduction's stand-in for the paper's P4-programmed verification logic.
Structured expectations (:class:`ExpectedOutput`) provide oracle-based
matching: exact bytes, per-field constraints, or an egress-port
requirement.
"""

from __future__ import annotations

from dataclasses import dataclass, field as dc_field
from typing import Callable

from ..exceptions import NetDebugError, P4RuntimeError, ReproError
from ..p4.expr import EvalContext, Expr, compile_expr
from ..p4.types import TypeEnv
from ..packet.packet import Packet
from ..target.device import FLOOD_PORT, NetworkDevice
from ..target.pipeline import PacketSnapshot, TAP_OUTPUT
from .report import CheckOutcome, Finding, LatencyStats, StreamStats
from .testpacket import decode_probe

__all__ = [
    "CheckRule",
    "ExprCheck",
    "PredicateCheck",
    "ExpectedOutput",
    "OutputChecker",
]


class CheckRule:
    """Base class of programmable checker rules."""

    name: str = "check"

    def check(self, snapshot: PacketSnapshot) -> tuple[bool, str]:
        """Return (ok, detail). ``detail`` explains a failure."""
        raise NotImplementedError

    def applies(self, snapshot: PacketSnapshot) -> bool:
        """Whether this rule should run on the snapshot (default: yes)."""
        return True


class ExprCheck(CheckRule):
    """A check written as a P4 expression over the observed packet.

    The expression must evaluate non-zero for the check to pass. Packets
    missing a header the expression reads are *failures* by default
    (``skip_missing=True`` makes them skips instead), matching a hardware
    checker that only triggers on parseable packets.
    """

    def __init__(
        self,
        name: str,
        expr: Expr,
        env: TypeEnv,
        skip_missing: bool = False,
    ):
        self.name = name
        self._expr = expr
        self._env = env
        self._skip_missing = skip_missing
        # Line-rate path: compile the expression once. Checks over
        # headers the environment does not describe (a checker may
        # reference layouts foreign to the loaded program) fall back to
        # tree-walking evaluation.
        try:
            self._compiled = compile_expr(expr, env)
        except ReproError:
            self._compiled = None

    def _eval(self, snapshot: PacketSnapshot) -> int:
        if self._compiled is not None:
            return self._compiled(snapshot.packet, snapshot.metadata, ())
        ctx = EvalContext(snapshot.packet, snapshot.metadata)
        return self._expr.eval(ctx, self._env)

    def applies(self, snapshot: PacketSnapshot) -> bool:
        if not self._skip_missing:
            return True
        if snapshot.packet is None:
            return True  # check() reports the missing packet
        try:
            self._eval(snapshot)
            return True
        except P4RuntimeError:
            return False

    def check(self, snapshot: PacketSnapshot) -> tuple[bool, str]:
        if snapshot.packet is None:
            return False, "no packet at tap"
        try:
            value = self._eval(snapshot)
        except P4RuntimeError as exc:
            return False, f"expression error: {exc}"
        if value:
            return True, ""
        return False, f"expression evaluated to 0 on {snapshot.packet.summary()}"


class LatencyCheck(CheckRule):
    """Per-packet latency SLA: fail when pipeline traversal exceeds a
    cycle budget.

    Reads the tap's local cycle counter (``_cycles_elapsed`` in the
    snapshot metadata), so it works at any tap and needs no probe
    header — the line-rate path a hardware checker would implement as a
    comparator on the timestamp bus.
    """

    def __init__(self, name: str, max_cycles: int):
        self.name = name
        self._max_cycles = max_cycles

    def check(self, snapshot: PacketSnapshot) -> tuple[bool, str]:
        elapsed = snapshot.metadata.get("_cycles_elapsed", 0)
        if elapsed <= self._max_cycles:
            return True, ""
        return (
            False,
            f"latency {elapsed} cycles exceeds SLA of "
            f"{self._max_cycles}",
        )


class PredicateCheck(CheckRule):
    """A check backed by an arbitrary Python predicate (host-side logic)."""

    def __init__(
        self,
        name: str,
        predicate: Callable[[PacketSnapshot], bool],
        detail: str = "predicate returned False",
    ):
        self.name = name
        self._predicate = predicate
        self._detail = detail

    def check(self, snapshot: PacketSnapshot) -> tuple[bool, str]:
        if self._predicate(snapshot):
            return True, ""
        return False, self._detail


@dataclass
class ExpectedOutput:
    """One oracle expectation for the ordered expectation queue.

    Any combination of constraints may be set; unset constraints are not
    checked. ``forbid=True`` inverts the expectation: the corresponding
    injected packet must produce *no* output (a drop test) — it is
    matched against an output only to report leakage.

    ``egress_ports`` expresses a *flood* prediction: the packet must be
    replicated to every listed port. At a pipeline tap the only
    spec-correct observation is the flood sentinel in ``egress_spec``
    (a unicast to a member port is a misroute and fails); per-port
    emission records are validated against :meth:`expand_per_port`'s
    single-port expectations instead.
    """

    wire: bytes | None = None
    fields: dict[str, int] = dc_field(default_factory=dict)
    egress_port: int | None = None
    egress_ports: tuple[int, ...] | None = None
    forbid: bool = False
    label: str = ""

    def expand_per_port(self) -> list["ExpectedOutput"]:
        """One single-port expectation per predicted flood output port.

        A non-flood expectation expands to itself; this is the per-port
        view a port-level capture (one record per emitted copy) is
        checked against.
        """
        if not self.egress_ports:
            return [self]
        return [
            ExpectedOutput(
                wire=self.wire,
                fields=dict(self.fields),
                egress_port=port,
                forbid=self.forbid,
                label=f"{self.label}@port{port}" if self.label
                else f"@port{port}",
            )
            for port in self.egress_ports
        ]

    def matches(self, snapshot: PacketSnapshot) -> tuple[bool, str]:
        if self.wire is not None and snapshot.wire != self.wire:
            return False, f"{self.label}: wire bytes differ"
        if self.egress_ports is not None:
            actual = snapshot.metadata.get("egress_spec")
            if actual != FLOOD_PORT:
                return (
                    False,
                    f"{self.label}: egress port {actual} is not the flood "
                    f"sentinel (expected replication to "
                    f"{sorted(self.egress_ports)})",
                )
        elif self.egress_port is not None:
            actual = snapshot.metadata.get("egress_spec")
            if actual != self.egress_port:
                return (
                    False,
                    f"{self.label}: egress port {actual} != "
                    f"{self.egress_port}",
                )
        packet: Packet | None = snapshot.packet
        for path, expected in self.fields.items():
            if packet is None:
                return False, f"{self.label}: no packet to check {path}"
            try:
                actual = packet.get_field(path)
            except Exception:
                return False, f"{self.label}: missing field {path}"
            if actual != expected:
                return (
                    False,
                    f"{self.label}: {path}={actual:#x} expected "
                    f"{expected:#x}",
                )
        return True, ""


class OutputChecker:
    """Observes a tap, runs rules, tracks streams and expectations."""

    def __init__(self, device: NetworkDevice, tap: str = TAP_OUTPUT):
        self._device = device
        self.tap = tap
        self._rules: list[CheckRule] = []
        self._outcomes: dict[str, CheckOutcome] = {}
        self._expectations: list[ExpectedOutput] = []
        self._next_expectation = 0
        self._armed: ExpectedOutput | None = None
        self._armed_consumed = False
        self.findings: list[Finding] = []
        self.streams: dict[int, StreamStats] = {}
        self.latency = LatencyStats()
        self.observed = 0
        self.observed_alive = 0
        self._attached = False

    # ------------------------------------------------------------------
    # Configuration (driven by the software tool)
    # ------------------------------------------------------------------
    def add_check(self, rule: CheckRule) -> None:
        self._rules.append(rule)
        self._outcomes.setdefault(rule.name, CheckOutcome(rule.name))

    def expect(self, expectation: ExpectedOutput) -> None:
        """Append to the ordered expectation queue."""
        self._expectations.append(expectation)

    # Lockstep correlation: the session arms one expectation immediately
    # before an injection; the tap observation (which fires synchronously
    # during the injection) consumes it. ``disarm`` closes the window and
    # scores a no-show. This is how drop tests avoid mis-pairing.
    def arm(self, expectation: ExpectedOutput) -> None:
        if self._armed is not None:
            raise NetDebugError("an expectation is already armed")
        self._armed = expectation
        self._armed_consumed = False

    def disarm(self) -> None:
        """Close the armed window; score a missing/correct-drop outcome."""
        expectation = self._armed
        self._armed = None
        if expectation is None:
            return
        if not self._armed_consumed and not expectation.forbid:
            self.findings.append(
                Finding(
                    "missing_output",
                    f"{expectation.label or 'expectation'}: no packet "
                    f"reached tap {self.tap!r}",
                    stage=self.tap,
                )
            )

    def attach(self) -> None:
        if self._attached:
            raise NetDebugError("checker already attached")
        self._device.attach_tap(self.tap, self._on_snapshot)
        self._attached = True

    def detach(self) -> None:
        if self._attached:
            self._device.detach_tap(self.tap, self._on_snapshot)
            self._attached = False

    def __enter__(self) -> "OutputChecker":
        self.attach()
        return self

    def __exit__(self, *exc_info) -> None:
        self.detach()

    # ------------------------------------------------------------------
    # Line-rate observation path
    # ------------------------------------------------------------------
    def _on_snapshot(self, snapshot: PacketSnapshot) -> None:
        self.observed += 1
        if not snapshot.alive:
            self._match_expectation(snapshot)
            return
        self.observed_alive += 1

        # Probe accounting: stream sequence + in-device latency.
        wire = snapshot.wire if snapshot.wire is not None else (
            snapshot.packet.pack() if snapshot.packet is not None else b""
        )
        probe = decode_probe(wire)
        if probe is not None:
            stats = self.streams.setdefault(
                probe.stream_id, StreamStats(probe.stream_id)
            )
            stats.record_rx(probe.seq_no)
            # Tap-local arrival time: injection timestamp plus the cycles
            # the packet spent traversing the pipeline to this tap.
            arrival = snapshot.metadata.get(
                "ingress_global_timestamp", 0
            ) + snapshot.metadata.get("_cycles_elapsed", 0)
            self.latency.record(max(0, arrival - probe.timestamp))

        for rule in self._rules:
            if not rule.applies(snapshot):
                continue
            outcome = self._outcomes[rule.name]
            outcome.checked += 1
            ok, detail = rule.check(snapshot)
            if ok:
                outcome.passed += 1
            else:
                outcome.failed += 1
                if not outcome.first_failure:
                    outcome.first_failure = detail
                self.findings.append(
                    Finding(
                        "check_failed",
                        f"{rule.name}: {detail}",
                        stage=self.tap,
                        stream_id=probe.stream_id if probe else None,
                    )
                )

        self._match_expectation(snapshot)

    def _match_expectation(self, snapshot: PacketSnapshot) -> None:
        if self._armed is not None:
            expectation = self._armed
            self._armed_consumed = True
        elif self._next_expectation < len(self._expectations):
            expectation = self._expectations[self._next_expectation]
            self._next_expectation += 1
        else:
            return
        if not snapshot.alive:
            if not expectation.forbid:
                self.findings.append(
                    Finding(
                        "missing_output",
                        f"{expectation.label or 'expectation'}: packet died "
                        f"before tap {self.tap!r}",
                        stage=self.tap,
                    )
                )
            return
        if expectation.forbid:
            self.findings.append(
                Finding(
                    "unexpected_output",
                    f"{expectation.label or 'forbidden packet'} reached tap "
                    f"{self.tap!r} but should have been dropped",
                    stage=self.tap,
                )
            )
            return
        ok, detail = expectation.matches(snapshot)
        if not ok:
            self.findings.append(
                Finding("output_mismatch", detail, stage=self.tap)
            )

    # ------------------------------------------------------------------
    # Result collection
    # ------------------------------------------------------------------
    def outcomes(self) -> list[CheckOutcome]:
        return list(self._outcomes.values())

    def finalize(self, sent_per_stream: dict[int, int] | None = None) -> None:
        """Close the books: loss accounting and dangling expectations."""
        if sent_per_stream:
            for stream_id, sent in sent_per_stream.items():
                stats = self.streams.setdefault(
                    stream_id, StreamStats(stream_id)
                )
                stats.sent = sent
        for stats in self.streams.values():
            stats.finalize()
            if stats.lost:
                self.findings.append(
                    Finding(
                        "sequence_loss",
                        f"stream {stats.stream_id} lost {stats.lost} of "
                        f"{stats.sent} packets",
                        stage=self.tap,
                        stream_id=stats.stream_id,
                    )
                )
        for index in range(self._next_expectation, len(self._expectations)):
            expectation = self._expectations[index]
            if not expectation.forbid:
                self.findings.append(
                    Finding(
                        "missing_output",
                        f"{expectation.label or f'expectation {index}'} was "
                        "never observed",
                        stage=self.tap,
                    )
                )
