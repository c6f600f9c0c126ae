"""The staged pipeline: per-stage execution, tap points, fault hooks.

A :class:`StagedPipeline` decomposes a compiled program into hardware
pipeline stages::

    input -> parser -> ingress.0 .. ingress.N -> egress.0 .. -> deparser -> output

``input`` and ``output`` are pure tap points; every other stage carries
semantics. Between stages the pipeline applies injected faults
(:mod:`repro.target.faults`) and publishes :class:`PacketSnapshot`\\ s to
attached taps — this is NetDebug's internal visibility: checkers and
localization observe *between* stages, so execution itself needs no
tracing.

Each stage runs the closures :mod:`repro.target.fastpath` compiled for
the artifact; stuck tables and frozen counters reach them through the
per-packet :class:`~repro.target.fastpath.ExecState`. The spec the
closures are checked against is the tree-walking
:class:`~repro.p4.interpreter.Interpreter`, which no device runs.

Packets may be injected at any stage (``inject_at``), which is how
NetDebug's generator bypasses the external ports and how active fault
bisection brackets a broken stage.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..exceptions import TargetError
from ..p4.interpreter import (
    ExitPipeline,
    PipelineResult,
    RuntimeState,
    Trace,
    Verdict,
)
from ..packet.packet import Packet
from ..p4.types import standard_metadata_defaults
from .compiler import CompiledProgram
from .fastpath import ExecState
from .faults import FaultInjector, FaultKind
from .limits import ArchLimits

__all__ = [
    "TAP_INPUT",
    "TAP_OUTPUT",
    "PacketSnapshot",
    "TargetRun",
    "StagedPipeline",
]

TAP_INPUT = "input"
TAP_OUTPUT = "output"

#: Stage descriptor kinds.
_KIND_INPUT = 0
_KIND_PARSER = 1
_KIND_STMT = 2
_KIND_DEPARSER = 3
_KIND_OUTPUT = 4

_EMPTY_SET: frozenset = frozenset()


@dataclass
class PacketSnapshot:
    """What a tap sees as a packet passes its stage.

    ``metadata`` is the live metadata mapping (including the tap-local
    ``_cycles_elapsed`` counter); ``alive`` is False when the packet
    died in this stage, with ``verdict_hint`` naming why
    (``parser_reject``, ``drop``, ``blackhole``).
    """

    stage: str
    wire: bytes | None
    packet: Packet | None
    metadata: dict
    alive: bool
    verdict_hint: str = ""


@dataclass
class TargetRun:
    """Everything one pipeline traversal produced."""

    result: PipelineResult
    stages_traversed: list[str]
    died_at: str | None
    latency_cycles: int
    injected_at: str = TAP_INPUT
    #: Serialized output, cached when an output tap already packed it.
    output_wire: bytes | None = None


class StagedPipeline:
    """Executes one compiled program as a tapped, faultable pipeline."""

    def __init__(
        self,
        compiled: CompiledProgram,
        limits: ArchLimits,
        state: RuntimeState | None = None,
        injector: FaultInjector | None = None,
    ):
        self.compiled = compiled
        self.program = compiled.program
        self.limits = limits
        self.state = state or RuntimeState.for_program(self.program)
        self.injector = injector
        self._fast = compiled.fast

        # Stage topology: (name, kind, fast_fn, cost, barrier). ``cost``
        # is the fixed cycle cost, or None for the frame-size-dependent
        # parser/deparser stages (resolved once per packet). ``barrier``
        # marks the points where a set drop flag discards the packet —
        # entering egress and entering the deparser — mirroring the
        # interpreter, which always runs a control to completion and
        # only then honors ``drop`` (a later statement may clear it, and
        # post-drop statements still update counters/registers).
        stages: list[tuple] = [(TAP_INPUT, _KIND_INPUT, None, 1, False)]
        stages.append(("parser", _KIND_PARSER, None, None, False))
        for control, fast_stages in (
            (self.program.ingress, self._fast.ingress_stages),
            (self.program.egress, self._fast.egress_stages),
        ):
            for index, fast_fn in enumerate(fast_stages):
                stages.append(
                    (f"{control.name}.{index}", _KIND_STMT, fast_fn, 12,
                     control.name == "egress" and index == 0)
                )
        stages.append(("deparser", _KIND_DEPARSER, None, None, True))
        stages.append((TAP_OUTPUT, _KIND_OUTPUT, None, 1, False))
        self._stages = stages
        self._stage_names = [s[0] for s in stages]
        self._stage_index = {
            name: index for index, name in enumerate(self._stage_names)
        }
        self._parser_index = self._stage_index["parser"]
        self._taps: dict[str, list] = {name: [] for name in self._stage_names}

        # Per-packet metadata template: standard + program metadata, all
        # zero, copied per packet instead of rebuilt key by key.
        template = standard_metadata_defaults()
        for name in self.program.env.metadata:
            template.setdefault(name, 0)
        self._metadata_template = template

    # ------------------------------------------------------------------
    # Topology and management
    # ------------------------------------------------------------------
    def stage_names(self) -> list[str]:
        """All stage/tap names, in traversal order."""
        return list(self._stage_names)

    def attach_tap(self, stage: str, callback) -> None:
        """Attach ``callback`` to observe snapshots at ``stage``."""
        try:
            self._taps[stage].append(callback)
        except KeyError:
            raise TargetError(f"no tap point {stage!r}") from None

    def detach_tap(self, stage: str, callback) -> None:
        try:
            callbacks = self._taps[stage]
        except KeyError:
            raise TargetError(f"no tap point {stage!r}") from None
        try:
            callbacks.remove(callback)
        except ValueError:
            raise TargetError(
                f"callback is not attached at tap {stage!r}"
            ) from None

    def has_taps(self) -> bool:
        """True when any tap is attached anywhere (the batch kernel
        cannot publish snapshots, so the device falls back to the
        per-packet path while observers are present)."""
        return any(self._taps.values())

    def stage_cycles(self, stage: str, frame_bytes: int) -> int:
        """Deterministic cycle cost of one stage for one frame."""
        if stage in (TAP_INPUT, TAP_OUTPUT):
            return 1
        if stage in ("parser", "deparser"):
            words = -(-max(1, frame_bytes) // self.limits.bus_bytes)
            return 4 + words
        return 12  # one match-action stage

    # ------------------------------------------------------------------
    # Execution
    # ------------------------------------------------------------------
    def process(
        self,
        wire: bytes,
        inject_at: str = TAP_INPUT,
        ingress_port: int = 0,
        timestamp: int = 0,
    ) -> TargetRun:
        """Run one frame through the pipeline starting at ``inject_at``.

        The frame is always parsed (a mid-pipeline injection still needs
        the parsed representation, and a spec-honoring target still
        rejects malformed input); stages upstream of the injection
        point are *not* traversed, so their faults and taps never see
        the packet.
        """
        try:
            start = self._stage_index[inject_at]
        except KeyError:
            raise TargetError(
                f"unknown injection point {inject_at!r}"
            ) from None

        metadata = dict(self._metadata_template)
        metadata["ingress_port"] = ingress_port
        metadata["packet_length"] = len(wire) & 0xFFFF
        metadata["ingress_global_timestamp"] = timestamp & 0xFFFFFFFFFFFF

        fast = self._fast
        trace = Trace()
        packet, payload, accepted = fast.parse(wire, metadata)
        if accepted:
            packet.payload = payload

        # Malformed frame injected downstream of the parser stage: the
        # parsed representation does not exist, so the run ends as a
        # parser rejection without traversing anything.
        if not accepted and start > self._parser_index:
            return TargetRun(
                PipelineResult(Verdict.PARSER_REJECTED, None, metadata, trace),
                [],
                "parser",
                self.stage_cycles("parser", len(wire)),
                inject_at,
            )

        injector = self.injector
        if injector is not None and injector._active:
            faulty = True
            stuck = injector.stuck_tables()
            frozen = injector.frozen_counters()
        else:
            faulty = False
            stuck = frozen = _EMPTY_SET
        exec_state = ExecState(
            packet, metadata, self.state.counters,
            self.state.registers, stuck, frozen,
        )

        taps = self._taps
        frame_bytes = len(wire)
        # Parser/deparser cost for this frame, resolved once.
        word_cost = self.stage_cycles("parser", frame_bytes)
        cycles = 0
        traversed: list[str] = []
        alive = True
        hint = ""
        verdict: Verdict | None = None
        died_at: str | None = None
        out_packet: Packet | None = None
        output_wire: bytes | None = None
        exited = False

        drop_stage: str | None = None
        for index in range(start, len(self._stages)):
            name, kind, fast_fn, cost, barrier = self._stages[index]

            # Drop barrier: a packet whose drop flag survived the
            # preceding control block is discarded here, before this
            # stage would run — the interpreter's "skip egress, don't
            # deparse" semantics.
            if barrier and alive and metadata["drop"]:
                alive = False
                hint = "drop"
                verdict = Verdict.DROPPED
                died_at = drop_stage or (traversed[-1] if traversed else name)
                break

            traversed.append(name)
            cycles += word_cost if cost is None else cost

            if kind == _KIND_STMT:
                if alive and not exited:
                    try:
                        if fast_fn is not None:
                            fast_fn(exec_state)
                    except ExitPipeline:
                        exited = True
                    # Track where the (still-set) drop flag originated;
                    # a later statement may clear it again.
                    if metadata["drop"]:
                        if drop_stage is None:
                            drop_stage = name
                    else:
                        drop_stage = None
            elif kind == _KIND_PARSER:
                if not accepted:
                    alive = False
                    hint = "parser_reject"
                    verdict = Verdict.PARSER_REJECTED
            elif kind == _KIND_DEPARSER:
                if alive:
                    out_packet = fast.deparse(packet)
                    metadata["egress_port"] = metadata["egress_spec"]
            elif kind == _KIND_OUTPUT:
                if alive and out_packet is None:
                    # Injected past the deparser: still serialize.
                    out_packet = fast.deparse(packet)
                    metadata["egress_port"] = metadata["egress_spec"]

            if faulty:
                for fault in injector.faults_at(name):
                    fault_kind = fault.kind
                    subject = out_packet if out_packet is not None else packet
                    if fault_kind is FaultKind.BLACKHOLE:
                        if alive and (
                            fault.predicate is None
                            or fault.predicate(subject)
                        ):
                            alive = False
                            hint = "blackhole"
                            verdict = Verdict.DROPPED
                    elif fault_kind is FaultKind.CORRUPT_FIELD:
                        _corrupt_field(subject, fault)
                        if subject is not packet:
                            _corrupt_field(packet, fault)
                    elif fault_kind is FaultKind.MISROUTE:
                        if fault.port is not None:
                            metadata["egress_spec"] = fault.port & 0x1FF
                            metadata["egress_port"] = metadata["egress_spec"]
                    elif fault_kind is FaultKind.TRUNCATE_PAYLOAD:
                        if fault.length is not None:
                            subject.payload = subject.payload[:fault.length]
                            if subject is not packet:
                                packet.payload = packet.payload[:fault.length]
                    elif fault_kind is FaultKind.EXTRA_LATENCY:
                        cycles += fault.extra_cycles
                    # TABLE_STUCK_MISS / COUNTER_FREEZE act during stage
                    # execution via the stuck/frozen sets.

            callbacks = taps[name]
            if callbacks:
                metadata["_cycles_elapsed"] = cycles
                # A drop-marked packet is still in flight (a later
                # statement may clear the flag), but taps report it as
                # dead-in-this-stage so passive localization points at
                # the stage that commanded the drop.
                if alive and metadata["drop"]:
                    snapshot_alive = False
                    snapshot_hint = "drop"
                else:
                    snapshot_alive = alive
                    snapshot_hint = hint
                if kind == _KIND_OUTPUT:
                    if out_packet is not None and alive:
                        output_wire = out_packet.pack()
                    snapshot = PacketSnapshot(
                        name, output_wire, out_packet, metadata,
                        snapshot_alive, snapshot_hint,
                    )
                else:
                    snapshot = PacketSnapshot(
                        name, wire, packet, metadata,
                        snapshot_alive, snapshot_hint,
                    )
                for callback in list(callbacks):
                    callback(snapshot)

            if not alive:
                died_at = name
                break

        if verdict is None:
            verdict = Verdict.FORWARDED
            if out_packet is None:
                out_packet = fast.deparse(packet)
                metadata["egress_port"] = metadata["egress_spec"]
            result_packet = out_packet
        else:
            result_packet = None

        result = PipelineResult(verdict, result_packet, metadata, trace)
        return TargetRun(
            result, traversed, died_at, cycles, inject_at, output_wire
        )


def _corrupt_field(target: Packet, fault) -> None:
    """Apply a CORRUPT_FIELD fault to ``target`` (no-op when absent)."""
    if fault.header is None or fault.field is None:
        return
    header = target.get_or_none(fault.header)
    if header is None or not header.valid:
        return
    if not header.spec.has_field(fault.field):
        return
    width = header.spec.field(fault.field).width
    header._values[fault.field] = (
        header._values[fault.field] ^ fault.mask
    ) & ((1 << width) - 1)
