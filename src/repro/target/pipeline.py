"""The staged pipeline: topology, tap points, fault hooks, state.

A :class:`StagedPipeline` describes a compiled program as hardware
pipeline stages::

    input -> parser -> ingress.0 .. ingress.N -> egress.0 .. -> deparser -> output

``input`` and ``output`` are pure tap points; every other stage carries
semantics. Between stages, injected faults (:mod:`repro.target.faults`)
act on the packet and attached taps receive :class:`PacketSnapshot`\\ s
— this is NetDebug's internal visibility: checkers and localization
observe *between* stages, so execution itself needs no tracing.

The pipeline owns no execution loop. It holds the stage names, the
taps, the cycle model, the runtime state and the fault injector, and
:meth:`StagedPipeline.hooks` hands the batch kernel
(:mod:`repro.target.batch`) what it needs to publish snapshots, apply
faults and start at an injection point. The kernel runs every packet;
a packet with hooks takes its packet-major schedule, which still visits
every stage name (empty ones included), so taps and faults may target
any of them.

Packets may be injected at any stage (``inject_at``), which is how
NetDebug's generator bypasses the external ports and how active fault
bisection brackets a broken stage.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..exceptions import TargetError
from ..p4.interpreter import PipelineResult, RuntimeState
from ..p4.program import P4Program
from ..packet.packet import Packet
from .compiler import CompiledProgram
from .fastpath import control_stages
from .faults import FaultInjector
from .limits import ArchLimits

__all__ = [
    "TAP_INPUT",
    "TAP_OUTPUT",
    "PacketSnapshot",
    "TargetRun",
    "StageHooks",
    "StagedPipeline",
    "stage_names",
]

TAP_INPUT = "input"
TAP_OUTPUT = "output"


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


def stage_names(program: P4Program) -> list[str]:
    """Every stage/tap name of ``program``'s pipeline, in traversal
    order: one match-action stage per top-level control statement."""
    names = [TAP_INPUT, "parser"]
    for control in (program.ingress, program.egress):
        names += [
            f"{control.name}.{index}"
            for index in range(len(control_stages(control)))
        ]
    return names + ["deparser", TAP_OUTPUT]


@dataclass(frozen=True)
class StageHooks:
    """What the kernel needs to run a packet with between-stage hooks:
    the index of the stage the packet enters at, the taps by stage name
    and the fault injector (read live, packet by packet)."""

    start: int
    taps: dict[str, list]
    injector: FaultInjector | None


class StagedPipeline:
    """One compiled program's stages, taps, faults and runtime state."""

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
        self._stage_names = stage_names(self.program)
        self._stage_index = {
            name: index for index, name in enumerate(self._stage_names)
        }
        self._taps: dict[str, list] = {name: [] for name in self._stage_names}

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
        """True when any tap is attached anywhere."""
        return any(self._taps.values())

    def stage_cycles(self, stage: str, frame_bytes: int) -> int:
        """Deterministic cycle cost of one stage for one frame."""
        if stage in (TAP_INPUT, TAP_OUTPUT):
            return 1
        if stage in ("parser", "deparser"):
            words = -(-max(1, frame_bytes) // self.limits.bus_bytes)
            return 4 + words
        return 12  # one match-action stage

    def hooks(self, inject_at: str = TAP_INPUT) -> StageHooks | None:
        """The kernel hooks for packets entering at ``inject_at``, or
        ``None`` when nothing observes, perturbs or skips a stage: no
        tap attached, no fault armed, injection at ``input``."""
        try:
            start = self._stage_index[inject_at]
        except KeyError:
            raise TargetError(
                f"unknown injection point {inject_at!r}"
            ) from None
        injector = self.injector
        if (
            start == 0
            and not (injector is not None and injector._active)
            and not self.has_taps()
        ):
            return None
        return StageHooks(start, self._taps, injector)
