"""The pipeline's shared vocabulary: stage names, taps, run records.

A compiled program runs as hardware pipeline stages::

    input -> parser -> ingress.0 .. ingress.N -> egress.0 .. -> deparser -> output

``input`` and ``output`` are pure tap points; every other stage carries
semantics. Between stages, injected faults (:mod:`repro.target.faults`)
act on the packet and attached taps receive :class:`PacketSnapshot`\\ s
— this is NetDebug's internal visibility: checkers and localization
observe *between* stages, so execution itself needs no tracing.

This module holds only the types the layers share: the stage names
(:func:`stage_names`), the tap snapshot, the run record
(:class:`TargetRun`) and the hooks (:class:`StageHooks`) a device hands
its artifact's batch kernel (:mod:`repro.target.batch`) to publish
snapshots, apply faults and start at an injection point. The device
(:class:`~repro.target.device.NetworkDevice`) owns the taps and builds
the hooks; the kernel runs every packet, and a packet with hooks takes
its packet-major schedule, which still visits every stage name (empty
ones included), so taps and faults may target any of them.

Packets may be injected at any stage (``inject_at``), which is how
NetDebug's generator bypasses the external ports and how active fault
bisection brackets a broken stage.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..p4.interpreter import PipelineResult
from ..p4.program import P4Program
from ..packet.packet import Packet
from .fastpath import control_stages
from .faults import FaultInjector

__all__ = [
    "TAP_INPUT",
    "TAP_OUTPUT",
    "PacketSnapshot",
    "TargetRun",
    "StageHooks",
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

