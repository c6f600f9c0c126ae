"""Hardware fault injection for the simulated targets.

Faults model the below-the-program failure modes NetDebug exists to
find: packets vanishing mid-pipeline, fields flipping, traffic emerging
on the wrong port, tables that stop matching, counters that stop
counting, and stages that silently slow down. Faults attach to a
pipeline *stage* (see :meth:`repro.target.device.NetworkDevice.stage_names`)
and are applied by the batch kernel's hooked schedule
(:mod:`repro.target.batch`) as packets traverse that stage —
invisible to the program and, crucially, to any spec-level analysis.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum
from typing import Callable

from ..exceptions import TargetError
from ..packet.packet import Packet

__all__ = ["FaultKind", "Fault", "FaultInjector"]


class FaultKind(str, Enum):
    """The supported hardware fault classes."""

    #: Packets traversing the stage are silently eaten.
    BLACKHOLE = "blackhole"
    #: XOR a header field with ``mask`` as the packet passes the stage.
    CORRUPT_FIELD = "corrupt_field"
    #: Override the egress decision with ``port``.
    MISROUTE = "misroute"
    #: Truncate the payload to ``length`` bytes.
    TRUNCATE_PAYLOAD = "truncate_payload"
    #: Lookups on ``table`` are stuck at miss (default action fires).
    TABLE_STUCK_MISS = "table_stuck_miss"
    #: The named counter silently stops incrementing.
    COUNTER_FREEZE = "counter_freeze"
    #: The stage takes ``extra_cycles`` longer, functionally invisible.
    EXTRA_LATENCY = "extra_latency"


@dataclass
class Fault:
    """One injected hardware fault.

    ``predicate`` (when given) limits the fault to packets it returns
    True for; it receives the parsed :class:`~repro.packet.packet.Packet`
    at the fault's stage.
    """

    kind: FaultKind
    stage: str = ""
    predicate: Callable[[Packet], bool] | None = None
    header: str | None = None
    field: str | None = None
    mask: int = 0
    port: int | None = None
    length: int | None = None
    table: str | None = None
    counter: str | None = None
    extra_cycles: int = 0


class FaultInjector:
    """Holds the active fault set for one device."""

    def __init__(self) -> None:
        self._active: list[Fault] = []

    @property
    def active(self) -> list[Fault]:
        return list(self._active)

    def inject(self, fault: Fault) -> Fault:
        """Activate ``fault``; returns it for later removal."""
        self._active.append(fault)
        return fault

    def remove(self, fault: Fault) -> None:
        """Deactivate a previously injected fault (matched by identity)."""
        for index, active in enumerate(self._active):
            if active is fault:
                del self._active[index]
                return
        raise TargetError("fault is not active")

    def clear(self) -> None:
        self._active.clear()

    def faults_at(self, stage: str) -> list[Fault]:
        """Active faults attached to ``stage``."""
        return [f for f in self._active if f.stage == stage]

    def stuck_tables(self) -> set[str]:
        """Names of tables with an active TABLE_STUCK_MISS fault."""
        return {
            f.table
            for f in self._active
            if f.kind is FaultKind.TABLE_STUCK_MISS and f.table
        }

    def frozen_counters(self) -> set[str]:
        """Names of counters with an active COUNTER_FREEZE fault."""
        return {
            f.counter
            for f in self._active
            if f.kind is FaultKind.COUNTER_FREEZE and f.counter
        }
