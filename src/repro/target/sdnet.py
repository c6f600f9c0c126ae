"""The SDNet-like NetFPGA SUME target — with the paper's §4 bug.

The toolchain accepts programs that use the parser ``reject`` state,
produces a clean compile log, and then generates a datapath that simply
does not implement rejection: every packet the spec says must die in
the parser continues through the pipeline and out to the next hop. The
deviation is recorded on the compiled artifact as ground truth
(:data:`REJECT_NOT_IMPLEMENTED`) but — deliberately — never surfaces in
the user-visible diagnostics. Only differential testing against the
spec oracle exposes it, which is exactly the paper's case study.
"""

from __future__ import annotations

from ..p4.program import P4Program
from .compiler import TargetCompiler
from .device import NetworkDevice
from .limits import SDNET_LIMITS

__all__ = ["REJECT_NOT_IMPLEMENTED", "SDNetCompiler", "make_sdnet_device"]

#: Ground-truth tag for the silently missing ``reject`` state.
REJECT_NOT_IMPLEMENTED = "parser-reject-not-implemented"


class SDNetCompiler(TargetCompiler):
    """SDNet-like compiler: tighter limits, silently broken ``reject``."""

    honor_reject = False

    def __init__(self) -> None:
        super().__init__(SDNET_LIMITS)

    def deviations(self, program: P4Program) -> list[str]:
        if program.parser.can_reach_reject():
            return [REJECT_NOT_IMPLEMENTED]
        return []


def make_sdnet_device(
    name: str = "sume0",
    num_ports: int = 4,
) -> NetworkDevice:
    """An SDNet-programmed NetFPGA SUME: 4 ports, deviant datapath."""
    return NetworkDevice(
        name,
        SDNetCompiler(),
        num_ports=num_ports,
    )
