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

from .compiler import TargetCompiler
from .device import NetworkDevice
from .limits import REJECT_NOT_IMPLEMENTED, SDNET_LIMITS, SDNET_MODEL

__all__ = ["REJECT_NOT_IMPLEMENTED", "SDNetCompiler", "make_sdnet_device"]


class SDNetCompiler(TargetCompiler):
    """SDNet-like compiler: tighter limits, silently broken ``reject``."""

    model = SDNET_MODEL

    def __init__(self) -> None:
        super().__init__(SDNET_LIMITS)


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
