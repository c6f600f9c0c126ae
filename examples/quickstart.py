#!/usr/bin/env python3
"""Quickstart: validate an IPv4 router with NetDebug in ~40 lines.

Builds a router program from the stdlib, loads it onto a simulated
device, installs a route through the control plane, and runs a NetDebug
validation session whose expected outputs come from the spec-faithful
reference oracle. Everything passes — this is the happy path.

Run:  python examples/quickstart.py
"""

from repro.netdebug import (
    NetDebugController,
    StatelessOracle,
    StreamSpec,
    ValidationSession,
)
from repro.p4.stdlib import ipv4_router
from repro.packet import ipv4, mac
from repro.sim.traffic import FlowSpec, udp_stream
from repro.target import make_reference_device


def main() -> None:
    # 1. A data-plane program (P4-like IR from the stdlib).
    program = ipv4_router()

    # 2. A simulated device; loading compiles the program for the target.
    device = make_reference_device("router0")
    compiled = device.load(program)
    print(f"loaded {program.name!r} on {device.name}: "
          f"{compiled.resources.luts} LUTs, "
          f"{compiled.utilization['luts']:.1%} of the device")

    # 3. Control plane: one route, 10.0.0.0/8 -> port 2.
    device.control_plane.table_add(
        "ipv4_lpm",
        "route",
        [(ipv4("10.0.0.0"), 8)],
        [mac("aa:bb:cc:dd:ee:01"), 2],
    )

    # 4. A NetDebug validation session: 20 test packets toward the
    #    routed prefix, checked against the reference oracle.
    flow = FlowSpec(
        src_ip=ipv4("192.168.1.1"),
        dst_ip=ipv4("10.55.0.1"),
        src_port=1234,
        dst_port=5678,
    )
    session = ValidationSession(
        name="router-smoke-test",
        streams=[
            StreamSpec(
                stream_id=1,
                packets=list(udp_stream(flow, 20, size=128)),
            )
        ],
        oracle_factory=StatelessOracle,
    )

    # 5. The host-side software tool runs it over the dedicated interface.
    controller = NetDebugController(device)
    report = controller.run(session)
    print()
    print(report.summary())
    assert report.passed, "the reference target must validate cleanly"
    print("\nquickstart OK — the data plane behaves exactly per spec")


if __name__ == "__main__":
    main()
