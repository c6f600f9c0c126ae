"""Use case: functional testing (§3).

"Finding functional bugs in the data plane and in the control plane."

Five challenges spanning the visibility spectrum:

1. **spec-bug** — an ACL whose deny action is a no-op (program logic bug).
2. **control-plane-bug** — a route installed to the wrong port.
3. **target-bug** — the SDNet-like backend forwarding parser-rejected
   packets (the §4 case study).
4. **internal-blackhole** — a hardware fault eating packets mid-pipeline;
   full credit requires *locating* it, not just noticing loss.
5. **internal-accounting** — verifying in-device counters match the
   traffic actually processed.

NetDebug handles all five; the formal verifier sees only what the
specification shows (1, 2); the external tester sees externally visible
effects (1, 2, 3) and half of 4.
"""

from __future__ import annotations

from ...baselines.external_tester import ExternalTester
from ...baselines.formal import (
    Property,
    SymbolicVerifier,
    prop_forwarded,
    prop_no_invalid_header_access,
)
from ...p4.stdlib import port_counter, strict_parser
from ...packet.headers import ipv4
from ...sim.traffic import default_flow, malformed_mix, udp_stream
from ...target.faults import Fault, FaultKind
from ...target.reference import make_reference_device
from ...target.sdnet import make_sdnet_device
from ..checker import ExpectedOutput
from ..controller import NetDebugController
from ..generator import StreamSpec
from ..localization import localize
from ..oracle import StatelessOracle
from ..session import ValidationSession
from .base import Challenge, UseCaseResult, score_suite
from .workloads import (
    allowed_packet,
    buggy_acl_program,
    denied_packet,
    install_acl_intent,
    router_with_entry,
)

__all__ = ["run"]

INTENT_ROUTE_PORT = 2
WRONG_ROUTE_PORT = 3


# ----------------------------------------------------------------------
# Challenge 1: spec bug (broken deny action)
# ----------------------------------------------------------------------
def _spec_bug_netdebug() -> Challenge:
    program = buggy_acl_program()
    install_acl_intent(program)
    device = make_reference_device("fn-spec")
    device.load(program)
    controller = NetDebugController(device)
    from ...packet.builder import parse_ethernet

    session = ValidationSession(
        name="acl-intent",
        streams=[
            StreamSpec(
                stream_id=1,
                packets=[
                    parse_ethernet(denied_packet()),
                    parse_ethernet(allowed_packet()),
                ],
                fix_checksums=False,
            )
        ],
        expectations=[
            ExpectedOutput(forbid=True, label="denied-must-drop"),
            ExpectedOutput(egress_port=1, label="allowed-to-uplink"),
        ],
    )
    report = controller.run(session)
    detected = bool(report.findings_of("unexpected_output"))
    return Challenge(
        "spec-bug", 1.0 if detected else 0.0,
        "no-op deny action leaks denied traffic",
    )


def _spec_bug_formal() -> Challenge:
    program = buggy_acl_program()
    install_acl_intent(program)
    deny_src = ipv4("10.0.0.0")

    def denied_is_dropped(result) -> bool:
        packet = result.packet
        if packet is None or not packet.has("ipv4") or not packet.has("udp"):
            return True
        matches_deny = (
            (packet.get("ipv4")["src_addr"] & 0xFF000000) == deny_src
            and packet.get("udp")["dst_port"] == 53
        )
        return not matches_deny  # forwarded packets must not match deny

    report = SymbolicVerifier(program).verify(
        [
            prop_no_invalid_header_access(),
            prop_forwarded(
                "deny-rule-enforced",
                denied_is_dropped,
                "packets matching the deny intent are never forwarded",
            ),
        ]
    )
    detected = bool(report.violations_of("deny-rule-enforced"))
    return Challenge("spec-bug", 1.0 if detected else 0.0,
                     "verifier finds counterexample on the spec")


def _spec_bug_external() -> Challenge:
    program = buggy_acl_program()
    install_acl_intent(program)
    device = make_reference_device("fn-spec-ext")
    device.load(program)
    tester = ExternalTester(device)
    report = tester.run_vectors(
        [
            (denied_packet(), 0, None, None),
            (allowed_packet(), 0, allowed_packet(), 1),
        ]
    )
    detected = report.unexpected > 0
    return Challenge("spec-bug", 1.0 if detected else 0.0,
                     "denied frame emerged at a port")


# ----------------------------------------------------------------------
# Challenge 2: control-plane bug (wrong egress port installed)
# ----------------------------------------------------------------------
def _route_packet() -> bytes:
    from ...packet.builder import udp_packet

    return udp_packet(
        ipv4("10.7.7.7"), ipv4("172.16.0.5"), 9000, 1000, payload=b"r"
    ).pack()


def _cp_bug_netdebug() -> Challenge:
    program = router_with_entry(WRONG_ROUTE_PORT)
    device = make_reference_device("fn-cp")
    device.load(program)
    from ...packet.builder import parse_ethernet

    session = ValidationSession(
        name="route-intent",
        streams=[
            StreamSpec(
                stream_id=1,
                packets=[parse_ethernet(_route_packet())],
                fix_checksums=False,
            )
        ],
        expectations=[
            ExpectedOutput(
                egress_port=INTENT_ROUTE_PORT, label="route-to-port-2"
            )
        ],
    )
    report = NetDebugController(device).run(session)
    detected = bool(report.findings_of("output_mismatch"))
    return Challenge("control-plane-bug", 1.0 if detected else 0.0,
                     "egress differs from operator intent")


def _cp_bug_formal() -> Challenge:
    program = router_with_entry(WRONG_ROUTE_PORT)

    def routed_to_intent(result) -> bool:
        packet = result.packet
        if packet is None or not packet.has("ipv4"):
            return True
        in_prefix = (packet.get("ipv4")["dst_addr"] >> 24) == 10
        if not in_prefix:
            return True
        return result.metadata.get("egress_spec") == INTENT_ROUTE_PORT

    report = SymbolicVerifier(program).verify(
        [
            prop_forwarded(
                "route-intent",
                routed_to_intent,
                "10.0.0.0/8 traffic egresses on port 2",
            )
        ]
    )
    detected = bool(report.violations_of("route-intent"))
    return Challenge("control-plane-bug", 1.0 if detected else 0.0,
                     "spec+entries violate the intent property")


def _cp_bug_external() -> Challenge:
    program = router_with_entry(WRONG_ROUTE_PORT)
    device = make_reference_device("fn-cp-ext")
    device.load(program)
    tester = ExternalTester(device)
    captured = tester.send(_route_packet(), 0)
    detected = bool(captured) and captured[0].port != INTENT_ROUTE_PORT
    return Challenge("control-plane-bug", 1.0 if detected else 0.0,
                     "frame captured on the wrong port")


# ----------------------------------------------------------------------
# Challenge 3: target bug (reject state not implemented)
# ----------------------------------------------------------------------
def _target_bug_netdebug(seed: int) -> Challenge:
    device = make_sdnet_device("fn-tgt")
    device.load(strict_parser())
    packets = [p for p, _ in malformed_mix(default_flow(), 30, 0.5, seed)]
    session = ValidationSession(
        name="reject-enforcement",
        streams=[
            StreamSpec(stream_id=1, packets=packets, fix_checksums=False)
        ],
        oracle_factory=StatelessOracle,
    )
    report = NetDebugController(device).run(session)
    detected = bool(report.findings_of("unexpected_output"))
    return Challenge("target-bug", 1.0 if detected else 0.0,
                     "parser-rejected packets observed at output tap")


def _target_bug_formal() -> Challenge:
    from ...baselines.formal import prop_rejected_never_forwarded

    report = SymbolicVerifier(strict_parser()).verify(
        [prop_rejected_never_forwarded()]
    )
    # The spec satisfies the property, so the verifier reports PASS:
    # the target bug is invisible at this analysis level.
    detected = not report.passed
    return Challenge(
        "target-bug",
        1.0 if detected else 0.0,
        "spec-level analysis cannot see the backend deviation",
    )


def _target_bug_external(seed: int) -> Challenge:
    device = make_sdnet_device("fn-tgt-ext")
    device.load(strict_parser())
    tester = ExternalTester(device)
    vectors = []
    for packet, malformed in malformed_mix(default_flow(), 30, 0.5, seed):
        wire = packet.pack()
        vectors.append(
            (wire, 0, None, None) if malformed else (wire, 0, wire, 1)
        )
    report = tester.run_vectors(vectors)
    detected = report.unexpected > 0
    return Challenge("target-bug", 1.0 if detected else 0.0,
                     "malformed frames captured at external ports")


# ----------------------------------------------------------------------
# Challenge 4: internal blackhole — detect AND locate
# ----------------------------------------------------------------------
def _blackhole_device(name: str):
    device = make_reference_device(name)
    device.load(router_with_entry(INTENT_ROUTE_PORT))
    device.injector.inject(
        Fault(FaultKind.BLACKHOLE, stage="ingress.0")
    )
    return device


def _blackhole_netdebug() -> Challenge:
    device = _blackhole_device("fn-bh")
    result = localize(device, _route_packet())
    located = result.found and result.stage == "ingress.0"
    return Challenge(
        "internal-blackhole",
        1.0 if located else (0.5 if result.found else 0.0),
        str(result),
    )


def _blackhole_formal() -> Challenge:
    # The specification has no fault in it; nothing to find.
    program = router_with_entry(INTENT_ROUTE_PORT)
    report = SymbolicVerifier(program).verify(
        [prop_no_invalid_header_access()]
    )
    return Challenge(
        "internal-blackhole",
        0.0 if report.passed else 0.0,
        "faults live below the specification",
    )


def _blackhole_external() -> Challenge:
    device = _blackhole_device("fn-bh-ext")
    tester = ExternalTester(device)
    captured = tester.send(_route_packet(), 0)
    noticed_loss = not captured
    # Detection yes, localization impossible: half credit.
    return Challenge(
        "internal-blackhole",
        0.5 if noticed_loss else 0.0,
        "loss visible externally; location is not",
    )


# ----------------------------------------------------------------------
# Challenge 5: internal accounting (counters must match traffic)
# ----------------------------------------------------------------------
def _accounting_netdebug(seed: int) -> Challenge:
    device = make_reference_device("fn-acct")
    device.load(port_counter(num_ports=8))
    controller = NetDebugController(device)
    packets = list(udp_stream(default_flow(), 25, size=128, seed=seed))
    session = ValidationSession(
        name="counter-audit",
        streams=[StreamSpec(stream_id=1, packets=packets)],
    )
    controller.run(session)
    counted = controller.device.control_plane.counter_read(
        "per_port_pkts", 0
    )
    verified = counted == len(packets)
    return Challenge(
        "internal-accounting",
        1.0 if verified else 0.0,
        f"counter={counted} expected={len(packets)}",
    )


def _accounting_unavailable(tool: str) -> Challenge:
    return Challenge(
        "internal-accounting",
        0.0,
        f"{tool} has no access to in-device counters",
    )


# ----------------------------------------------------------------------
# Entry point
# ----------------------------------------------------------------------
def run(tool: str, seed: int = 0) -> UseCaseResult:
    """Run the functional-testing suite for one tool."""
    if tool == "netdebug":
        challenges = [
            _spec_bug_netdebug(),
            _cp_bug_netdebug(),
            _target_bug_netdebug(seed),
            _blackhole_netdebug(),
            _accounting_netdebug(seed),
        ]
    elif tool == "formal":
        challenges = [
            _spec_bug_formal(),
            _cp_bug_formal(),
            _target_bug_formal(),
            _blackhole_formal(),
            _accounting_unavailable("formal verification"),
        ]
    elif tool == "external":
        challenges = [
            _spec_bug_external(),
            _cp_bug_external(),
            _target_bug_external(seed),
            _blackhole_external(),
            _accounting_unavailable("an external tester"),
        ]
    else:
        raise ValueError(f"unknown tool {tool!r}")
    return score_suite("functional", tool, challenges)
