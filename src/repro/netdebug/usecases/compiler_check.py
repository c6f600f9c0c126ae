"""Use case: compiler check (§3).

"Finding limitations in the compiler."

Three challenges against the SDNet-like toolchain:

1. **reject-state** — the compiler accepts parsers using ``reject`` but
   the generated datapath forwards rejected packets (the §4 discovery).
   NetDebug finds it by differential testing against the spec oracle.
2. **verify-ignored** — ``verify`` statements compile but never fire,
   the same deviation through a different language construct.
3. **range-match** — RANGE table keys are refused at compile time; the
   check must surface the documented limitation.

The formal verifier never touches the compiler at all; the external
tester can observe the externally visible half of (1)/(2) but cannot
attribute it, and never sees (3).
"""

from __future__ import annotations

from ...exceptions import CompileError
from ...baselines.external_tester import ExternalTester
from ...baselines.formal import SymbolicVerifier, prop_rejected_never_forwarded
from ...p4.actions import Drop, Forward
from ...p4.dsl import ProgramBuilder
from ...p4.expr import Const, fld
from ...p4.program import P4Program
from ...p4.stdlib import strict_parser
from ...p4.table import MatchKind
from ...packet.builder import udp_packet
from ...packet.headers import ETHERNET, ETHERTYPE_IPV4, IPV4, UDP, ipv4
from ...p4.parser import ACCEPT
from ...sim.traffic import default_flow, malformed_mix
from ...target.sdnet import REJECT_NOT_IMPLEMENTED, SDNetCompiler, make_sdnet_device
from ..controller import NetDebugController
from ..generator import StreamSpec
from ..oracle import StatelessOracle
from ..session import ValidationSession
from .base import Challenge, UseCaseResult, score_suite

__all__ = ["run", "range_match_program", "verify_only_program"]


def range_match_program() -> P4Program:
    """A program using a RANGE key — unsupported by the SDNet target."""
    b = ProgramBuilder("range_match")
    b.header(ETHERNET)
    b.header(IPV4)
    b.header(UDP)
    b.parser_state("start", extracts=["ethernet"]).select(
        fld("ethernet", "ether_type"),
        [(ETHERTYPE_IPV4, "parse_ipv4")],
        default=ACCEPT,
    )
    b.parser_state("parse_ipv4", extracts=["ipv4"]).goto("parse_udp")
    b.parser_state("parse_udp", extracts=["udp"]).accept()
    table = b.ingress.table("port_ranges")
    table.key(fld("udp", "dst_port"), MatchKind.RANGE, "dport")
    table.action("to_cpu", [], [Forward(Const(0, 9))])
    table.action("drop_packet", [], [Drop()])
    table.default("drop_packet").size(16)
    b.ingress.apply("port_ranges")
    b.emit("ethernet", "ipv4", "udp")
    return b.build()


def verify_only_program() -> P4Program:
    """Accepts IPv4 but relies on ``verify`` alone to reject bad headers."""
    from ...p4.types import PARSER_ERROR_VERIFY_FAILED

    b = ProgramBuilder("verify_only")
    b.header(ETHERNET)
    b.header(IPV4)
    b.parser_state("start", extracts=["ethernet"]).select(
        fld("ethernet", "ether_type"),
        [(ETHERTYPE_IPV4, "parse_ipv4")],
        default=ACCEPT,
    )
    b.parser_state("parse_ipv4", extracts=["ipv4"]).verify(
        fld("ipv4", "version").eq(4),
        PARSER_ERROR_VERIFY_FAILED,
    ).accept()
    b.ingress.action("out", [], [Forward(Const(1, 9))])
    b.ingress.call("out")
    b.emit("ethernet", "ipv4")
    return b.build()


def _bad_version_packet() -> bytes:
    packet = udp_packet(
        ipv4("10.2.2.2"), ipv4("10.1.1.1"), 80, 2000, payload=b"v6?"
    )
    packet.get("ipv4")["version"] = 6
    return packet.pack()


# ----------------------------------------------------------------------
# NetDebug: differential testing against the reference oracle
# ----------------------------------------------------------------------
def _reject_state_netdebug(seed: int) -> Challenge:
    device = make_sdnet_device("cc-reject")
    device.load(strict_parser())
    packets = [p for p, _ in malformed_mix(default_flow(), 24, 0.6, seed)]
    session = ValidationSession(
        name="compiler-reject-check",
        streams=[StreamSpec(stream_id=1, packets=packets,
                            fix_checksums=False)],
        oracle_factory=StatelessOracle,
    )
    report = NetDebugController(device).run(session)
    detected = bool(report.findings_of("unexpected_output"))
    # Cross-check against the backend's ground truth.
    truth = REJECT_NOT_IMPLEMENTED in device.compiled.silent_deviations
    return Challenge(
        "reject-state",
        1.0 if detected and truth else 0.0,
        "differential test exposes the unimplemented reject state",
    )


def _verify_ignored_netdebug() -> Challenge:
    device = make_sdnet_device("cc-verify")
    device.load(verify_only_program())
    from ...packet.builder import parse_ethernet

    session = ValidationSession(
        name="compiler-verify-check",
        streams=[
            StreamSpec(
                stream_id=1,
                packets=[parse_ethernet(_bad_version_packet())],
                fix_checksums=False,
            )
        ],
        oracle_factory=StatelessOracle,
    )
    report = NetDebugController(device).run(session)
    detected = bool(report.findings_of("unexpected_output"))
    return Challenge(
        "verify-ignored",
        1.0 if detected else 0.0,
        "failed verify still forwards on the target",
    )


def _range_match_netdebug() -> Challenge:
    try:
        SDNetCompiler().compile(range_match_program())
    except CompileError as exc:
        return Challenge(
            "range-match", 1.0, f"limitation surfaced: {exc}".splitlines()[0]
        )
    return Challenge("range-match", 0.0, "compiler accepted a RANGE key")


# ----------------------------------------------------------------------
# External tester: sees symptoms at the ports, never the cause
# ----------------------------------------------------------------------
def _reject_state_external(seed: int) -> Challenge:
    device = make_sdnet_device("cc-reject-ext")
    device.load(strict_parser())
    tester = ExternalTester(device)
    vectors = []
    for packet, malformed in malformed_mix(default_flow(), 24, 0.6, seed):
        wire = packet.pack()
        vectors.append(
            (wire, 0, None, None) if malformed else (wire, 0, wire, 1)
        )
    report = tester.run_vectors(vectors)
    # Symptom observed, but no attribution to the compiler vs the
    # program vs the control plane: half credit.
    return Challenge(
        "reject-state",
        0.5 if report.unexpected else 0.0,
        "leak visible externally; cause not attributable",
    )


def _verify_ignored_external() -> Challenge:
    device = make_sdnet_device("cc-verify-ext")
    device.load(verify_only_program())
    tester = ExternalTester(device)
    report = tester.run_vectors([(_bad_version_packet(), 0, None, None)])
    return Challenge(
        "verify-ignored",
        0.5 if report.unexpected else 0.0,
        "symptom only",
    )


# ----------------------------------------------------------------------
# Entry point
# ----------------------------------------------------------------------
def run(tool: str, seed: int = 0) -> UseCaseResult:
    """Run the compiler-check suite for one tool."""
    if tool == "netdebug":
        challenges = [
            _reject_state_netdebug(seed),
            _verify_ignored_netdebug(),
            _range_match_netdebug(),
        ]
    elif tool == "formal":
        # The verifier analyses programs, not toolchains: each challenge
        # amounts to proving the *spec* correct, which it is.
        reject_spec = SymbolicVerifier(strict_parser()).verify(
            [prop_rejected_never_forwarded()]
        )
        verify_spec = SymbolicVerifier(verify_only_program()).verify(
            [prop_rejected_never_forwarded()]
        )
        challenges = [
            Challenge(
                "reject-state",
                0.0 if reject_spec.passed else 1.0,
                "spec provably drops rejects; compiler never examined",
            ),
            Challenge(
                "verify-ignored",
                0.0 if verify_spec.passed else 1.0,
                "spec provably enforces verify; compiler never examined",
            ),
            Challenge("range-match", 0.0, "no compiler interaction at all"),
        ]
    elif tool == "external":
        challenges = [
            _reject_state_external(seed),
            _verify_ignored_external(),
            Challenge("range-match", 0.0,
                      "a traffic box cannot run the compiler"),
        ]
    else:
        raise ValueError(f"unknown tool {tool!r}")
    return score_suite("compiler_check", tool, challenges)
