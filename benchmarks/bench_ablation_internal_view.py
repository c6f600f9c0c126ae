"""ABLATION — what each NetDebug design choice actually buys.

Two ablations of the claims behind Figure 2:

1. **Internal taps vs ports-only observation.** With internal taps a
   blackhole fault is localized to its exact stage from one injection;
   restrict NetDebug to the input/output taps (an external tester's view)
   and the best possible answer degrades to "somewhere in the device".

2. **Reference oracle vs local checks only.** The reject-state leak is
   caught 100% by oracle-based expectations (spec says drop, device
   forwarded); with only local well-formedness checks at the output tap,
   detection drops to zero — leaked packets are individually well-formed,
   their presence is the bug.
"""

from conftest import emit

from repro.netdebug.checker import ExprCheck, OutputChecker
from repro.netdebug.controller import NetDebugController
from repro.netdebug.generator import StreamSpec
from repro.netdebug.localization import localize_fault
from repro.netdebug.oracle import StatelessOracle
from repro.netdebug.session import ValidationSession
from repro.p4.expr import IsValid, fld
from repro.p4.stdlib import acl_firewall, strict_parser
from repro.packet.builder import udp_packet
from repro.packet.headers import ipv4, mac
from repro.sim.traffic import default_flow, malformed_mix
from repro.target.faults import Fault, FaultKind
from repro.target.reference import make_reference_device
from repro.target.sdnet import make_sdnet_device

FAULT_STAGE = "ingress.1"


def _faulty_device(name):
    device = make_reference_device(name)
    device.load(acl_firewall())
    device.control_plane.table_add(
        "fwd", "forward", [mac("02:00:00:00:00:02")], [2]
    )
    device.injector.inject(Fault(FaultKind.BLACKHOLE, stage=FAULT_STAGE))
    return device


WIRE = udp_packet(
    ipv4("192.168.0.9"), ipv4("172.16.0.1"), 443, 9999,
    eth_dst=mac("02:00:00:00:00:02"),
).pack()


def _ports_only_localization(device) -> tuple[bool, str]:
    """NetDebug crippled to the external view: output tap only."""
    observed = []
    device.attach_tap("output", observed.append)
    try:
        device.inject(WIRE, at="input")
    finally:
        device.detach_tap("output", observed.append)
    lost = not observed
    # Best possible conclusion without internal taps:
    return lost, "somewhere between input and output" if lost else "no fault"


def test_ablation_internal_taps(benchmark):
    def experiment():
        full = localize_fault(_faulty_device("abl-full"), WIRE)
        lost, ablated_verdict = _ports_only_localization(
            _faulty_device("abl-ports")
        )
        return full, lost, ablated_verdict

    full, lost, ablated_verdict = benchmark.pedantic(
        experiment, rounds=1, iterations=1
    )

    assert full.found and full.stage == FAULT_STAGE
    assert lost  # the crippled observer still notices loss...
    assert FAULT_STAGE not in ablated_verdict  # ...but cannot place it

    stages = len(_faulty_device("abl-count").stage_names())
    emit(
        "ABLATION 1 — internal taps vs ports-only observation",
        [
            f"with internal taps : fault at {full.stage!r} "
            f"({full.injections_used} injection)",
            f"ports-only ablation: '{ablated_verdict}' "
            f"(1 of {stages} stages — no localization)",
        ],
    )
    benchmark.extra_info.update(
        {
            "full_stage": full.stage,
            "ablated_verdict": ablated_verdict,
        }
    )


def test_ablation_reference_oracle(benchmark):
    workload = [
        p for p, _ in malformed_mix(default_flow(), 60, 0.5, seed=5)
    ]
    malformed = sum(
        1 for _, bad in malformed_mix(default_flow(), 60, 0.5, seed=5)
        if bad
    )

    def experiment():
        # Arm A: oracle-based session (the real NetDebug workflow).
        oracle_device = make_sdnet_device("abl-oracle")
        oracle_device.load(strict_parser())
        oracle_report = NetDebugController(oracle_device).run(
            ValidationSession(
                name="oracle",
                streams=[
                    StreamSpec(stream_id=1, packets=workload,
                               fix_checksums=False)
                ],
                oracle_factory=StatelessOracle,
            )
        )
        # Arm B: local well-formedness checks only, no oracle.
        local_device = make_sdnet_device("abl-local")
        local_device.load(strict_parser())
        checker = OutputChecker(local_device)
        env = local_device.program.env
        checker.add_check(
            ExprCheck("eth-present", IsValid("ethernet"), env)
        )
        checker.add_check(
            ExprCheck(
                "ipv4-ttl-positive",
                fld("ipv4", "ttl").gt(0),
                env,
                skip_missing=True,
            )
        )
        with checker:
            for packet in workload:
                local_device.inject(packet.pack())
        return oracle_report, checker

    oracle_report, checker = benchmark.pedantic(
        experiment, rounds=1, iterations=1
    )

    oracle_detected = len(oracle_report.findings_of("unexpected_output"))
    local_detected = len(checker.findings)
    assert oracle_detected == malformed  # 100%
    assert local_detected == 0           # leaks are well-formed packets

    emit(
        "ABLATION 2 — reference oracle vs local checks only",
        [
            f"workload: {len(workload)} packets, {malformed} must-drop",
            f"oracle-based session : {oracle_detected}/{malformed} "
            "leaks detected",
            f"local checks only    : {local_detected}/{malformed} — "
            "each leaked packet is individually well-formed;",
            "                       only the spec oracle knows it should "
            "not exist",
        ],
    )
    benchmark.extra_info.update(
        {
            "oracle_detected": oracle_detected,
            "local_detected": local_detected,
            "malformed": malformed,
        }
    )
