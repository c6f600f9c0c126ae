"""EXP-REJECT — the §4 case study: SDNet's missing ``reject`` state.

Paper: "any packet coming into the data plane was sent out to the next
hop, even if it was supposed to be dropped. Our framework immediately
detected this severe bug, that would not be noticed by applying software
formal verification to the data plane program."

Reproduced shape: NetDebug flags 100% of the parser-rejectable packets on
the SDNet-like target; the formal verifier passes the program; the
spec-compliant reference target leaks nothing.
"""

from conftest import emit

from repro.baselines.formal import (
    SymbolicVerifier,
    prop_rejected_never_forwarded,
)
from repro.netdebug.controller import NetDebugController
from repro.netdebug.generator import StreamSpec
from repro.netdebug.oracle import StatelessOracle
from repro.netdebug.session import ValidationSession
from repro.p4.stdlib import strict_parser
from repro.sim.traffic import default_flow, malformed_mix
from repro.target.reference import make_reference_device
from repro.target.sdnet import REJECT_NOT_IMPLEMENTED, make_sdnet_device

COUNT = 120
SEED = 2018


def _audit(device, workload):
    controller = NetDebugController(device)
    return controller.run(
        ValidationSession(
            name="reject-audit",
            streams=[
                StreamSpec(
                    stream_id=1,
                    packets=[p for p, _ in workload],
                    fix_checksums=False,
                )
            ],
            oracle_factory=StatelessOracle,
        )
    )


def test_reject_bug_netdebug_detection(benchmark):
    workload = list(malformed_mix(default_flow(), COUNT, 0.5, seed=SEED))
    malformed = sum(1 for _, bad in workload if bad)

    def experiment():
        device = make_sdnet_device("sume0")
        device.load(strict_parser())
        return device, _audit(device, workload)

    device, report = benchmark.pedantic(experiment, rounds=1, iterations=1)

    leaks = len(report.findings_of("unexpected_output"))
    assert leaks == malformed  # every rejectable packet detected
    assert REJECT_NOT_IMPLEMENTED in device.compiled.silent_deviations

    # The reference target must be clean under the identical audit.
    reference = make_reference_device("ref0")
    reference.load(strict_parser())
    reference_report = _audit(reference, workload)
    assert reference_report.passed

    # And the formal verifier must pass the spec (the blind spot).
    formal = SymbolicVerifier(strict_parser()).verify(
        [prop_rejected_never_forwarded()]
    )
    assert formal.passed

    emit(
        "EXP-REJECT — §4 case study (reject state not implemented)",
        [
            f"workload: {COUNT} packets, {malformed} parser-rejectable",
            f"NetDebug on SDNet-like target : {leaks}/{malformed} "
            "leaked packets detected  [paper: bug immediately detected]",
            "NetDebug on reference target  : 0 findings (clean)",
            "Formal verification (spec)    : PASS — bug invisible "
            "[paper: 'would not be noticed']",
        ],
    )
    benchmark.extra_info.update(
        {
            "malformed": malformed,
            "netdebug_detected": leaks,
            "formal_passed_spec": formal.passed,
            "reference_clean": reference_report.passed,
        }
    )
