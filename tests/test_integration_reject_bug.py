"""End-to-end reproduction of the paper's §4 case study.

"Using NetDebug, we discovered that the reject parser state ... is not
implemented by SDNet. This meant that any packet coming into the data
plane was sent out to the next hop, even if it was supposed to be
dropped. Our framework immediately detected this severe bug, that would
not be noticed by applying software formal verification to the data
plane program."

This test tells that exact story, step by step.
"""

import pytest

from repro.baselines.external_tester import ExternalTester
from repro.baselines.formal import (
    SymbolicVerifier,
    prop_rejected_never_forwarded,
)
from repro.netdebug.controller import NetDebugController
from repro.netdebug.generator import StreamSpec
from repro.netdebug.oracle import StatelessOracle
from repro.netdebug.session import ValidationSession
from repro.p4.interpreter import Verdict
from repro.p4.stdlib import strict_parser
from repro.sim.traffic import default_flow, malformed_mix
from repro.target.reference import make_reference_device
from repro.target.sdnet import (
    REJECT_NOT_IMPLEMENTED,
    make_sdnet_device,
)

SEED = 2018
COUNT = 60


@pytest.fixture(scope="module")
def workload():
    return list(malformed_mix(default_flow(), COUNT, 0.5, seed=SEED))


@pytest.fixture(scope="module")
def sume(workload):
    device = make_sdnet_device("sume0")
    device.load(strict_parser())
    return device


class TestStep1_FormalVerificationPassesTheSpec:
    def test_verifier_proves_spec_correct(self):
        report = SymbolicVerifier(strict_parser()).verify(
            [prop_rejected_never_forwarded()]
        )
        assert report.passed
        assert report.analysis_level == "spec"

    def test_compiler_output_is_clean(self, sume):
        """The toolchain reports nothing about the missing reject state."""
        assert sume.compiled.diagnostics == [] or all(
            "reject" not in str(d).lower()
            for d in sume.compiled.diagnostics
        )


class TestStep2_NetDebugDetectsImmediately:
    def test_every_malformed_packet_flagged(self, sume, workload):
        controller = NetDebugController(sume)
        report = controller.run(
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
        malformed_count = sum(1 for _, bad in workload if bad)
        leaks = report.findings_of("unexpected_output")
        assert len(leaks) == malformed_count
        assert not report.passed

    def test_detection_matches_ground_truth(self, sume):
        assert REJECT_NOT_IMPLEMENTED in sume.compiled.silent_deviations

    def test_leaked_packets_really_left_the_device(self, workload):
        """Cross-check with raw device behaviour: rejects are forwarded."""
        device = make_sdnet_device("sume-raw")
        device.load(strict_parser())
        for packet, malformed in workload:
            outputs = device.process(packet.pack(), 0)
            if malformed:
                assert outputs, "packet supposed to be dropped was... dropped?"
                assert outputs[0][0] == 1  # sent to the next hop
            else:
                assert outputs


class TestStep3_SpecCompliantTargetIsClean:
    def test_reference_device_drops_all_malformed(self, workload):
        device = make_reference_device("ref0")
        device.load(strict_parser())
        controller = NetDebugController(device)
        report = controller.run(
            ValidationSession(
                name="reject-audit-ref",
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
        assert report.passed

    def test_interpreter_verdicts_differ_only_on_malformed(self, workload):
        from repro.p4.interpreter import Interpreter

        program = strict_parser()
        for packet, malformed in workload:
            faithful = Interpreter(program, honor_reject=True).process(
                packet.pack()
            )
            deviant = Interpreter(program, honor_reject=False).process(
                packet.pack()
            )
            if malformed:
                assert faithful.verdict is Verdict.PARSER_REJECTED
                assert deviant.verdict is Verdict.FORWARDED
            else:
                assert faithful.verdict is deviant.verdict is (
                    Verdict.FORWARDED
                )


class TestStep4_WhyTheBaselinesMissOrUnderperform:
    def test_formal_verifier_cannot_see_the_target(self):
        """Verifying the program harder would never find this bug."""
        report = SymbolicVerifier(strict_parser(), seed=99).verify(
            [prop_rejected_never_forwarded()]
        )
        assert report.passed  # still passes: the SPEC is correct

    def test_external_tester_sees_symptom_not_cause(self, workload):
        device = make_sdnet_device("sume-ext")
        device.load(strict_parser())
        tester = ExternalTester(device)
        vectors = [
            (p.pack(), 0, None if bad else p.pack(), None if bad else 1)
            for p, bad in workload
        ]
        report = tester.run_vectors(vectors)
        assert report.unexpected > 0  # symptom observed
        # But nothing in the external view names the parser or compiler:
        assert all("reject" not in d for d in report.details)
        assert all("parser" not in d for d in report.details)
