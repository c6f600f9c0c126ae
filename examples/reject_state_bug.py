#!/usr/bin/env python3
"""The paper's §4 case study: discovering SDNet's missing reject state.

Walks through the exact story the paper tells:

1. A program whose parser *rejects* malformed packets is proven correct
   by software formal verification — on the specification.
2. Compiled through the SDNet-like toolchain onto the simulated NetFPGA
   device, with a clean compiler log.
3. NetDebug injects a mixed workload directly into the data plane and
   checks outputs against the reference oracle: every packet that should
   have been dropped is caught leaving the device.
4. The same audit on a spec-compliant target passes, isolating the fault
   to the toolchain.

Run:  python examples/reject_state_bug.py
"""

from repro.baselines import SymbolicVerifier, prop_rejected_never_forwarded
from repro.netdebug import (
    NetDebugController,
    StatelessOracle,
    StreamSpec,
    ValidationSession,
)
from repro.p4.stdlib import strict_parser
from repro.sim.traffic import default_flow, malformed_mix
from repro.target import (
    REJECT_NOT_IMPLEMENTED,
    make_reference_device,
    make_sdnet_device,
)


def main() -> None:
    program = strict_parser()

    print("== step 1: software formal verification (p4v-style) ==")
    report = SymbolicVerifier(program).verify(
        [prop_rejected_never_forwarded()]
    )
    print(report.summary())
    assert report.passed
    print("-> the SPEC provably drops rejected packets\n")

    print("== step 2: compile for the SDNet-like NetFPGA target ==")
    sume = make_sdnet_device("sume0")
    compiled = sume.load(program)
    print(f"compiler diagnostics: {compiled.diagnostics or 'none'}")
    print("-> toolchain output is clean; nothing hints at a problem\n")

    print("== step 3: NetDebug validation on the real target ==")
    workload = list(malformed_mix(default_flow(), 40, 0.5, seed=2018))
    malformed = sum(1 for _, bad in workload if bad)
    session = ValidationSession(
        name="reject-audit",
        streams=[
            StreamSpec(
                stream_id=1,
                packets=[packet for packet, _ in workload],
                fix_checksums=False,
            )
        ],
        oracle_factory=StatelessOracle,
    )
    audit = NetDebugController(sume).run(session)
    leaks = audit.findings_of("unexpected_output")
    print(f"injected {audit.injected} packets "
          f"({malformed} must be dropped by the parser)")
    print(f"NetDebug findings: {len(leaks)} packets that should have "
          "been dropped were forwarded to the next hop")
    assert len(leaks) == malformed
    truth = REJECT_NOT_IMPLEMENTED in sume.compiled.silent_deviations
    print(f"ground truth (backend deviation list): "
          f"reject-not-implemented = {truth}\n")

    print("== step 4: the same audit on a spec-compliant target ==")
    reference = make_reference_device("ref0")
    reference.load(strict_parser())
    clean = NetDebugController(reference).run(session)
    print(f"reference target verdict: "
          f"{'PASS' if clean.passed else 'FAIL'}")
    assert clean.passed

    print("\nconclusion: the program is correct, the compiler is not —")
    print("a severe target bug that formal verification cannot see and")
    print("NetDebug detects immediately, reproducing the paper's result.")


if __name__ == "__main__":
    main()
