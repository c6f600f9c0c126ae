#!/usr/bin/env python3
"""Compiler check and architecture check use cases.

Uses NetDebug's workflow access to the toolchain plus differential
testing to characterize the SDNet-like backend:

* compiler defects — the unimplemented ``reject`` state and ignored
  ``verify`` statements (silent), and the refused RANGE match (loud);
* architecture limits — probing the real parse-depth ceiling, table
  capacity behaviour, and supported match kinds.

Run:  python examples/compiler_architecture_check.py
"""

from repro.exceptions import CompileError
from repro.netdebug import (
    NetDebugController,
    StatelessOracle,
    StreamSpec,
    ValidationSession,
)
from repro.netdebug.usecases.architecture_check import (
    probe_match_kinds,
    probe_parse_depth,
    probe_table_capacity,
)
from repro.netdebug.usecases.compiler_check import (
    range_match_program,
    verify_only_program,
)
from repro.p4.stdlib import strict_parser
from repro.sim.traffic import default_flow, malformed_mix
from repro.target import SDNetCompiler, SDNET_LIMITS, make_sdnet_device


def differential_audit(program, packets) -> int:
    """Count spec-vs-target divergences NetDebug finds for a program."""
    device = make_sdnet_device(f"chk-{program.name}")
    device.load(program)
    report = NetDebugController(device).run(
        ValidationSession(
            name=f"audit-{program.name}",
            streams=[
                StreamSpec(stream_id=1, packets=packets,
                           fix_checksums=False)
            ],
            oracle_factory=StatelessOracle,
        )
    )
    return len(report.findings_of("unexpected_output"))


def main() -> None:
    workload = [
        p for p, _ in malformed_mix(default_flow(), 30, 0.6, seed=7)
    ]

    print("== compiler check: differential spec-vs-target testing ==")
    reject_leaks = differential_audit(strict_parser(), workload)
    print(f"strict_parser : {reject_leaks} divergences "
          "-> the reject state is NOT implemented")
    verify_leaks = differential_audit(verify_only_program(), workload)
    print(f"verify_only   : {verify_leaks} divergences "
          "-> verify statements never fire")

    print("\n== compiler check: documented limitations ==")
    try:
        SDNetCompiler().compile(range_match_program())
        print("range_match   : accepted (unexpected!)")
    except CompileError as exc:
        print(f"range_match   : refused — {str(exc).splitlines()[-1].strip()}")

    print("\n== architecture check: probing the real envelope ==")
    depth = probe_parse_depth()
    print(f"parse depth   : probed {depth}, "
          f"published {SDNET_LIMITS.max_parse_depth} "
          f"[{'match' if depth == SDNET_LIMITS.max_parse_depth else 'MISMATCH'}]")
    installed, overflow_rejected = probe_table_capacity(64)
    print(f"table capacity: {installed}/64 entries installed, "
          f"overflow {'rejected' if overflow_rejected else 'ACCEPTED'}")
    kinds = probe_match_kinds()
    print("match kinds   : "
          + ", ".join(f"{kind}={'yes' if ok else 'no'}"
                      for kind, ok in sorted(kinds.items())))

    print("\nonly a tool with compiler + management access can produce")
    print("this table; a traffic box sees symptoms, a verifier nothing —")
    print("the compiler/architecture rows of Figure 2.")


if __name__ == "__main__":
    main()
