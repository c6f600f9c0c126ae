"""Software formal verification baseline (p4v-like).

Verifies properties of a P4 program **at the specification level**: it
explores the program's parser and table structure symbolically (value-set
domain, :mod:`repro.baselines.symbolic`), derives one concrete *witness
candidate* per behaviour class (parser path × table-entry choice), and
checks every property on the spec-faithful reference interpreter for each
candidate. Violations always carry a concrete counterexample packet.

Like the tool it models, the verifier's soundness boundary is the
specification itself: it never executes the *compiled target*, so a
backend that deviates from the spec — SDNet's unimplemented ``reject``
state — is invisible here. The paper's §4 case study hinges on exactly
this blind spot, and the comparison experiments use
:attr:`VerificationReport.analysis_level` to make it explicit.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import Callable

from ..exceptions import P4RuntimeError
from ..p4.interpreter import Interpreter, PipelineResult, Verdict
from ..p4.program import P4Program
from .paths import (
    MAX_CANDIDATES,
    MAX_PARSER_PATHS,
    ParserPath,
    PathEnumerator,
)
from .symbolic import SymbolicState

__all__ = [
    "Property",
    "Violation",
    "VerificationReport",
    "ParserPath",
    "SymbolicVerifier",
    "MAX_PARSER_PATHS",
    "MAX_CANDIDATES",
    "prop_no_invalid_header_access",
    "prop_forwarded",
    "prop_rejected_never_forwarded",
    "equivalence_check",
]


@dataclass(frozen=True)
class Property:
    """A property checked on every candidate behaviour.

    ``check(wire, result)`` returns True when the behaviour satisfies the
    property. ``result`` is the spec-level pipeline result for ``wire``.
    """

    name: str
    check: Callable[[bytes, PipelineResult], bool]
    description: str = ""


@dataclass(frozen=True)
class Violation:
    """A property violation with a concrete witness packet."""

    property_name: str
    witness: bytes
    detail: str


@dataclass
class VerificationReport:
    """Everything one verification run produced."""

    program: str
    properties: list[str]
    violations: list[Violation] = field(default_factory=list)
    parser_paths: int = 0
    candidates: int = 0
    #: Constant reminder of what this tool can see. Always ``"spec"``:
    #: the verifier analyses the program, never the compiled artifact.
    analysis_level: str = "spec"

    @property
    def passed(self) -> bool:
        return not self.violations

    def violations_of(self, property_name: str) -> list[Violation]:
        return [
            v for v in self.violations if v.property_name == property_name
        ]

    def summary(self) -> str:
        lines = [
            f"formal verification of {self.program!r} "
            f"[{self.analysis_level}-level]",
            f"  parser paths: {self.parser_paths}, candidates: "
            f"{self.candidates}",
            f"  verdict: {'PASS' if self.passed else 'FAIL'}",
        ]
        for violation in self.violations:
            lines.append(
                f"  violated {violation.property_name!r}: {violation.detail}"
            )
        return "\n".join(lines)


# ----------------------------------------------------------------------
# Property constructors
# ----------------------------------------------------------------------
def prop_no_invalid_header_access() -> Property:
    """The classic p4v property: no read/write of an invalid header.

    Violations surface as interpreter runtime errors; the verifier turns
    those into violations of this property automatically, so the check
    function itself always passes.
    """
    return Property(
        "no-invalid-header-access",
        lambda wire, result: True,
        "no path reads or writes a header that was not extracted",
    )


def prop_forwarded(
    name: str,
    predicate: Callable[[PipelineResult], bool],
    description: str = "",
) -> Property:
    """Forwarded packets must satisfy ``predicate`` on the final state."""

    def check(wire: bytes, result: PipelineResult) -> bool:
        if result.verdict is not Verdict.FORWARDED:
            return True
        return predicate(result)

    return Property(name, check, description)


def prop_rejected_never_forwarded() -> Property:
    """Parser-rejectable inputs never leave the device.

    On the specification this is true *by construction* — the spec
    semantics drop rejected packets — which is precisely why a formal
    tool passes programs whose hardware violates it.
    """

    def check(wire: bytes, result: PipelineResult) -> bool:
        return result.verdict is not Verdict.FORWARDED or (
            result.metadata.get("parser_error", 0) == 0
        )

    return Property(
        "rejected-never-forwarded",
        check,
        "packets that reach the reject state are dropped",
    )


# ----------------------------------------------------------------------
# Parser path enumeration — the walker itself lives in
# :mod:`repro.baselines.paths` (shared with the coverage generator);
# the verifier holds a spec-model enumerator and delegates.
# ----------------------------------------------------------------------
class SymbolicVerifier:
    """Spec-level property verifier for one program."""

    def __init__(self, program: P4Program, seed: int = 0):
        self.program = program
        self._rng = random.Random(seed)
        self._enumerator = PathEnumerator(program)

    # -- parser -----------------------------------------------------------
    def parser_paths(self) -> list[ParserPath]:
        """All bounded paths through the parser with their constraints."""
        return self._enumerator.parser_paths()

    # -- candidate construction --------------------------------------------
    def build_packet(self, path: ParserPath, sym: SymbolicState) -> bytes:
        """Materialize a concrete packet following ``path``."""
        return self._enumerator.build_packet(path, sym)

    def candidates(self) -> list[bytes]:
        """Concrete witness packets covering behaviour classes."""
        return self._enumerator.candidates()

    # -- main entry ----------------------------------------------------------
    def verify(self, properties: list[Property]) -> VerificationReport:
        """Check every property against every candidate behaviour."""
        report = VerificationReport(
            program=self.program.name,
            properties=[p.name for p in properties],
        )
        paths = self.parser_paths()
        report.parser_paths = len(paths)
        candidates = self.candidates()
        report.candidates = len(candidates)

        has_header_access_prop = any(
            p.name == "no-invalid-header-access" for p in properties
        )
        for wire in candidates:
            interp = Interpreter(self.program)
            try:
                result = interp.process(wire)
            except P4RuntimeError as exc:
                if has_header_access_prop:
                    report.violations.append(
                        Violation(
                            "no-invalid-header-access", wire, str(exc)
                        )
                    )
                continue
            for prop in properties:
                if prop.name == "no-invalid-header-access":
                    continue
                if not prop.check(wire, result):
                    report.violations.append(
                        Violation(
                            prop.name,
                            wire,
                            f"verdict={result.verdict.value} "
                            f"egress={result.metadata.get('egress_spec')}",
                        )
                    )
        return report


def equivalence_check(
    program_a: P4Program, program_b: P4Program, seed: int = 0
) -> list[tuple[bytes, str]]:
    """Spec-level differential check of two programs.

    Runs both specifications on the union of both candidate sets and
    returns ``(witness, explanation)`` for every behavioural difference.
    This is the formal tool's contribution to the *comparison* use case —
    note it compares specifications, not implementations.
    """
    candidates = (
        SymbolicVerifier(program_a, seed).candidates()
        + SymbolicVerifier(program_b, seed).candidates()
    )
    differences: list[tuple[bytes, str]] = []
    seen: set[bytes] = set()
    for wire in candidates:
        if wire in seen:
            continue
        seen.add(wire)
        results = []
        for program in (program_a, program_b):
            interp = Interpreter(program)
            try:
                result = interp.process(wire)
                results.append(
                    (
                        result.verdict.value,
                        result.metadata.get("egress_spec"),
                        result.packet.pack() if result.packet else b"",
                    )
                )
            except P4RuntimeError as exc:
                results.append(("runtime-error", None, str(exc).encode()))
        if results[0] != results[1]:
            differences.append(
                (
                    wire,
                    f"{program_a.name}: {results[0][0]} -> port "
                    f"{results[0][1]}; {program_b.name}: {results[1][0]} "
                    f"-> port {results[1][1]}",
                )
            )
    return differences
