"""The base target compiler: limit checking, capacity fitting, kernel
construction.

``compile`` is what :meth:`repro.target.device.NetworkDevice.load` runs:
it validates the program, checks it against the target's published
:class:`~repro.target.limits.ArchLimits`, fits the estimated resources
into the device capacity, records any *silent deviations* the backend
introduces, and — the performance core — builds the artifact's one
batch kernel (:class:`~repro.target.batch.BatchProgram`), which lowers
the program once into one generated module (parser, deparser, actions
and control stages) so per-packet execution never walks an expression
tree.

Diagnostics model real toolchain output: limit violations are errors
(the compile fails loudly), everything else is at most a warning. A
silent deviation, by definition, produces **no** diagnostic — that is
the §4 case study's point.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from ..exceptions import CompileError
from ..p4.program import P4Program
from ..p4.table import MatchKind
from ..p4.validation import validate_program
from .batch import BatchProgram
from .limits import SPEC_MODEL, ArchLimits, DeviationModel
from .resources import (
    DeviceCapacity,
    ResourceUsage,
    SUME_CAPACITY,
    estimate_program,
)

__all__ = ["Diagnostic", "CompiledProgram", "TargetCompiler"]


@dataclass(frozen=True)
class Diagnostic:
    """One user-visible compiler message."""

    severity: str  # "error" or "warning"
    message: str

    def __str__(self) -> str:
        return f"{self.severity}: {self.message}"


@dataclass
class CompiledProgram:
    """The artifact ``load`` installs on a device.

    ``model`` is the artifact's *behavioural model*
    (:class:`~repro.target.limits.DeviationModel`): the exact datapath
    semantics the backend generated, including its silent deviations.
    It is ground truth for differential testing (``silent_deviations``
    carries the matching tags) and is deliberately absent from
    ``diagnostics``.

    ``kernel`` is the artifact's one batch kernel, built with it (by
    :meth:`TargetCompiler.compile`, or by the artifact cache's load,
    which stores the artifact without it).
    """

    program: P4Program
    target_name: str
    model: DeviationModel = SPEC_MODEL
    diagnostics: list[Diagnostic] = field(default_factory=list)
    silent_deviations: list[str] = field(default_factory=list)
    resources: ResourceUsage = field(default_factory=ResourceUsage)
    utilization: dict[str, float] = field(default_factory=dict)
    kernel: BatchProgram | None = field(
        default=None, repr=False, compare=False
    )
    #: Lazily-built spec-faithful artifact the reference oracle predicts
    #: with (:func:`repro.netdebug.oracle.compile_spec`) over a deviant
    #: artifact's provisioned program; one per artifact, not pickled
    #: either. A spec-model artifact is its own (see
    #: :func:`repro.netdebug.oracle.build_oracle`).
    spec: object | None = field(
        default=None, repr=False, compare=False
    )


class TargetCompiler:
    """Compile programs against one architecture's limits and capacity.

    Attributes:
        limits: The target's published :class:`ArchLimits`.
        capacity: Device capacity the estimated resources must fit.
        model: The generated datapath's
            :class:`~repro.target.limits.DeviationModel`. The base
            compiler and the reference target generate the spec; the
            SDNet-like backend drops ``reject``, and the Tofino-like
            backend quantizes TCAM patterns and budgets the deparser.
    """

    model: DeviationModel = SPEC_MODEL

    def __init__(
        self,
        limits: ArchLimits,
        capacity: DeviceCapacity = SUME_CAPACITY,
    ):
        self.limits = limits
        self.capacity = capacity

    # ------------------------------------------------------------------
    # Limit diagnostics
    # ------------------------------------------------------------------
    def check_limits(self, program: P4Program) -> list[Diagnostic]:
        """Check ``program`` against the published limits.

        Returns every finding; ``compile`` raises on the errors.
        """
        limits = self.limits
        diagnostics: list[Diagnostic] = []

        def error(message: str) -> None:
            diagnostics.append(Diagnostic("error", message))

        def warning(message: str) -> None:
            diagnostics.append(Diagnostic("warning", message))

        parser = program.parser
        state_count = len(parser.states)
        if state_count > limits.max_parser_states:
            error(
                f"program uses {state_count} parser states; target "
                f"allows {limits.max_parser_states}"
            )
        depth = parser.max_extract_depth()
        if depth > limits.max_parse_depth:
            error(
                f"parse depth {depth} exceeds target limit "
                f"{limits.max_parse_depth}"
            )

        tables = program.all_tables()
        if len(tables) > limits.max_tables:
            error(
                f"program declares {len(tables)} tables; target allows "
                f"{limits.max_tables}"
            )
        for name, table in tables.items():
            if table.size > limits.max_table_size:
                error(
                    f"table {name!r} size {table.size} exceeds target "
                    f"limit {limits.max_table_size}"
                )
            key_bits = sum(
                key.expr.width(program.env) for key in table.keys
            )
            if key_bits > limits.max_key_bits:
                error(
                    f"table {name!r} key is {key_bits} bits wide; target "
                    f"allows {limits.max_key_bits} key bits"
                )
            if len(table.actions) > limits.max_actions_per_table:
                error(
                    f"table {name!r} declares {len(table.actions)} "
                    f"actions; target allows "
                    f"{limits.max_actions_per_table}"
                )
            for key in table.keys:
                if key.kind not in limits.supported_match_kinds:
                    error(
                        f"table {name!r} uses the {key.kind.value} match "
                        "kind, which this target does not build"
                    )
            if limits.tcam_bits_per_stage is not None:
                tcam_bits = sum(
                    key.expr.width(program.env)
                    for key in table.keys
                    if key.kind in (MatchKind.TERNARY, MatchKind.RANGE)
                )
                if tcam_bits > limits.tcam_bits_per_stage:
                    error(
                        f"table {name!r} needs {tcam_bits} TCAM key bits; "
                        f"target offers {limits.tcam_bits_per_stage} per "
                        "stage"
                    )

        pipeline_depth = program.pipeline_depth()
        if pipeline_depth > limits.max_pipeline_depth:
            error(
                f"pipeline depth {pipeline_depth} exceeds target limit "
                f"{limits.max_pipeline_depth}"
            )

        if program.counters and not limits.supports_counters:
            error("program declares counters; target supports no counters")
        if program.registers and not limits.supports_registers:
            error("program declares registers; target supports no registers")

        if not limits.supports_reject and parser.can_reach_reject():
            warning(
                "parser can reach the reject state, which this target "
                "does not implement"
            )

        return diagnostics

    # ------------------------------------------------------------------
    # Deviations
    # ------------------------------------------------------------------
    def deviations(self, program: P4Program) -> list[str]:
        """Silent spec deviations the generated datapath introduces on
        ``program``: the tags of :attr:`model`."""
        return self.model.tags(program)

    # ------------------------------------------------------------------
    # Compilation
    # ------------------------------------------------------------------
    def compile(self, program: P4Program) -> CompiledProgram:
        """Validate, check, fit, and lower ``program`` for this target."""
        validate_program(program)
        diagnostics = self.check_limits(program)
        errors = [d for d in diagnostics if d.severity == "error"]
        if errors:
            listing = "\n  ".join(d.message for d in errors)
            raise CompileError(
                f"target {self.limits.name!r} rejected program "
                f"{program.name!r}:\n  {listing}"
            )
        resources = estimate_program(program)
        if not self.capacity.fits(resources):
            raise CompileError(
                f"program {program.name!r} exceeds device capacity: needs "
                f"{resources.as_dict()}, device offers "
                f"{self.capacity.luts} LUTs / {self.capacity.flipflops} FFs "
                f"/ {self.capacity.bram_blocks} BRAM / "
                f"{self.capacity.dsp_slices} DSP"
            )
        return CompiledProgram(
            program=program,
            target_name=self.limits.name,
            model=self.model,
            diagnostics=diagnostics,
            silent_deviations=self.deviations(program),
            resources=resources,
            utilization=self.capacity.utilization(resources),
            kernel=BatchProgram(program, self.limits, self.model),
        )
