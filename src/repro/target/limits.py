"""Published architecture limits for the simulated targets.

An :class:`ArchLimits` is the datasheet view of a target: what the
vendor *claims* the architecture supports — parser depth, table shapes,
match kinds, clock and bus width. Compilers check programs against these
limits (:mod:`repro.target.compiler`); the architecture-check use case
probes whether the published figures match the toolchain's actual
behaviour.

The SDNet-like limits deliberately *claim* ``reject`` support: the
datasheet says yes, the generated datapath says nothing and silently
forwards — exactly the gap the paper's §4 case study uncovers. The
Tofino-like limits play the same game on two different axes: the
datasheet advertises full ternary/range matching and a long emit list,
while the datapath quantizes TCAM patterns and truncates the deparser
(:mod:`repro.target.tofino`).

A :class:`DeviationModel` is the other half: what the generated
datapath actually does. It is the one definition of each silent
deviation — its setting, its ground-truth tag (:meth:`DeviationModel.tags`)
and the single-deviation model that reproduces it
(:meth:`DeviationModel.only`).
"""

from __future__ import annotations

from dataclasses import dataclass, field

from ..p4.table import MatchKind

__all__ = [
    "ArchLimits",
    "DeviationModel",
    "SPEC_MODEL",
    "REJECT_NOT_IMPLEMENTED",
    "TCAM_QUANTIZED",
    "DEPARSE_FIELD_BUDGET_EXCEEDED",
    "REFERENCE_LIMITS",
    "SDNET_LIMITS",
    "SDNET_MODEL",
    "TOFINO_LIMITS",
    "TOFINO_MODEL",
    "DEPARSE_FIELD_BUDGET",
]


@dataclass(frozen=True)
class ArchLimits:
    """Published limits of one target architecture."""

    name: str
    clock_mhz: int = 200
    bus_bytes: int = 32
    max_parser_states: int = 64
    max_parse_depth: int = 32
    max_tables: int = 64
    max_table_size: int = 65536
    max_key_bits: int = 512
    max_pipeline_depth: int = 32
    max_actions_per_table: int = 64
    supports_counters: bool = True
    supports_registers: bool = True
    supports_reject: bool = True
    #: Per-stage TCAM budget in key bits, or ``None`` when the target
    #: emulates ternary matching in general logic (no hard budget). A
    #: table whose ternary/range key bits exceed this fails to compile.
    tcam_bits_per_stage: int | None = None
    supported_match_kinds: frozenset = field(
        default_factory=lambda: frozenset(MatchKind)
    )

    @property
    def line_rate_gbps(self) -> float:
        """Peak datapath rate: one bus word per clock cycle."""
        return self.clock_mhz * self.bus_bytes * 8 / 1000.0


#: Ground-truth tag for the silently missing parser ``reject`` state
#: (the SDNet-like backend, :mod:`repro.target.sdnet`).
REJECT_NOT_IMPLEMENTED = "parser-reject-not-implemented"

#: Ground-truth tag: ternary/range patterns quantized to power-of-two
#: boundaries by the per-stage TCAM (:mod:`repro.target.tofino`).
TCAM_QUANTIZED = "ternary-range-quantized-pow2"

#: Ground-truth tag: headers past the deparser's field budget silently
#: not serialized (:mod:`repro.target.tofino`).
DEPARSE_FIELD_BUDGET_EXCEEDED = "deparse-field-budget-exceeded"


@dataclass(frozen=True)
class DeviationModel:
    """A target's behavioural model: the datapath semantics its backend
    generates, silent deviations included.

    The defaults are the specification (:data:`SPEC_MODEL`). One value
    travels from the compiler (``TargetCompiler.model``) through the
    artifact (``CompiledProgram.model``) to everything that executes or
    reasons about that datapath: the generated kernel
    (:mod:`repro.target.fastpath`), the tree-walking
    :class:`~repro.p4.interpreter.Interpreter` and the oracles built on
    it, and the path enumerator (:mod:`repro.baselines.paths`).

    * ``honor_reject`` — when False, a parser ``reject`` (or failed
      ``verify``) records ``parser_error`` and the packet continues as
      if accepted (:data:`REJECT_NOT_IMPLEMENTED`).
    * ``quantize_tcam`` — ternary masks and range bounds quantize to
      power-of-two boundaries at match time (:data:`TCAM_QUANTIZED`).
    * ``deparse_field_budget`` — when set, headers past this many
      fields in the emit order are not serialized
      (:data:`DEPARSE_FIELD_BUDGET_EXCEEDED`).
    """

    honor_reject: bool = True
    quantize_tcam: bool = False
    deparse_field_budget: int | None = None

    def tags(self, program) -> list[str]:
        """The deviation tags this model shows on ``program``, in the
        order reject, TCAM, deparse budget: only the axes the program
        can exercise (a reachable ``reject``, a ternary/range key, an
        emit order past the budget)."""
        tags = []
        if not self.honor_reject and program.parser.can_reach_reject():
            tags.append(REJECT_NOT_IMPLEMENTED)
        if self.quantize_tcam and any(
            key.kind in (MatchKind.TERNARY, MatchKind.RANGE)
            for table in program.all_tables().values()
            for key in table.keys
        ):
            tags.append(TCAM_QUANTIZED)
        deparser = program.deparser
        if len(
            deparser.emit_prefix(program.env, self.deparse_field_budget)
        ) < len(deparser.emit_order):
            tags.append(DEPARSE_FIELD_BUDGET_EXCEEDED)
        return tags

    def only(self, tag: str) -> "DeviationModel":
        """The model that deviates from the spec on ``tag``'s axis
        alone, with this model's setting there."""
        return DeviationModel(
            honor_reject=tag != REJECT_NOT_IMPLEMENTED,
            quantize_tcam=tag == TCAM_QUANTIZED,
            deparse_field_budget=self.deparse_field_budget
            if tag == DEPARSE_FIELD_BUDGET_EXCEEDED
            else None,
        )


#: The specification: the model of the base and reference compilers.
SPEC_MODEL = DeviationModel()


#: The spec-faithful reference target: generous limits, a wide bus, and
#: every match kind. Its job is to define correct behaviour, not to
#: model a specific chip.
REFERENCE_LIMITS = ArchLimits(
    name="reference",
    clock_mhz=200,
    bus_bytes=64,
    max_parser_states=64,
    max_parse_depth=32,
    max_tables=64,
    max_table_size=65536,
    max_key_bits=512,
    max_pipeline_depth=32,
    max_actions_per_table=64,
)

#: The SDNet-like NetFPGA SUME target. Tighter in every envelope
#: dimension, no RANGE matching — and ``supports_reject`` is what the
#: datasheet *claims*; the generated datapath does not implement it
#: (:data:`REJECT_NOT_IMPLEMENTED`).
SDNET_LIMITS = ArchLimits(
    name="sdnet-sume",
    clock_mhz=200,
    bus_bytes=32,
    max_parser_states=16,
    max_parse_depth=12,
    max_tables=8,
    max_table_size=4096,
    max_key_bits=256,
    max_pipeline_depth=8,
    max_actions_per_table=16,
    supports_reject=True,  # the claim the backend silently breaks
    supported_match_kinds=frozenset(
        {MatchKind.EXACT, MatchKind.LPM, MatchKind.TERNARY}
    ),
)

#: What the SDNet-like backend generates: no parser ``reject``.
SDNET_MODEL = DeviationModel(honor_reject=False)

#: The Tofino-like switch-ASIC target. A much deeper pipeline and wider,
#: deeper tables than the FPGA targets, a fast clock on a narrow bus —
#: but a *small per-stage TCAM*: a table may spend at most
#: ``tcam_bits_per_stage`` key bits on ternary/range matching. The
#: datasheet advertises all four match kinds and honest ``reject``
#: support, and both claims are true — this backend's silent deviations
#: live elsewhere (:mod:`repro.target.tofino`): TCAM patterns are
#: quantized to power-of-two boundaries and the deparser truncates long
#: emit lists at a field budget.
TOFINO_LIMITS = ArchLimits(
    name="tofino-sim",
    clock_mhz=1000,
    bus_bytes=16,
    max_parser_states=128,
    max_parse_depth=20,
    max_tables=24,
    max_table_size=131072,
    max_key_bits=640,
    max_pipeline_depth=24,
    max_actions_per_table=32,
    tcam_bits_per_stage=128,
    supported_match_kinds=frozenset(MatchKind),
)

#: Header-field budget of the Tofino-like deparser. Ethernet (3 fields)
#: plus IPv4 (13 fields) already exceeds it, so any program that emits
#: an L3 header forwards truncated packets on this target.
DEPARSE_FIELD_BUDGET = 14

#: What the Tofino-like backend generates: ``reject`` honored, TCAM
#: patterns quantized, the deparser cut at :data:`DEPARSE_FIELD_BUDGET`.
TOFINO_MODEL = DeviationModel(
    quantize_tcam=True, deparse_field_budget=DEPARSE_FIELD_BUDGET
)
