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
"""

from __future__ import annotations

from dataclasses import dataclass, field

from ..p4.table import MatchKind

__all__ = [
    "ArchLimits",
    "DeviationModel",
    "SPEC_MODEL",
    "REFERENCE_LIMITS",
    "SDNET_LIMITS",
    "TOFINO_LIMITS",
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


@dataclass(frozen=True)
class DeviationModel:
    """A target's behavioural model: the datapath semantics its backend
    generates, silent deviations included.

    The defaults are the specification. The batch kernel
    (:mod:`repro.target.batch`) is built from one, and the path
    enumerator (:mod:`repro.baselines.paths`) judges feasibility with
    one; :meth:`from_compiled` lifts it off a
    :class:`~repro.target.compiler.CompiledProgram` (or a
    :class:`~repro.target.compiler.TargetCompiler`) so both see exactly
    the artifact's datapath.
    """

    honor_reject: bool = True
    quantize_tcam: bool = False
    deparse_field_budget: int | None = None

    @classmethod
    def from_compiled(cls, compiled) -> "DeviationModel":
        return cls(
            honor_reject=getattr(compiled, "honor_reject", True),
            quantize_tcam=getattr(compiled, "quantize_tcam", False),
            deparse_field_budget=getattr(
                compiled, "deparse_field_budget", None
            ),
        )


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
#: (:data:`repro.target.sdnet.REJECT_NOT_IMPLEMENTED`).
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
