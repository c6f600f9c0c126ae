"""Use case: architecture check (§3).

"Finding limitations in the architecture."

Probing challenges against each target's published limits
(:class:`~repro.target.limits.ArchLimits`):

1. **parse-depth** — discover the deepest parse chain a target accepts
   by compiling a ladder of programs; confirm the found limit matches
   (or exposes a mismatch in) the published figure.
2. **table-capacity** — fill a table to its claimed size through the
   control plane and verify both the capacity and the over-capacity
   rejection behave as published.
3. **match-kinds** — discover which match kinds a target actually
   builds.
4. **tcam-budget** — discover the Tofino-like target's per-stage TCAM
   key-bit budget by compiling ever-wider ternary keys.
5. **backend-deviations** — compile canary programs on all three
   registered backends and localize each declared silent deviation to
   its pipeline stage via the deviation capability map
   (:data:`repro.netdebug.localization.DEVIATION_CAPABILITIES`) — the
   "which backend deviates, and why" answer a 3-way sweep needs.

These need compiler and management access, which only NetDebug's
workflow has. The external tester can black-box a limit's *symptoms* at
best; the formal verifier has no notion of a target.
"""

from __future__ import annotations

from ...exceptions import CompileError, ControlPlaneError
from ...p4.actions import Forward
from ...p4.dsl import ProgramBuilder
from ...p4.expr import Const, fld
from ...p4.program import P4Program
from ...p4.stdlib import acl_firewall, strict_parser
from ...p4.table import MatchKind
from ...packet.fields import HeaderSpec
from ...target.limits import (
    DEPARSE_FIELD_BUDGET_EXCEEDED,
    REFERENCE_LIMITS,
    REJECT_NOT_IMPLEMENTED,
    SDNET_LIMITS,
    TCAM_QUANTIZED,
    TOFINO_LIMITS,
)
from ...target.reference import ReferenceCompiler
from ...target.sdnet import SDNetCompiler, make_sdnet_device
from ...target.tofino import TofinoCompiler
from ..localization import diagnose_deviations
from .base import Challenge, UseCaseResult, score_suite

__all__ = [
    "run",
    "chain_program",
    "probe_parse_depth",
    "probe_table_capacity",
    "probe_match_kinds",
    "probe_tcam_stage_budget",
    "probe_backend_deviations",
]


def _link_header(index: int) -> HeaderSpec:
    """A tiny chained header: 8-bit next-proto + 8-bit payload."""
    return HeaderSpec.build(f"link{index}", ("next_proto", 8), ("value", 8))


def chain_program(depth: int) -> P4Program:
    """A program whose parser extracts ``depth`` chained headers."""
    b = ProgramBuilder(f"chain_{depth}")
    for index in range(depth):
        b.header(_link_header(index))
    for index in range(depth):
        state = b.parser_state(
            "start" if index == 0 else f"parse{index}",
            extracts=[f"link{index}"],
        )
        if index + 1 < depth:
            state.goto(f"parse{index + 1}")
        else:
            state.accept()
    b.ingress.action("out", [], [Forward(Const(0, 9))])
    b.ingress.call("out")
    b.emit(*[f"link{i}" for i in range(depth)])
    return b.build()


def probe_parse_depth(max_probe: int = 24, compiler_factory=SDNetCompiler) -> int:
    """Largest parse depth the probed compiler accepts (SDNet by default)."""
    compiler = compiler_factory()
    deepest = 0
    for depth in range(1, max_probe + 1):
        try:
            compiler.compile(chain_program(depth))
            deepest = depth
        except CompileError:
            break
    return deepest


def exact_table_program(size: int) -> P4Program:
    """A one-table program with a declared capacity of ``size``."""
    from ...packet.headers import ETHERNET

    b = ProgramBuilder(f"cap_{size}")
    b.header(ETHERNET)
    b.parser_state("start", extracts=["ethernet"]).accept()
    table = b.ingress.table("fwd")
    table.key(fld("ethernet", "dst_addr"), MatchKind.EXACT, "dmac")
    table.action("out", [], [Forward(Const(0, 9))])
    table.default("NoAction").size(size)
    b.ingress.apply("fwd")
    b.emit("ethernet")
    return b.build()


def probe_table_capacity(size: int) -> tuple[int, bool]:
    """Fill a size-``size`` table; returns (installed, overflow_rejected)."""
    device = make_sdnet_device(f"arch-cap-{size}")
    device.load(exact_table_program(size))
    installed = 0
    for index in range(size):
        device.control_plane.table_add("fwd", "out", [index], [])
        installed += 1
    try:
        device.control_plane.table_add("fwd", "out", [size], [])
        overflow_rejected = False
    except ControlPlaneError:
        overflow_rejected = True
    return installed, overflow_rejected


def probe_match_kinds(compiler_factory=SDNetCompiler) -> dict[str, bool]:
    """Which match kinds the probed target actually compiles."""
    from ...packet.headers import ETHERNET, IPV4, ETHERTYPE_IPV4
    from ...p4.parser import ACCEPT

    results: dict[str, bool] = {}
    for kind in MatchKind:
        b = ProgramBuilder(f"kind_{kind.value}")
        b.header(ETHERNET)
        b.header(IPV4)
        b.parser_state("start", extracts=["ethernet"]).select(
            fld("ethernet", "ether_type"),
            [(ETHERTYPE_IPV4, "parse_ipv4")],
            default=ACCEPT,
        )
        b.parser_state("parse_ipv4", extracts=["ipv4"]).accept()
        table = b.ingress.table("probe")
        table.key(fld("ipv4", "dst_addr"), kind, "dst")
        table.action("out", [], [Forward(Const(0, 9))])
        table.default("NoAction").size(16)
        from ...p4.control import ApplyTable, If
        from ...p4.expr import IsValid

        b.ingress.stmt(If(IsValid("ipv4"), ApplyTable("probe")))
        b.emit("ethernet", "ipv4")
        try:
            compiler_factory().compile(b.build())
            results[kind.value] = True
        except CompileError:
            results[kind.value] = False
    return results


def _wide_ternary_program(key_bits: int) -> P4Program:
    """A one-table program with a single ``key_bits``-wide ternary key."""
    b = ProgramBuilder(f"tcam_{key_bits}")
    b.header(HeaderSpec.build(f"wide{key_bits}", ("key", key_bits)))
    b.parser_state("start", extracts=[f"wide{key_bits}"]).accept()
    table = b.ingress.table("tcam")
    table.key(fld(f"wide{key_bits}", "key"), MatchKind.TERNARY, "key")
    table.action("out", [], [Forward(Const(0, 9))])
    table.default("NoAction").size(16)
    b.ingress.apply("tcam")
    b.emit(f"wide{key_bits}")
    return b.build()


def probe_tcam_stage_budget(
    max_probe_bits: int = 256, step: int = 8, compiler_factory=TofinoCompiler
) -> int:
    """Widest ternary key (in bits) the probed target builds in one stage."""
    compiler = compiler_factory()
    widest = 0
    for key_bits in range(step, max_probe_bits + 1, step):
        try:
            compiler.compile(_wide_ternary_program(key_bits))
            widest = key_bits
        except CompileError:
            break
    return widest


#: Canary programs that between them trip every known silent deviation:
#: ``strict_parser`` reaches ``reject`` and emits past the Tofino
#: deparse budget; ``acl_firewall`` adds ternary keys for the TCAM.
_DEVIATION_CANARIES = (strict_parser, acl_firewall)


def probe_backend_deviations() -> dict[str, dict[str, str]]:
    """Compile canaries on all three backends; localize declared deviations.

    Returns ``{target_name: {deviation_tag: pipeline_stage}}`` — the
    3-way sweep's answer to *which* backend deviates and *where*. The
    reference backend must come back empty.
    """
    compilers = (ReferenceCompiler, SDNetCompiler, TofinoCompiler)
    deviations: dict[str, dict[str, str]] = {}
    for compiler_factory in compilers:
        compiler = compiler_factory()
        per_target: dict[str, str] = {}
        for canary in _DEVIATION_CANARIES:
            compiled = compiler.compile(canary())
            for diagnosis in diagnose_deviations(compiled):
                per_target[diagnosis.tag] = diagnosis.stage
        deviations[compiler.limits.name] = per_target
    return deviations


def run(tool: str, seed: int = 0) -> UseCaseResult:
    """Run the architecture-check suite for one tool."""
    if tool == "netdebug":
        found_depth = probe_parse_depth()
        depth_ok = found_depth == SDNET_LIMITS.max_parse_depth
        size = 64
        installed, overflow_rejected = probe_table_capacity(size)
        capacity_ok = installed == size and overflow_rejected
        kinds = probe_match_kinds()
        kinds_ok = (
            kinds["exact"]
            and kinds["lpm"]
            and kinds["ternary"]
            and not kinds["range"]
        )
        tofino_depth = probe_parse_depth(compiler_factory=TofinoCompiler)
        tofino_kinds = probe_match_kinds(compiler_factory=TofinoCompiler)
        tcam_budget = probe_tcam_stage_budget()
        tofino_ok = (
            tofino_depth == TOFINO_LIMITS.max_parse_depth
            and all(tofino_kinds.values())
            and tcam_budget == TOFINO_LIMITS.tcam_bits_per_stage
        )
        # Keyed on the same ArchLimits .name constants the probe uses,
        # and on the tag constants the compilers emit, so a rename of
        # either cannot silently zero this challenge.
        deviations = probe_backend_deviations()
        deviations_ok = (
            deviations.get(REFERENCE_LIMITS.name) == {}
            and deviations.get(SDNET_LIMITS.name, {}).get(
                REJECT_NOT_IMPLEMENTED
            ) == "parser"
            and deviations.get(TOFINO_LIMITS.name, {}).get(
                TCAM_QUANTIZED
            ) == "ingress"
            and deviations.get(TOFINO_LIMITS.name, {}).get(
                DEPARSE_FIELD_BUDGET_EXCEEDED
            ) == "deparser"
        )
        challenges = [
            Challenge(
                "parse-depth",
                1.0 if depth_ok else 0.0,
                f"probed limit {found_depth}, published "
                f"{SDNET_LIMITS.max_parse_depth}",
            ),
            Challenge(
                "table-capacity",
                1.0 if capacity_ok else 0.0,
                f"installed {installed}/{size}, overflow "
                f"{'rejected' if overflow_rejected else 'accepted!'}",
            ),
            Challenge(
                "match-kinds",
                1.0 if kinds_ok else 0.0,
                f"supported: {sorted(k for k, v in kinds.items() if v)}",
            ),
            Challenge(
                "tofino-envelope",
                1.0 if tofino_ok else 0.0,
                f"probed depth {tofino_depth}/"
                f"{TOFINO_LIMITS.max_parse_depth}, TCAM budget "
                f"{tcam_budget}/{TOFINO_LIMITS.tcam_bits_per_stage} bits, "
                f"kinds {sorted(k for k, v in tofino_kinds.items() if v)}",
            ),
            Challenge(
                "backend-deviations",
                1.0 if deviations_ok else 0.0,
                "; ".join(
                    f"{target}: "
                    + (
                        ", ".join(
                            f"{tag}@{stage}"
                            for tag, stage in sorted(tags.items())
                        )
                        or "spec-faithful"
                    )
                    for target, tags in sorted(deviations.items())
                ),
            ),
        ]
    elif tool == "external":
        challenges = [
            Challenge(
                "parse-depth",
                0.5,
                "can black-box deep header stacks, cannot see the "
                "compile-time limit",
            ),
            Challenge(
                "table-capacity",
                0.5,
                "can infer misses when entries silently vanish, cannot "
                "read occupancy",
            ),
            Challenge(
                "match-kinds", 0.0,
                "match-kind support is a toolchain property",
            ),
            Challenge(
                "tofino-envelope", 0.0,
                "per-stage TCAM budgets are a toolchain property",
            ),
            Challenge(
                "backend-deviations",
                0.5,
                "can observe end-to-end divergence, cannot attribute it "
                "to a backend stage",
            ),
        ]
    elif tool == "formal":
        challenges = [
            Challenge("parse-depth", 0.0, "no target model"),
            Challenge("table-capacity", 0.0, "no target model"),
            Challenge("match-kinds", 0.0, "no target model"),
            Challenge("tofino-envelope", 0.0, "no target model"),
            Challenge("backend-deviations", 0.0, "no target model"),
        ]
    else:
        raise ValueError(f"unknown tool {tool!r}")
    return score_suite("architecture_check", tool, challenges)
