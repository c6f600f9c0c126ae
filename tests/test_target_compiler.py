"""Compiler tests: limit diagnostics, capacity rejection, deviations."""

import dataclasses

import pytest

from repro.exceptions import CompileError
from repro.p4.stdlib import PROGRAMS, ipv4_router, l2_switch, strict_parser
from repro.target.compiler import TargetCompiler
from repro.target.limits import (
    DEPARSE_FIELD_BUDGET_EXCEEDED,
    REJECT_NOT_IMPLEMENTED,
    SDNET_LIMITS,
    SPEC_MODEL,
    TCAM_QUANTIZED,
    ArchLimits,
)
from repro.target.reference import ReferenceCompiler
from repro.target.sdnet import SDNetCompiler
from repro.target.tofino import TofinoCompiler

COMPILERS = {
    "reference": ReferenceCompiler,
    "sdnet": SDNetCompiler,
    "tofino": TofinoCompiler,
}

#: The silent deviations each deviant backend declares per stdlib
#: program, in declaration order; every other cell declares none.
DECLARED = {
    "sdnet": {
        "ipv4_router": [REJECT_NOT_IMPLEMENTED],
        "strict_parser": [REJECT_NOT_IMPLEMENTED],
    },
    "tofino": {
        "acl_firewall": [TCAM_QUANTIZED, DEPARSE_FIELD_BUDGET_EXCEEDED],
        **{
            name: [DEPARSE_FIELD_BUDGET_EXCEEDED]
            for name in (
                "ecmp_load_balancer",
                "int_telemetry",
                "ipv4_router",
                "mpls_tunnel",
                "stateful_firewall",
                "strict_parser",
            )
        },
    },
}

#: The DeviationModel field each tag's deviation lives on.
AXES = {
    REJECT_NOT_IMPLEMENTED: "honor_reject",
    TCAM_QUANTIZED: "quantize_tcam",
    DEPARSE_FIELD_BUDGET_EXCEEDED: "deparse_field_budget",
}


@pytest.mark.parametrize("target", sorted(COMPILERS))
@pytest.mark.parametrize("name", sorted(PROGRAMS))
def test_declared_deviations_are_the_models_tags(name, target):
    """Every artifact declares its model's tags, and each declared tag's
    single-deviation model leaves the spec on that tag's axis alone,
    with the artifact's setting there."""
    program = PROGRAMS[name]()
    compiled = COMPILERS[target]().compile(program)
    model = compiled.model
    assert compiled.silent_deviations == model.tags(program)
    assert compiled.silent_deviations == DECLARED.get(target, {}).get(
        name, []
    )
    for tag in compiled.silent_deviations:
        only = model.only(tag)
        moved = {
            field.name
            for field in dataclasses.fields(only)
            if getattr(only, field.name) != getattr(SPEC_MODEL, field.name)
        }
        assert moved == {AXES[tag]}
        assert getattr(only, AXES[tag]) == getattr(model, AXES[tag])


class TestReferenceCompiler:
    def test_compiles_all_stdlib(self):
        compiler = ReferenceCompiler()
        for factory in PROGRAMS.values():
            compiled = compiler.compile(factory())
            assert compiled.model.honor_reject
            assert compiled.silent_deviations == []
            assert compiled.resources.luts > 0
            assert 0 < max(compiled.utilization.values()) < 1

    def test_invalid_program_rejected(self):
        from repro.p4.dsl import ProgramBuilder
        from repro.exceptions import P4ValidationError
        from repro.packet.headers import ETHERNET

        b = ProgramBuilder("bad")
        b.header(ETHERNET)
        b.parser_state("start", extracts=["ethernet"]).goto("missing")
        b.emit("ethernet")
        program = b.build(validate=False)
        with pytest.raises(P4ValidationError):
            ReferenceCompiler().compile(program)


class TestSDNetCompiler:
    def test_records_reject_deviation_silently(self):
        compiled = SDNetCompiler().compile(strict_parser())
        assert REJECT_NOT_IMPLEMENTED in compiled.silent_deviations
        assert not compiled.model.honor_reject
        # The user-visible diagnostics do NOT mention the deviation.
        assert all(
            "reject" not in str(d).lower() for d in compiled.diagnostics
        )

    def test_no_deviation_without_reject_path(self):
        compiled = SDNetCompiler().compile(l2_switch())
        assert compiled.silent_deviations == []

    def test_tables_too_large_rejected(self):
        program = ipv4_router(lpm_size=SDNET_LIMITS.max_table_size + 1)
        with pytest.raises(CompileError, match="size"):
            SDNetCompiler().compile(program)

    def test_range_match_rejected(self):
        from repro.netdebug.usecases.compiler_check import (
            range_match_program,
        )

        with pytest.raises(CompileError, match="range"):
            SDNetCompiler().compile(range_match_program())

    def test_parse_depth_rejected(self):
        from repro.netdebug.usecases.architecture_check import chain_program

        SDNetCompiler().compile(
            chain_program(SDNET_LIMITS.max_parse_depth)
        )
        with pytest.raises(CompileError, match="depth"):
            SDNetCompiler().compile(
                chain_program(SDNET_LIMITS.max_parse_depth + 1)
            )


class TestLimitDiagnostics:
    def tiny_limits(self, **overrides):
        defaults = dict(
            name="tiny",
            max_parser_states=2,
            max_parse_depth=1,
            max_tables=1,
            max_table_size=4,
            max_key_bits=16,
            max_pipeline_depth=1,
            max_actions_per_table=2,
        )
        defaults.update(overrides)
        return ArchLimits(**defaults)

    def test_every_limit_produces_named_error(self):
        from repro.p4.stdlib import acl_firewall

        compiler = TargetCompiler(self.tiny_limits())
        diagnostics = compiler.check_limits(acl_firewall())
        messages = " ".join(d.message for d in diagnostics)
        assert "states" in messages
        assert "depth" in messages
        assert "tables" in messages or "table" in messages
        assert "key" in messages

    def test_counters_unsupported(self):
        from repro.p4.stdlib import port_counter

        limits = ArchLimits(name="nc", supports_counters=False,
                            supports_registers=False)
        diagnostics = TargetCompiler(limits).check_limits(port_counter())
        messages = " ".join(d.message for d in diagnostics)
        assert "counters" in messages
        assert "registers" in messages

    def test_reject_warning_when_unclaimed(self):
        limits = ArchLimits(name="nr", supports_reject=False)
        diagnostics = TargetCompiler(limits).check_limits(strict_parser())
        warnings = [d for d in diagnostics if d.severity == "warning"]
        assert any("reject" in d.message for d in warnings)

    def test_capacity_exceeded(self):
        from repro.target.resources import DeviceCapacity

        compiler = ReferenceCompiler()
        compiler.capacity = DeviceCapacity(100, 100, 1, 1)
        with pytest.raises(CompileError, match="capacity"):
            compiler.compile(l2_switch())

    def test_diagnostic_str(self):
        from repro.target.compiler import Diagnostic

        diag = Diagnostic("warning", "something odd")
        assert str(diag) == "warning: something odd"
