"""The Tofino-like target: quantization primitives, silent deviations,
published-limit enforcement, and parity with the tree-walking spec run
under the same deviation settings."""

import pytest

from repro.bitutils import quantize_range, quantize_ternary_mask
from repro.exceptions import CompileError, PacketError
from repro.netdebug.localization import (
    DEVIATION_CAPABILITIES,
    diagnose_deviations,
    explain_findings,
)
from repro.p4.stdlib import acl_firewall, l2_switch, strict_parser
from repro.packet.builder import udp_packet
from repro.target.limits import TOFINO_LIMITS
from repro.target.reference import make_reference_device
from repro.target.tofino import (
    DEPARSE_FIELD_BUDGET,
    DEPARSE_FIELD_BUDGET_EXCEEDED,
    TCAM_QUANTIZED,
    TofinoCompiler,
    make_tofino_device,
)

from tests.test_target_fastpath_differential import spec_interpreter


class TestQuantizationPrimitives:
    def test_prefix_masks_unchanged(self):
        assert quantize_ternary_mask(0xFF00, 16) == 0xFF00
        assert quantize_ternary_mask(0xFFFF, 16) == 0xFFFF
        assert quantize_ternary_mask(0, 16) == 0

    def test_holes_truncate_to_leading_run(self):
        assert quantize_ternary_mask(0xFF0F, 16) == 0xFF00
        assert quantize_ternary_mask(0xF0F0, 16) == 0xF000

    def test_no_leading_run_degrades_to_match_all(self):
        assert quantize_ternary_mask(0x00FF, 16) == 0x0000

    def test_quantized_mask_is_subset(self):
        for mask_value in (0xABCD, 0x8001, 0x7FFF, 0x0001):
            quantized = quantize_ternary_mask(mask_value, 16)
            assert quantized & mask_value == quantized

    def test_aligned_ranges_unchanged(self):
        assert quantize_range(4, 7, 16) == (4, 7)
        assert quantize_range(0, 255, 16) == (0, 255)
        assert quantize_range(9, 9, 16) == (9, 9)

    def test_unaligned_ranges_widen_to_covering_block(self):
        assert quantize_range(5001, 5002, 16) == (5000, 5003)
        assert quantize_range(5001, 5006, 16) == (5000, 5007)
        assert quantize_range(7, 8, 16) == (0, 15)

    def test_quantized_range_is_superset(self):
        for low, high in ((3, 12), (100, 101), (0, 0), (511, 513)):
            qlow, qhigh = quantize_range(low, high, 16)
            assert qlow <= low and qhigh >= high

    def test_empty_range_rejected(self):
        with pytest.raises(PacketError):
            quantize_range(5, 4, 16)

    def test_out_of_width_bounds_clamp_not_wrap(self):
        # A wrapped high bound would produce a tiny disjoint block;
        # clamping keeps the superset contract within the value domain.
        qlow, qhigh = quantize_range(5, 0x10003, 16)
        assert qlow <= 5 and qhigh == 0xFFFF
        assert quantize_range(0x20000, 0x30000, 16) == (0xFFFF, 0xFFFF)


class TestTofinoCompiler:
    def test_deviations_are_tagged_but_silent(self):
        compiled = TofinoCompiler().compile(acl_firewall())
        assert set(compiled.silent_deviations) == {
            TCAM_QUANTIZED,
            DEPARSE_FIELD_BUDGET_EXCEEDED,
        }
        # The §4 property: ground truth on the artifact, nothing in the
        # user-visible diagnostics.
        assert compiled.diagnostics == []
        assert compiled.model.quantize_tcam
        assert compiled.model.deparse_field_budget == DEPARSE_FIELD_BUDGET

    def test_short_emit_program_has_no_deparse_tag(self):
        compiled = TofinoCompiler().compile(l2_switch())
        assert compiled.silent_deviations == []

    def test_reject_is_honored(self):
        device = make_tofino_device("tof-reject")
        device.load(strict_parser())
        bad = udp_packet(0x0A010001, 0x0A000001, 5000, 4000)
        bad.get("ipv4")["version"] = 6
        run = device.inject(bad.pack())
        assert run.result.verdict.value == "parser_rejected"

    def test_tcam_stage_budget_enforced_loudly(self):
        from repro.netdebug.usecases.architecture_check import (
            _wide_ternary_program,
        )

        compiler = TofinoCompiler()
        compiler.compile(
            _wide_ternary_program(TOFINO_LIMITS.tcam_bits_per_stage)
        )
        with pytest.raises(CompileError, match="TCAM"):
            compiler.compile(
                _wide_ternary_program(
                    TOFINO_LIMITS.tcam_bits_per_stage + 8
                )
            )


class TestDeparseTruncation:
    def test_forwarded_wire_loses_budgeted_headers(self):
        device = make_tofino_device("tof-trunc")
        device.load(strict_parser())
        reference = make_reference_device("ref-trunc")
        reference.load(strict_parser())
        wire = udp_packet(
            0x0A010001, 0x0A000001, 5000, 4000, payload=b"x" * 20
        ).pack()
        got = device.inject(wire).result.packet.pack()
        want = reference.inject(wire).result.packet.pack()
        # Ethernet survives, the 20 IPv4 header bytes are silently gone.
        assert got != want
        assert len(want) - len(got) == 20
        assert got[:14] == want[:14]

    def test_both_engines_truncate_identically(self):
        """The device's kernel and the tree-walking spec, given the
        artifact's deparse field budget, truncate byte-identically."""
        device = make_tofino_device("tof-fast")
        device.load(strict_parser())
        spec = spec_interpreter(device)
        for size in (64, 128, 300):
            wire = udp_packet(
                0x0A010001, 0x0A000001, 5000, 4000,
                payload=b"y" * (size - 42),
            ).pack()
            a = device.inject(wire)
            b = spec.process(wire)
            assert a.result.verdict == b.verdict
            assert a.result.packet.pack() == b.packet.pack()
            assert len(b.packet.pack()) == len(wire) - 20


class TestQuantizedMatching:
    def _gated_device(self, factory, name):
        device = factory(name)
        device.load(acl_firewall())
        control = device.control_plane
        control.table_add("fwd", "forward", [0x020000000002], [2])
        control.table_add(
            "acl", "deny",
            [(0, 0), (0, 0), (0, 0), (0, 0), (0x00FF, 0x00FF)],
            [], priority=10,
        )
        return device

    def test_low_byte_mask_denies_everything_on_tofino(self):
        tofino = self._gated_device(make_tofino_device, "tof-acl")
        reference = self._gated_device(make_reference_device, "ref-acl")
        wire = udp_packet(
            0x0A010001, 0x0A000001, 5000, 4000,
            eth_dst=0x020000000002,
        ).pack()
        # Spec: dport 5000 low byte is 0x88 != 0xFF -> allowed.
        assert reference.inject(wire).result.verdict.value == "forwarded"
        # Quantized mask degrades to match-all -> denied.
        assert tofino.inject(wire).result.verdict.value == "dropped"

    def test_engines_agree_on_quantized_verdicts(self):
        """The device's kernel and the tree-walking spec, given the
        artifact's TCAM quantization, agree on every verdict."""
        fast = self._gated_device(make_tofino_device, "tof-acl-fast")
        spec = spec_interpreter(fast)
        for dport in (5000, 5119, 255, 0x12FF):
            wire = udp_packet(
                0x0A010001, 0x0A000001, dport, 4000,
                eth_dst=0x020000000002,
            ).pack()
            assert fast.inject(wire).result.verdict == spec.process(
                wire
            ).verdict


class TestDeviationDiagnosis:
    def test_every_known_tag_is_mapped(self):
        compiled = TofinoCompiler().compile(acl_firewall())
        for tag in compiled.silent_deviations:
            assert tag in DEVIATION_CAPABILITIES

    def test_diagnoses_localize_stages(self):
        compiled = TofinoCompiler().compile(acl_firewall())
        stages = {d.tag: d.stage for d in diagnose_deviations(compiled)}
        assert stages == {
            TCAM_QUANTIZED: "ingress",
            DEPARSE_FIELD_BUDGET_EXCEEDED: "deparser",
        }

    def test_unknown_tags_surface_not_vanish(self):
        compiled = TofinoCompiler().compile(l2_switch())
        compiled.silent_deviations.append("mystery-deviation")
        diagnoses = diagnose_deviations(compiled)
        assert diagnoses[0].stage == "unknown"

    def test_explain_findings_attributes_kinds(self):
        compiled = TofinoCompiler().compile(acl_firewall())
        explained = explain_findings(
            compiled, ["missing_output", "output_mismatch", "sequence_loss"]
        )
        assert {d.tag for d in explained["missing_output"]} == {
            TCAM_QUANTIZED
        }
        assert {d.tag for d in explained["output_mismatch"]} == {
            TCAM_QUANTIZED,
            DEPARSE_FIELD_BUDGET_EXCEEDED,
        }
        # A kind no deviation produces -> empty list: a genuine fault.
        assert explained["sequence_loss"] == []
