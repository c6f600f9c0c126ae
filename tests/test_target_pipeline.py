"""Pipeline tests: stage decomposition, taps, injection, latency.

Everything runs through ``NetworkDevice``: the device holds the stage
index and taps, the artifact's batch kernel runs the packet.
"""

import pytest

from repro.exceptions import TargetError
from repro.p4.interpreter import Verdict
from repro.p4.stdlib import acl_firewall, ipv4_router, strict_parser
from repro.packet.builder import ethernet_frame, udp_packet
from repro.packet.headers import ipv4, mac
from repro.target.device import NetworkDevice
from repro.target.reference import ReferenceCompiler
from repro.target.sdnet import SDNetCompiler
from repro.target.pipeline import TAP_INPUT, TAP_OUTPUT


def build_device(program_factory=ipv4_router, compiler_cls=ReferenceCompiler):
    device = NetworkDevice("pipe", compiler_cls())
    device.load(program_factory())
    return device


def routed_program():
    from repro.controlplane import RuntimeAPI
    from repro.p4.interpreter import RuntimeState

    program = ipv4_router()
    RuntimeAPI(program, RuntimeState.for_program(program)).table_add(
        "ipv4_lpm", "route", [(ipv4("10.0.0.0"), 8)],
        [mac("aa:bb:cc:dd:ee:01"), 2],
    )
    return program


ROUTED_WIRE = udp_packet(
    ipv4("10.3.3.3"), ipv4("192.168.0.1"), 53, 99, payload=b"q"
).pack()


class TestTopology:
    def test_stage_names_shape(self):
        device = build_device()
        names = device.stage_names()
        assert names[0] == TAP_INPUT
        assert names[1] == "parser"
        assert names[-2] == "deparser"
        assert names[-1] == TAP_OUTPUT
        assert any(n.startswith("ingress.") for n in names)

    def test_multi_statement_controls_get_stages(self):
        device = build_device(acl_firewall)
        ingress_stages = [
            n for n in device.stage_names() if n.startswith("ingress.")
        ]
        assert len(ingress_stages) == 2  # acl block + fwd conditional

    def test_attach_unknown_tap_rejected(self):
        device = build_device()
        with pytest.raises(TargetError):
            device.attach_tap("nowhere", lambda s: None)

    def test_detach_unattached_rejected(self):
        device = build_device()
        with pytest.raises(TargetError):
            device.detach_tap(TAP_INPUT, lambda s: None)


class TestTraversal:
    def test_snapshots_at_every_stage(self):
        device = build_device(routed_program)
        seen = []
        for stage in device.stage_names():
            device.attach_tap(
                stage, lambda s, stage=stage: seen.append((stage, s.alive))
            )
        run = device.inject(ROUTED_WIRE)
        assert run.result.verdict is Verdict.FORWARDED
        assert [s for s, _ in seen] == device.stage_names()
        assert all(alive for _, alive in seen)

    def test_output_tap_carries_wire(self):
        device = build_device(routed_program)
        captured = []
        device.attach_tap(TAP_OUTPUT, captured.append)
        run = device.inject(ROUTED_WIRE)
        assert captured[0].wire == run.result.packet.pack()

    def test_reject_dies_at_parser(self):
        device = build_device(strict_parser)
        dead = []
        device.attach_tap("parser", dead.append)
        run = device.inject(
            ethernet_frame(1, 2, 0xBEEF, payload=b"x" * 30).pack()
        )
        assert run.result.verdict is Verdict.PARSER_REJECTED
        assert run.died_at == "parser"
        assert not dead[0].alive
        assert dead[0].verdict_hint == "parser_reject"

    def test_program_drop_records_stage(self):
        device = build_device(ipv4_router)  # no routes -> drop
        run = device.inject(ROUTED_WIRE)
        assert run.result.verdict is Verdict.DROPPED
        assert run.died_at == "ingress.0"

    def test_sdnet_pipeline_ignores_reject(self):
        device = build_device(strict_parser, SDNetCompiler)
        run = device.inject(
            ethernet_frame(1, 2, 0xBEEF, payload=b"x" * 30).pack()
        )
        assert run.result.verdict is Verdict.FORWARDED

    def test_latency_positive_and_grows_with_stages(self):
        short = build_device(strict_parser)
        long = build_device(acl_firewall)
        wire = udp_packet(ipv4("1.1.1.1"), ipv4("2.2.2.2"), 53, 9).pack()
        run_short = short.inject(wire)
        run_long = long.inject(wire)
        assert run_short.latency_cycles > 0
        assert run_long.latency_cycles > run_short.latency_cycles


class TestInjection:
    def test_inject_at_parser_equivalent_to_input(self):
        device = build_device(routed_program)
        a = device.inject(ROUTED_WIRE, at=TAP_INPUT)
        b = device.inject(ROUTED_WIRE, at="parser")
        assert a.result.packet.pack() == b.result.packet.pack()

    def test_inject_past_stage_skips_it(self):
        """Injection downstream of a dropping stage survives."""
        device = build_device(ipv4_router)  # drops on table miss
        normal = device.inject(ROUTED_WIRE)
        assert normal.result.verdict is Verdict.DROPPED
        past = device.inject(ROUTED_WIRE, at="deparser")
        assert past.result.verdict is Verdict.FORWARDED

    def test_inject_unknown_point_rejected(self):
        device = build_device()
        with pytest.raises(TargetError):
            device.inject(b"", at="bogus")

    def test_late_injection_still_parses(self):
        device = build_device(routed_program)
        run = device.inject(ROUTED_WIRE, at="ingress.0")
        assert run.result.verdict is Verdict.FORWARDED
        # Parsed representation was available to the match-action stage.
        assert run.result.packet.has("ipv4")

    def test_late_injection_of_malformed_rejected(self):
        device = build_device(strict_parser)
        bad = ethernet_frame(1, 2, 0xBEEF, payload=b"x" * 30).pack()
        run = device.inject(bad, at="ingress.0")
        assert run.result.verdict is Verdict.PARSER_REJECTED

    def test_stages_traversed_recorded(self):
        device = build_device(routed_program)
        run = device.inject(ROUTED_WIRE)
        assert run.stages_traversed == device.stage_names()
        partial = device.inject(ROUTED_WIRE, at="deparser")
        assert partial.stages_traversed == ["deparser", TAP_OUTPUT]


class TestCycleModel:
    """One cycle model: every run's latency is the sum of
    ``device.stage_cycles`` over the stages it traversed, on both the
    hook-free and the hooked schedule and for every death class."""

    def test_latency_is_the_sum_of_traversed_stage_cycles(self):
        from repro.p4.stdlib import PROGRAMS
        from repro.target.tofino import TofinoCompiler
        from tests.test_target_fastpath_differential import (
            install_entries,
            workload,
        )

        frames = workload()
        seen: dict[bool, set] = {False: set(), True: set()}
        for name in sorted(PROGRAMS):
            for compiler_cls in (
                ReferenceCompiler, SDNetCompiler, TofinoCompiler
            ):
                device = build_device(PROGRAMS[name], compiler_cls)
                install_entries(device)
                for hooked in (False, True):
                    if hooked:
                        device.attach_tap(TAP_INPUT, lambda s: None)
                    outcomes = device.inject_block(
                        frames, on_error="capture"
                    )
                    for wire, (_, run) in zip(frames, outcomes):
                        if isinstance(run, Exception):
                            continue  # deviant targets may raise
                        assert run.latency_cycles == sum(
                            device.stage_cycles(stage, len(wire))
                            for stage in run.stages_traversed
                        ), (name, compiler_cls.__name__, hooked)
                        seen[hooked].add(run.result.verdict)
        every = {
            Verdict.FORWARDED, Verdict.DROPPED, Verdict.PARSER_REJECTED
        }
        assert seen[False] == seen[True] == every

    def test_stage_cycles_shape(self):
        device = build_device(acl_firewall)
        bus = device.limits.bus_bytes
        assert device.stage_cycles(TAP_INPUT, 64) == 1
        assert device.stage_cycles(TAP_OUTPUT, 64) == 1
        assert device.stage_cycles("ingress.1", 64) == 12
        assert device.stage_cycles("parser", 0) == 5
        assert device.stage_cycles("deparser", 2 * bus + 1) == 4 + 3

    def test_unknown_stage_rejected(self):
        device = build_device()
        with pytest.raises(TargetError):
            device.stage_cycles("nowhere", 64)
