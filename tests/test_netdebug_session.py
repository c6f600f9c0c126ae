"""Session orchestration tests: oracles, expectations, reports."""

import pytest

from repro.exceptions import NetDebugError
from repro.netdebug.checker import ExpectedOutput, ExprCheck
from repro.netdebug.generator import StreamSpec
from repro.netdebug.oracle import StatelessOracle
from repro.netdebug.session import ValidationSession, run_session
from repro.p4.expr import fld
from repro.p4.stdlib import ipv4_router, strict_parser
from repro.packet.builder import ethernet_frame, parse_ethernet, udp_packet
from repro.packet.headers import ipv4, mac
from repro.sim.traffic import default_flow, malformed_mix, udp_stream
from repro.target.reference import make_reference_device
from repro.target.sdnet import make_sdnet_device


def routed_device(factory=make_reference_device, name="ses0"):
    device = factory(name)
    device.load(ipv4_router())
    device.control_plane.table_add(
        "ipv4_lpm", "route", [(ipv4("10.0.0.0"), 8)],
        [mac("aa:bb:cc:dd:ee:01"), 2],
    )
    return device


def routed_packets(count=5, seed=0):
    flow = default_flow()
    flow = type(flow)(
        src_ip=flow.src_ip, dst_ip=ipv4("10.4.0.1"),
        src_port=flow.src_port, dst_port=flow.dst_port,
    )
    return list(udp_stream(flow, count, size=96, seed=seed))


class TestReferenceExpectation:
    def test_forward_prediction(self):
        device = routed_device()
        wire = routed_packets(1)[0].pack()
        expectation = StatelessOracle(device.program).expect(wire)
        assert not expectation.forbid
        assert expectation.egress_port == 2
        predicted = parse_ethernet(expectation.wire)
        assert predicted.get("ipv4")["ttl"] == 63  # decremented

    def test_drop_prediction(self):
        device = routed_device()
        # No route for 172.x -> default drop.
        wire = udp_packet(
            ipv4("172.16.0.1"), ipv4("10.0.0.1"), 1, 2
        ).pack()
        expectation = StatelessOracle(device.program).expect(wire)
        assert expectation.forbid

    def test_reject_prediction(self):
        program = strict_parser()
        wire = ethernet_frame(1, 2, 0xBEEF, payload=b"x" * 30).pack()
        expectation = StatelessOracle(program).expect(wire)
        assert expectation.forbid
        assert "parser_rejected" in expectation.label

    def test_flood_prediction_expands_per_port(self):
        from repro.p4.stdlib import l2_switch

        program = l2_switch()  # default action floods (0x1FF)
        wire = routed_packets(1)[0].pack()
        expectation = StatelessOracle(program, num_ports=4).expect(
            wire, ingress_port=0
        )
        assert not expectation.forbid
        assert expectation.egress_port is None
        assert expectation.egress_ports == (1, 2, 3)  # ingress excluded
        per_port = expectation.expand_per_port()
        assert [e.egress_port for e in per_port] == [1, 2, 3]
        assert all(e.wire == expectation.wire for e in per_port)

    def test_flood_prediction_without_port_count(self):
        """An oracle that cannot expand a flood must say so: an empty
        egress_ports expectation checks nothing."""
        from repro.p4.stdlib import l2_switch

        with pytest.raises(NetDebugError, match="num_ports"):
            StatelessOracle(l2_switch()).expect(routed_packets(1)[0].pack())

    def test_missing_egress_spec_is_clear_error(self, monkeypatch):
        """A forward prediction without egress_spec metadata must raise
        NetDebugError, not a bare KeyError."""
        from repro.target.batch import BatchProgram

        real_block = BatchProgram.run_block

        def stripped(self, wires, *args, **kwargs):
            outcomes = real_block(self, wires, *args, **kwargs)
            for _, run, _ in outcomes:
                if run is not None:
                    run.result.metadata.pop("egress_spec", None)
            return outcomes

        monkeypatch.setattr(BatchProgram, "run_block", stripped)
        device = routed_device(name="ses-noegress")
        wire = routed_packets(1)[0].pack()
        with pytest.raises(NetDebugError, match="egress_spec"):
            StatelessOracle(device.program).expect(wire)


class TestRunSession:
    def test_empty_session_rejected(self):
        device = routed_device()
        with pytest.raises(NetDebugError):
            run_session(device, ValidationSession(name="empty"))

    def test_out_of_range_ingress_port_rejected_at_setup(self):
        """A bad port fails before any packet is injected, naming the
        stream, the offending index and the device's valid range."""
        device = routed_device(make_sdnet_device)  # 4 ports
        session = ValidationSession(
            name="badport",
            streams=[
                StreamSpec(
                    stream_id=7,
                    packets=routed_packets(3),
                    ingress_ports=[0, 9, 1],
                )
            ],
            use_reference_oracle=True,
        )
        with pytest.raises(
            NetDebugError,
            match=r"stream 7 ingress_ports\[1\] is 9.*0\.\.3",
        ):
            run_session(device, session)

    def test_negative_ingress_port_rejected_at_setup(self):
        device = routed_device()
        session = ValidationSession(
            name="negport",
            streams=[
                StreamSpec(
                    stream_id=1,
                    packets=routed_packets(2),
                    ingress_ports=[-1, 0],
                )
            ],
            use_reference_oracle=True,
        )
        with pytest.raises(
            NetDebugError, match=r"ingress_ports\[0\] is -1"
        ):
            run_session(device, session)

    def test_valid_ingress_ports_still_run(self):
        device = routed_device()
        session = ValidationSession(
            name="goodports",
            streams=[
                StreamSpec(
                    stream_id=1,
                    packets=routed_packets(3),
                    ingress_ports=[0, 1, 2],
                )
            ],
            use_reference_oracle=True,
        )
        report = run_session(device, session)
        assert report.injected == 3

    def test_oracle_session_passes_on_faithful_device(self):
        device = routed_device()
        session = ValidationSession(
            name="ok",
            streams=[StreamSpec(stream_id=1, packets=routed_packets(8))],
            use_reference_oracle=True,
        )
        report = run_session(device, session)
        assert report.passed
        assert report.injected == 8
        assert report.observed == 8
        assert report.program == "ipv4_router"

    def test_oracle_session_fails_on_deviant_device(self):
        device = make_sdnet_device("ses-sd")
        device.load(strict_parser())
        packets = [
            p for p, _ in malformed_mix(default_flow(), 20, 0.5, seed=5)
        ]
        session = ValidationSession(
            name="deviant",
            streams=[
                StreamSpec(stream_id=1, packets=packets,
                           fix_checksums=False)
            ],
            use_reference_oracle=True,
        )
        report = run_session(device, session)
        assert not report.passed
        assert report.findings_of("unexpected_output")

    def test_explicit_expectations(self):
        device = routed_device()
        packets = routed_packets(2)
        session = ValidationSession(
            name="explicit",
            streams=[StreamSpec(stream_id=1, packets=packets)],
            expectations=[
                ExpectedOutput(egress_port=2, label="a"),
                ExpectedOutput(egress_port=3, label="b"),  # wrong
            ],
        )
        report = run_session(device, session)
        assert len(report.findings) == 1
        assert "b" in report.findings[0].message

    def test_too_few_expectations_rejected(self):
        device = routed_device()
        session = ValidationSession(
            name="short",
            streams=[StreamSpec(stream_id=1, packets=routed_packets(3))],
            expectations=[ExpectedOutput(egress_port=2)],
        )
        with pytest.raises(NetDebugError):
            run_session(device, session)

    def test_custom_oracle_callable(self):
        device = routed_device()
        calls = []

        def oracle(wire, port):
            calls.append(wire)
            return ExpectedOutput(egress_port=2)

        session = ValidationSession(
            name="custom",
            streams=[StreamSpec(stream_id=1, packets=routed_packets(3))],
            oracle=oracle,
        )
        report = run_session(device, session)
        assert len(calls) == 3
        assert report.passed

    def test_checks_applied(self):
        device = routed_device()
        session = ValidationSession(
            name="with-checks",
            streams=[StreamSpec(stream_id=1, packets=routed_packets(4))],
            checks=[
                ExprCheck(
                    "ttl-decremented",
                    fld("ipv4", "ttl").eq(63),
                    device.program.env,
                )
            ],
        )
        report = run_session(device, session)
        assert report.checks[0].checked == 4
        assert report.checks[0].ok

    def test_wrapped_streams_count_loss(self):
        from repro.p4.stdlib import reflector

        device = make_reference_device("ses-wrap")
        device.load(reflector())
        session = ValidationSession(
            name="wrapped",
            streams=[
                StreamSpec(
                    stream_id=4,
                    packets=routed_packets(6),
                    wrap=True,
                )
            ],
        )
        report = run_session(device, session)
        assert report.streams[4].received == 6
        assert report.streams[4].lost == 0
        assert report.latency.count == 6

    def test_multiple_streams(self):
        device = routed_device()
        session = ValidationSession(
            name="multi",
            streams=[
                StreamSpec(stream_id=1, packets=routed_packets(2)),
                StreamSpec(stream_id=2, packets=routed_packets(3, seed=1)),
            ],
            use_reference_oracle=True,
        )
        report = run_session(device, session)
        assert report.injected == 5

    def test_flood_oracle_session_passes(self):
        """l2_switch's default action floods: the oracle must expand the
        prediction per port instead of pinning the flood sentinel."""
        from repro.p4.stdlib import l2_switch

        device = make_reference_device("ses-flood")
        device.load(l2_switch())
        session = ValidationSession(
            name="flood",
            streams=[StreamSpec(stream_id=1, packets=routed_packets(4))],
            use_reference_oracle=True,
        )
        report = run_session(device, session)
        assert report.passed

    def test_flood_misroute_is_caught(self):
        """A device unicasting a spec-flooded packet (MISROUTE fault)
        must fail the flood expectation, not sneak through because the
        chosen port happens to be a member of the flood set."""
        from repro.p4.stdlib import l2_switch
        from repro.target.faults import Fault, FaultKind

        device = make_reference_device("ses-misroute")
        device.load(l2_switch())
        device.injector.inject(
            Fault(FaultKind.MISROUTE, stage="deparser", port=3)
        )
        session = ValidationSession(
            name="misroute",
            streams=[StreamSpec(stream_id=1, packets=routed_packets(3))],
            use_reference_oracle=True,
        )
        report = run_session(device, session)
        assert not report.passed
        assert report.findings_of("output_mismatch")

    def test_summary_renders(self):
        device = routed_device()
        session = ValidationSession(
            name="summary",
            streams=[StreamSpec(stream_id=1, packets=routed_packets(2))],
            use_reference_oracle=True,
        )
        report = run_session(device, session)
        text = report.summary()
        assert "summary" in text
        assert "PASS" in text


def _session_device(wrap, name="ses-path"):
    """A reflector for wrapped streams (probes are forwarded back), the
    routed router otherwise."""
    from repro.p4.stdlib import reflector

    if not wrap:
        return routed_device(name=name)
    device = make_reference_device(name)
    device.load(reflector())
    return device


class TestWireFrameStreams:
    """A stream of packed frames is the same stream as its packets."""

    @pytest.mark.parametrize("wrap", [False, True])
    @pytest.mark.parametrize("timed", [False, True])
    def test_frames_report_like_packets_on_both_paths(self, wrap, timed):
        from repro.netdebug.session import _block_eligible

        packets = routed_packets(6)
        reports = {}
        paths = {}
        for path in ("block", "per_packet"):
            for kind, items in (
                ("packets", packets),
                ("frames", [packet.pack() for packet in packets]),
            ):
                device = _session_device(wrap)
                if path == "per_packet":
                    # An observer forces the per-packet path (hooked schedule).
                    device.attach_tap("input", lambda snapshot: None)
                session = ValidationSession(
                    name="frames",
                    streams=[
                        StreamSpec(
                            stream_id=3,
                            packets=items,
                            wrap=wrap,
                            timestamps=(
                                [40 * i + 7 for i in range(6)]
                                if timed else None
                            ),
                        )
                    ],
                    use_reference_oracle=True,
                )
                paths[path, kind] = _block_eligible(device, session)
                reports[path, kind] = run_session(device, session).to_dict()

        assert paths["per_packet", "frames"] == "taps"
        assert paths["block", "frames"] == (
            "untimed wrapped stream" if wrap and not timed else None
        )
        assert paths["block", "packets"] == paths["block", "frames"]
        for path in ("block", "per_packet"):
            assert reports[path, "frames"] == reports[path, "packets"]
        assert reports["block", "frames"] == reports["per_packet", "frames"]
        assert reports["block", "frames"]["passed"]


class TestBlockEligibility:
    """``_block_eligible`` names why a session cannot take the kernel."""

    @staticmethod
    def _reason(device=None, **overrides):
        from repro.netdebug.session import _block_eligible

        stream = overrides.pop("stream", {})
        session = ValidationSession(
            name="why",
            streams=[
                StreamSpec(stream_id=1, packets=routed_packets(2), **stream)
            ],
            use_reference_oracle=True,
            **overrides,
        )
        device = device or _session_device(wrap=False)
        return _block_eligible(device, session)

    def test_eligible_session_has_no_reason(self):
        assert self._reason() is None

    def test_engine(self):
        """No target's engine keeps a session off the batch kernel."""
        from repro.target.tofino import make_tofino_device

        for factory in (
            make_reference_device, make_sdnet_device, make_tofino_device
        ):
            assert self._reason(routed_device(factory, name="why")) is None

    def test_taps(self):
        device = _session_device(wrap=False)
        device.attach_tap("ingress.0", lambda snapshot: None)
        assert self._reason(device) == "taps"

    def test_faults_armed(self):
        from repro.target.faults import Fault, FaultKind

        device = _session_device(wrap=False)
        device.injector.inject(Fault(FaultKind.BLACKHOLE))
        assert self._reason(device) == "faults armed"

    def test_custom_oracle(self):
        assert self._reason(
            oracle=lambda wire, port: ExpectedOutput(forbid=True)
        ) == "custom oracle"

    def test_non_output_tap(self):
        assert self._reason(tap="ingress.0") == "non-output tap"

    def test_mid_pipeline_inject_at(self):
        assert self._reason(stream={"inject_at": "ingress.0"}) == (
            "mid-pipeline inject_at"
        )

    def test_untimed_wrapped_stream(self):
        assert self._reason(stream={"wrap": True}) == (
            "untimed wrapped stream"
        )
