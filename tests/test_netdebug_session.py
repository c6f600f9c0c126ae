"""Session orchestration tests: oracles, expectations, reports."""

import itertools

import pytest

from repro.exceptions import NetDebugError
from repro.netdebug.checker import (
    ExpectedOutput,
    ExprCheck,
    LatencyCheck,
    OutputChecker,
)
from repro.netdebug.generator import StreamSpec, wire_of
from repro.netdebug.oracle import StatelessOracle
from repro.netdebug.report import SessionReport
from repro.netdebug.session import ValidationSession, run_session
from repro.netdebug.testpacket import make_probe
from repro.p4.expr import fld
from repro.p4.stdlib import ipv4_router, strict_parser
from repro.packet.builder import ethernet_frame, parse_ethernet, udp_packet
from repro.packet.headers import ipv4, mac
from repro.sim.traffic import default_flow, malformed_mix, udp_stream
from repro.target.device import NetworkDevice
from repro.target.faults import Fault, FaultKind
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


def lockstep_reference(device, session):
    """The session protocol packet by packet, the way a checker wired to
    the device sees it: the checker attached at the output tap, then
    arm → ``device.inject`` → disarm per packet."""
    checker = OutputChecker(device)
    for rule in session.checks:
        checker.add_check(rule)
    factory = session.oracle_factory or (
        StatelessOracle if session.use_reference_oracle else None
    )
    oracle = factory and factory(device.program, num_ports=len(device.ports))
    explicit = iter(session.expectations)
    sent = {}
    with checker:
        for stream in session.streams:
            sent[stream.stream_id] = 0
            for seq_no, packet in enumerate(stream.materialize()):
                ts = stream.timestamp_at(seq_no, device.clock_cycles)
                port = stream.port_at(seq_no)
                wire = make_probe(
                    stream.stream_id, seq_no, timestamp=ts, inner=packet
                ).pack() if stream.wrap else wire_of(packet)
                expectation = next(explicit) if session.expectations else (
                    oracle and oracle.expect(
                        wire, ingress_port=port, timestamp=ts,
                        label=f"s{stream.stream_id}#{seq_no}",
                    )
                )
                if expectation is not None:
                    checker.arm(expectation)
                device.inject(wire, at=stream.inject_at, port=port,
                              timestamp=ts)
                if expectation is not None:
                    checker.disarm()
                sent[stream.stream_id] += 1
        checker.finalize(
            sent if any(s.wrap for s in session.streams) else None
        )
    return SessionReport(
        session=session.name, device=device.name,
        program=device.program.name, checks=checker.outcomes(),
        findings=list(checker.findings), streams=dict(checker.streams),
        latency=checker.latency, injected=sum(sent.values()),
        observed=checker.observed,
    )


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
        """Any callable ``oracle_factory(program, num_ports=...)`` works:
        it is called once per run and its oracle is fed every packet in
        injection order."""
        device = routed_device()
        built, calls = [], []

        class CountingOracle:
            def __init__(self, program, num_ports):
                built.append((program.name, num_ports))

            def expect(self, wire, ingress_port, timestamp, label):
                calls.append((wire, ingress_port, label))
                return ExpectedOutput(egress_port=2, label=label)

        packets = routed_packets(3)
        session = ValidationSession(
            name="custom",
            streams=[StreamSpec(stream_id=1, packets=packets)],
            oracle_factory=CountingOracle,
        )
        report = run_session(device, session)
        assert built == [("ipv4_router", len(device.ports))]
        assert calls == [
            (packet.pack(), 0, f"s1#{seq_no}")
            for seq_no, packet in enumerate(packets)
        ]
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
        """Frames ≡ packets both through ``run_session`` and through
        the lockstep reference, and the two paths agree."""
        packets = routed_packets(6)
        reports = {}
        for path, run in (
            ("session", run_session), ("lockstep", lockstep_reference)
        ):
            for kind, items in (
                ("packets", packets),
                ("frames", [packet.pack() for packet in packets]),
            ):
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
                reports[path, kind] = run(
                    _session_device(wrap), session
                ).to_dict()

        for path in ("session", "lockstep"):
            assert reports[path, "frames"] == reports[path, "packets"]
        assert reports["session", "frames"] == reports["lockstep", "frames"]
        assert reports["session", "frames"]["passed"]


def count_calls(monkeypatch, cls, name):
    """Count calls of ``cls.name`` for the rest of the test."""
    calls = []
    real = getattr(cls, name)

    def counted(self, *args, **kwargs):
        calls.append(name)
        return real(self, *args, **kwargs)

    monkeypatch.setattr(cls, name, counted)
    return calls


class TestBlockEligibility:
    """Every session runs block-wise: each condition that once sent a
    session down a per-packet loop (taps, armed faults, a mid-pipeline
    ``inject_at``, an untimed wrapped stream) now enters the device
    through ``inject_block`` — never ``inject`` — and reports exactly
    what the lockstep reference does."""

    @staticmethod
    def _check(monkeypatch, device=None, blocks=1, **stream):
        def make():
            return device() if device else _session_device(wrap=False)

        session = ValidationSession(
            name="why",
            streams=[
                StreamSpec(stream_id=1, packets=routed_packets(2), **stream)
            ],
            use_reference_oracle=True,
        )
        expected = lockstep_reference(make(), session).to_dict()
        injects = count_calls(monkeypatch, NetworkDevice, "inject")
        block_calls = count_calls(monkeypatch, NetworkDevice, "inject_block")
        report = run_session(make(), session).to_dict()
        assert (len(injects), len(block_calls)) == (0, blocks)
        assert report == expected

    def test_eligible_session_has_no_reason(self, monkeypatch):
        """A plain session: one block, no ``inject``."""
        self._check(monkeypatch)

    def test_engine(self, monkeypatch):
        """No target's engine keeps a session off the batch kernel."""
        from repro.target.tofino import make_tofino_device

        for factory in (
            make_reference_device, make_sdnet_device, make_tofino_device
        ):
            self._check(
                monkeypatch, lambda: routed_device(factory, name="why")
            )
            monkeypatch.undo()

    def test_taps(self, monkeypatch):
        def tapped():
            device = _session_device(wrap=False)
            device.attach_tap("ingress.0", lambda snapshot: None)
            return device

        self._check(monkeypatch, tapped)

    def test_faults_armed(self, monkeypatch):
        def faulted():
            device = _session_device(wrap=False)
            device.injector.inject(Fault(FaultKind.BLACKHOLE))
            return device

        self._check(monkeypatch, faulted)

    def test_mid_pipeline_inject_at(self, monkeypatch):
        self._check(monkeypatch, inject_at="ingress.0")

    def test_untimed_wrapped_stream(self, monkeypatch):
        """Blocks of one: each probe embeds the clock the previous
        packet left."""
        self._check(
            monkeypatch, lambda: _session_device(wrap=True), blocks=2,
            wrap=True,
        )


#: One fault per kind the reference comparison arms, by kind name.
FAULTS = {
    "BLACKHOLE": dict(),
    "CORRUPT_FIELD": dict(header="ethernet", field="src_addr", mask=0xFF),
    "MISROUTE": dict(port=3),
    "TRUNCATE_PAYLOAD": dict(length=8),
    "EXTRA_LATENCY": dict(extra_cycles=40),
}

#: Stream shapes: (wrap, timed).
SHAPES = {
    "bare-untimed": (False, False),
    "bare-timed": (False, True),
    "wrapped-timed": (True, True),
    "wrapped-untimed": (True, False),
}


def _shaped_session(shape):
    wrap, timed = SHAPES[shape]
    return ValidationSession(
        name=f"ref-{shape}",
        streams=[
            StreamSpec(
                stream_id=5,
                packets=routed_packets(6),
                wrap=wrap,
                timestamps=[90 * i + 3 for i in range(6)] if timed else None,
                ingress_ports=[i % 3 for i in range(6)],
            )
        ],
        checks=[LatencyCheck("sla", max_cycles=40)],
        use_reference_oracle=True,
    )


class TestLockstepReference:
    """``run_session`` ≡ the lockstep reference, byte for byte, under
    every fault kind at every stage class and for every stream shape."""

    @pytest.mark.parametrize("shape", sorted(SHAPES))
    @pytest.mark.parametrize(
        "stage", ["parser", "ingress.0", "deparser", "output"]
    )
    @pytest.mark.parametrize("kind", sorted(FAULTS))
    def test_session_matches_lockstep_reference_under_faults(
        self, kind, stage, shape
    ):
        reports = []
        for run in (run_session, lockstep_reference):
            device = _session_device(SHAPES[shape][0], name="ref")
            device.injector.inject(
                Fault(FaultKind[kind], stage=stage, **FAULTS[kind])
            )
            reports.append(run(device, _shaped_session(shape)).to_dict())
        assert reports[0] == reports[1]
        assert reports[0]["injected"] == 6

    def test_user_tap_sees_the_same_packets(self):
        """A user's taps see every packet at every stage, in the same
        order and state, and the report is unchanged by them."""
        seen, reports = [], []
        for run in (run_session, lockstep_reference):
            device = _session_device(True, name="ref")
            # Kills every other packet at the output stage.
            parity = itertools.cycle((True, False))
            device.injector.inject(
                Fault(FaultKind.BLACKHOLE, stage="output",
                      predicate=lambda packet, parity=parity: next(parity))
            )
            log = []
            for stage in ("ingress.0", "output"):
                device.attach_tap(stage, lambda snap, log=log: log.append(
                    (snap.stage, snap.wire, snap.alive,
                     snap.metadata.get("_cycles_elapsed"))
                ))
            reports.append(
                run(device, _shaped_session("wrapped-untimed")).to_dict()
            )
            seen.append(log)
        assert reports[0] == reports[1]
        assert seen[0] == seen[1]
        assert [alive for stage, _, alive, _ in seen[0]] == [
            True, False, True, True,
        ] * 3

    def test_raising_packet_raises_like_lockstep(self):
        """A packet the device cannot run raises the lockstep loop's
        typed error with its message."""
        from repro.exceptions import P4RuntimeError

        errors = []
        for run in (run_session, lockstep_reference):
            device = routed_device(make_sdnet_device, name="ref-raise")
            session = ValidationSession(
                name="raise",
                streams=[
                    StreamSpec(
                        stream_id=1,
                        packets=[*routed_packets(2), b"\x00" * 5],
                    )
                ],
                use_reference_oracle=True,
            )
            with pytest.raises(P4RuntimeError) as caught:
                run(device, session)
            errors.append((type(caught.value), str(caught.value)))
        assert errors[0] == errors[1]
