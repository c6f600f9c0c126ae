"""System-level property tests (hypothesis) across module boundaries.

These pin down invariants that hold for *arbitrary* inputs, not just the
curated cases: interpreter determinism, device/interpreter agreement,
oracle self-consistency, deparse round-trip stability, and the
statistical quality of ECMP spreading.
"""

from hypothesis import given, settings, strategies as st

from repro.controlplane import RuntimeAPI
from repro.netdebug.oracle import StatelessOracle
from repro.p4.interpreter import Interpreter, RuntimeState, Verdict
from repro.p4.stdlib import ecmp_load_balancer, ipv4_router, strict_parser
from repro.packet.builder import udp_packet
from repro.packet.headers import ipv4, mac
from repro.target.limits import SDNET_MODEL


def routed_router():
    program = ipv4_router()
    RuntimeAPI(program, RuntimeState.for_program(program)).table_add(
        "ipv4_lpm", "route", [(ipv4("10.0.0.0"), 8)],
        [mac("aa:bb:cc:dd:ee:01"), 2],
    )
    return program


udp_args = st.tuples(
    st.integers(min_value=0, max_value=0xFFFFFFFF),  # dst ip
    st.integers(min_value=0, max_value=0xFFFFFFFF),  # src ip
    st.integers(min_value=0, max_value=0xFFFF),      # dst port
    st.integers(min_value=0, max_value=0xFFFF),      # src port
    st.integers(min_value=0, max_value=255),         # ttl
    st.binary(max_size=32),                          # payload
)


def build_wire(args) -> bytes:
    dst, src, dport, sport, ttl, payload = args
    return udp_packet(
        dst, src, dport, sport, ttl=ttl, payload=payload
    ).pack()


class TestInterpreterDeterminism:
    @given(udp_args)
    @settings(max_examples=40)
    def test_same_input_same_output(self, args):
        wire = build_wire(args)
        program = routed_router()
        a = Interpreter(program).process(wire)
        b = Interpreter(program).process(wire)
        assert a.verdict == b.verdict
        if a.packet is not None:
            assert a.packet.pack() == b.packet.pack()
            assert a.metadata["egress_spec"] == b.metadata["egress_spec"]

    @given(udp_args)
    @settings(max_examples=40)
    def test_device_agrees_with_interpreter(self, args):
        """A reference device is the interpreter plus plumbing."""
        from repro.target.reference import make_reference_device

        wire = build_wire(args)
        program = routed_router()
        interp_result = Interpreter(program).process(wire)

        device = make_reference_device("prop-dev")
        device.load(routed_router())
        run = device.inject(wire)
        assert run.result.verdict == interp_result.verdict
        if interp_result.packet is not None:
            assert run.result.packet.pack() == interp_result.packet.pack()


class TestOracleConsistency:
    @given(udp_args)
    @settings(max_examples=40)
    def test_oracle_never_contradicts_reference_device(self, args):
        """What the oracle predicts, the faithful target does."""
        from repro.target.reference import make_reference_device

        wire = build_wire(args)
        device = make_reference_device("prop-oracle")
        device.load(routed_router())
        expectation = StatelessOracle(device.program).expect(wire)
        run = device.inject(wire)
        if expectation.forbid:
            assert run.result.verdict is not Verdict.FORWARDED
        else:
            assert run.result.verdict is Verdict.FORWARDED
            assert run.result.packet.pack() == expectation.wire
            assert (
                run.result.metadata["egress_spec"]
                == expectation.egress_port
            )


class TestRejectPartition:
    @given(udp_args)
    @settings(max_examples=40)
    def test_verdicts_partition_on_honor_reject(self, args):
        """Not honoring ``reject`` only ever flips PARSER_REJECTED to
        FORWARDED."""
        wire = build_wire(args)
        program = strict_parser()
        faithful = Interpreter(program).process(wire)
        deviant = Interpreter(program, model=SDNET_MODEL).process(wire)
        if faithful.verdict is Verdict.PARSER_REJECTED:
            assert deviant.verdict is Verdict.FORWARDED
        else:
            assert faithful.verdict == deviant.verdict
            assert faithful.packet.pack() == deviant.packet.pack()


class TestDeparseStability:
    @given(udp_args)
    @settings(max_examples=40)
    def test_reprocessing_output_is_stable(self, args):
        """Pushing a forwarded packet through again is idempotent
        modulo the TTL decrement."""
        wire = build_wire(args)
        program = routed_router()
        first = Interpreter(program).process(wire)
        if first.verdict is not Verdict.FORWARDED or not first.packet.has(
            "ipv4"
        ):
            return
        second = Interpreter(program).process(first.packet.pack())
        if second.verdict is Verdict.FORWARDED and second.packet.has("ipv4"):
            assert (
                second.packet.get("ipv4")["ttl"]
                == first.packet.get("ipv4")["ttl"] - 1
            )


class TestEcmpSpreadQuality:
    def test_chi_square_balance(self):
        """Hash spreading over buckets is statistically uniform."""
        from scipy import stats

        group = 8
        program = ecmp_load_balancer(group_size=group)
        api = RuntimeAPI(program, RuntimeState.for_program(program))
        for bucket in range(group):
            api.table_add(
                "ecmp_group", "to_nexthop", [bucket], [bucket + 1, bucket]
            )
        interp = Interpreter(program)
        counts = [0] * group
        for sport in range(2000):
            wire = udp_packet(
                ipv4("10.0.0.9"), ipv4("10.1.0.1"), 80, sport
            ).pack()
            result = interp.process(wire)
            assert result.verdict is Verdict.FORWARDED
            counts[result.egress_port] += 1
        # Chi-square goodness of fit against the uniform distribution.
        _, p_value = stats.chisquare(counts)
        assert p_value > 0.001, f"ECMP severely imbalanced: {counts}"
        assert min(counts) > 0
