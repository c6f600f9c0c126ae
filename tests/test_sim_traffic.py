"""Traffic generator tests: determinism, sizes, malformed mixes."""

import pytest

from repro.p4.interpreter import Interpreter, Verdict
from repro.p4.stdlib import strict_parser
from repro.sim.traffic import (
    FlowSpec,
    IMIX_DISTRIBUTION,
    constant_rate_times,
    default_flow,
    imix_stream,
    malformed_mix,
    pad_to_size,
    poisson_times,
    udp_stream,
)
from repro.packet.builder import udp_packet
from repro.packet.headers import ipv4


class TestPadding:
    def test_pads_to_exact_size(self):
        packet = udp_packet(ipv4("1.1.1.1"), ipv4("2.2.2.2"), 53, 9)
        padded = pad_to_size(packet, 128)
        assert padded.wire_length == 128

    def test_truncates_oversized_payload(self):
        packet = udp_packet(
            ipv4("1.1.1.1"), ipv4("2.2.2.2"), 53, 9, payload=b"x" * 200
        )
        padded = pad_to_size(packet, 64)
        assert padded.wire_length == 64

    def test_too_small_rejected(self):
        packet = udp_packet(ipv4("1.1.1.1"), ipv4("2.2.2.2"), 53, 9)
        with pytest.raises(ValueError):
            pad_to_size(packet, 10)

    def test_original_untouched(self):
        packet = udp_packet(ipv4("1.1.1.1"), ipv4("2.2.2.2"), 53, 9)
        pad_to_size(packet, 500)
        assert packet.wire_length < 500


class TestArrivalTimes:
    def test_constant_rate(self):
        times = list(constant_rate_times(1e6, 4))
        assert times == [0.0, 1000.0, 2000.0, 3000.0]

    def test_poisson_monotone_and_seeded(self):
        a = list(poisson_times(1e6, 50, seed=1))
        b = list(poisson_times(1e6, 50, seed=1))
        c = list(poisson_times(1e6, 50, seed=2))
        assert a == b
        assert a != c
        assert all(x < y for x, y in zip(a, a[1:]))

    def test_poisson_mean_close_to_rate(self):
        times = list(poisson_times(1e6, 2000, seed=3))
        mean_gap = times[-1] / len(times)
        assert 800 < mean_gap < 1250  # ~1000ns nominal


class TestUdpStream:
    def test_count_and_size(self):
        packets = list(udp_stream(default_flow(), 10, size=200))
        assert len(packets) == 10
        assert all(p.wire_length == 200 for p in packets)

    def test_deterministic_per_seed(self):
        a = [p.pack() for p in udp_stream(default_flow(), 5, seed=9)]
        b = [p.pack() for p in udp_stream(default_flow(), 5, seed=9)]
        assert a == b

    def test_five_tuple_applied(self):
        flow = FlowSpec(
            src_ip=ipv4("1.2.3.4"),
            dst_ip=ipv4("5.6.7.8"),
            src_port=111,
            dst_port=222,
        )
        packet = next(udp_stream(flow, 1))
        assert packet.get("ipv4")["src_addr"] == ipv4("1.2.3.4")
        assert packet.get("udp")["dst_port"] == 222

    def test_checksums_valid(self):
        from repro.packet.checksum import verify_ipv4_checksum

        for packet in udp_stream(default_flow(), 5, size=100):
            assert verify_ipv4_checksum(packet)


class TestImix:
    def test_sizes_from_distribution(self):
        allowed = {size for size, _ in IMIX_DISTRIBUTION}
        packets = list(imix_stream(default_flow(), 50, seed=4))
        assert {p.wire_length for p in packets} <= allowed

    def test_small_frames_dominate(self):
        packets = list(imix_stream(default_flow(), 600, seed=5))
        small = sum(1 for p in packets if p.wire_length == 64)
        large = sum(1 for p in packets if p.wire_length == 1518)
        assert small > large


class TestMalformedMix:
    def test_labels_are_truthful(self):
        """Every label must agree with the strict parser's spec verdict."""
        program = strict_parser()
        for packet, malformed in malformed_mix(default_flow(), 60, 0.5, 11):
            result = Interpreter(program).process(packet.pack())
            if malformed:
                assert result.verdict is Verdict.PARSER_REJECTED
            else:
                assert result.verdict is Verdict.FORWARDED

    def test_fraction_respected_roughly(self):
        out = list(malformed_mix(default_flow(), 400, 0.5, seed=2))
        bad = sum(1 for _, malformed in out if malformed)
        assert 120 < bad < 280

    def test_all_good_when_zero_fraction(self):
        out = list(malformed_mix(default_flow(), 20, 0.0, seed=2))
        assert all(not malformed for _, malformed in out)

    def test_deterministic(self):
        a = [(p.pack(), m) for p, m in malformed_mix(default_flow(), 20, 0.5, 7)]
        b = [(p.pack(), m) for p, m in malformed_mix(default_flow(), 20, 0.5, 7)]
        assert a == b


class TestDefaultFlow:
    def test_indexed_flows_distinct(self):
        assert default_flow(0) != default_flow(1)


class TestRateGuards:
    """rate_pps <= 0 must raise SimulationError eagerly, not divide by
    zero (constant) or silently generate infinite gaps (poisson)."""

    @pytest.mark.parametrize("rate", [0, 0.0, -1, -1e6, float("inf"),
                                      float("nan")])
    def test_constant_rate_rejects_bad_rate(self, rate):
        from repro.exceptions import SimulationError

        with pytest.raises(SimulationError):
            constant_rate_times(rate, 5)

    @pytest.mark.parametrize("rate", [0, -2.5, float("inf")])
    def test_poisson_rejects_bad_rate(self, rate):
        from repro.exceptions import SimulationError

        with pytest.raises(SimulationError):
            poisson_times(rate, 5)

    def test_error_is_eager_not_deferred(self):
        """The guard fires at call time, before any iteration."""
        from repro.exceptions import SimulationError

        with pytest.raises(SimulationError):
            constant_rate_times(0, 5)  # never iterated

    def test_valid_rates_still_work(self):
        assert len(list(constant_rate_times(1e6, 4))) == 4
        assert len(list(poisson_times(1e6, 4, seed=1))) == 4


class TestWorkloadRegistry:
    def test_known_workloads_materialize(self):
        import repro.netdebug.campaign  # noqa: F401  (registers "coverage")
        from repro.sim.traffic import WORKLOADS, build_workload

        assert set(WORKLOADS) == {
            "udp", "imix", "poisson", "burst", "onoff", "malformed",
            "tcp_bidir", "int_probe", "coverage",
        }
        for name in WORKLOADS:
            if name == "coverage":
                # Needs a compiled-program context; exercised in
                # tests/test_coverage.py instead.
                continue
            bundle = build_workload(name, default_flow(), 6, seed=2)
            assert bundle.name == name
            assert len(bundle.packets) == 6

    def test_poisson_carries_arrival_times(self):
        from repro.sim.traffic import build_workload

        bundle = build_workload("poisson", default_flow(), 8, seed=3)
        assert bundle.times_ns is not None
        assert len(bundle.times_ns) == 8
        assert list(bundle.times_ns) == sorted(bundle.times_ns)
        assert build_workload("udp", default_flow(), 8).times_ns is None

    def test_deterministic_per_seed(self):
        from repro.sim.traffic import build_workload

        a = build_workload("imix", default_flow(), 10, seed=5)
        b = build_workload("imix", default_flow(), 10, seed=5)
        c = build_workload("imix", default_flow(), 10, seed=6)
        assert [p.pack() for p in a.packets] == [p.pack() for p in b.packets]
        assert [p.pack() for p in a.packets] != [p.pack() for p in c.packets]

    def test_burst_workload_is_seed_deterministic_and_bursty(self):
        from repro.sim.traffic import build_workload

        a = build_workload("burst", default_flow(), 24, seed=7)
        b = build_workload("burst", default_flow(), 24, seed=7)
        c = build_workload("burst", default_flow(), 24, seed=8)
        assert a.times_ns == b.times_ns
        assert a.times_ns != c.times_ns
        assert list(a.times_ns) == sorted(a.times_ns)
        gaps = [
            second - first
            for first, second in zip(a.times_ns, a.times_ns[1:])
        ]
        # Trains at the peak rate separated by much longer idle gaps.
        assert max(gaps) > 5 * min(gaps)

    def test_onoff_workload_is_seed_deterministic_two_state(self):
        from repro.sim.traffic import build_workload

        a = build_workload("onoff", default_flow(), 40, seed=3)
        b = build_workload("onoff", default_flow(), 40, seed=3)
        assert a.times_ns == b.times_ns
        assert list(a.times_ns) == sorted(a.times_ns)
        gaps = {
            round(second - first, 3)
            for first, second in zip(a.times_ns, a.times_ns[1:])
        }
        # ON gaps plus at least one OFF-dwell-stretched gap.
        assert len(gaps) > 1
        assert max(gaps) > 5 * min(gaps)

    @pytest.mark.parametrize("rate", [0.0, -1.0, float("nan")])
    def test_burst_and_onoff_reject_bad_rates_eagerly(self, rate):
        from repro.exceptions import SimulationError
        from repro.sim.traffic import burst_times, onoff_times

        with pytest.raises(SimulationError):
            burst_times(rate, 4)
        with pytest.raises(SimulationError):
            onoff_times(rate, 4)

    def test_burst_shape_parameters_validated(self):
        from repro.exceptions import SimulationError
        from repro.sim.traffic import burst_times, onoff_times

        with pytest.raises(SimulationError, match="burst_size"):
            burst_times(1e6, 4, burst_size=0)
        with pytest.raises(SimulationError, match="duty_cycle"):
            burst_times(1e6, 4, duty_cycle=1.5)
        with pytest.raises(SimulationError, match="p_on_off"):
            onoff_times(1e6, 4, p_on_off=0.0)
        with pytest.raises(SimulationError, match="off_scale"):
            onoff_times(1e6, 4, off_scale=-1.0)

    def test_unknown_workload_lists_registry(self):
        from repro.exceptions import SimulationError
        from repro.sim.traffic import build_workload

        with pytest.raises(SimulationError, match="udp"):
            build_workload("voip", default_flow(), 4)

    def test_negative_count_rejected(self):
        from repro.exceptions import SimulationError
        from repro.sim.traffic import build_workload

        with pytest.raises(SimulationError):
            build_workload("udp", default_flow(), -1)
