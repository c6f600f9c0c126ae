"""Generator tests: sweeps, fuzzing, wrapping, injection bookkeeping."""

import pytest

from repro.exceptions import NetDebugError
from repro.netdebug.generator import (
    FieldFuzz,
    FieldSweep,
    PacketGenerator,
    StreamSpec,
)
from repro.netdebug.testpacket import decode_probe
from repro.p4.interpreter import Verdict
from repro.p4.stdlib import l2_switch, reflector
from repro.packet.builder import udp_packet
from repro.packet.checksum import verify_ipv4_checksum
from repro.packet.headers import ipv4, mac
from repro.target.reference import make_reference_device


def template():
    return udp_packet(
        ipv4("10.1.0.1"), ipv4("10.0.0.1"), 5000, 1024, payload=b"tmpl"
    )


def loaded_device(name="gen0"):
    device = make_reference_device(name)
    device.load(reflector())
    return device


class TestFieldSweep:
    def test_explicit_values_cycle(self):
        sweep = FieldSweep("ipv4.ttl", values=(1, 2, 3))
        assert [sweep.value_at(i) for i in range(5)] == [1, 2, 3, 1, 2]

    def test_range_sweep(self):
        sweep = FieldSweep("udp.dst_port", start=100, stop=110, step=5)
        assert [sweep.value_at(i) for i in range(3)] == [100, 105, 100]

    def test_materialized_in_packets(self):
        spec = StreamSpec(
            stream_id=1,
            template=template(),
            count=4,
            sweeps=[FieldSweep("ipv4.ttl", values=(10, 20))],
        )
        ttls = [p.get("ipv4")["ttl"] for p in spec.materialize()]
        assert ttls == [10, 20, 10, 20]

    def test_checksums_fixed_after_sweep(self):
        spec = StreamSpec(
            stream_id=1,
            template=template(),
            count=3,
            sweeps=[FieldSweep("ipv4.ttl", values=(10, 20, 30))],
        )
        for packet in spec.materialize():
            assert verify_ipv4_checksum(packet)

    def test_checksum_fixing_optional(self):
        spec = StreamSpec(
            stream_id=1,
            template=template(),
            count=1,
            sweeps=[FieldSweep("ipv4.ttl", values=(9,))],
            fix_checksums=False,
        )
        packet = next(spec.materialize())
        assert not verify_ipv4_checksum(packet)


class TestFieldFuzz:
    def test_deterministic_per_seed(self):
        def ports(seed):
            spec = StreamSpec(
                stream_id=4,
                template=template(),
                count=6,
                fuzzes=[FieldFuzz("udp.src_port", seed=seed)],
            )
            return [p.get("udp")["src_port"] for p in spec.materialize()]

        assert ports(1) == ports(1)
        assert ports(1) != ports(2)

    def test_values_within_width(self):
        spec = StreamSpec(
            stream_id=4,
            template=template(),
            count=20,
            fuzzes=[FieldFuzz("ipv4.ttl", seed=0)],
        )
        for packet in spec.materialize():
            assert 0 <= packet.get("ipv4")["ttl"] <= 255


class TestStreamSpec:
    def test_explicit_packet_list(self):
        packets = [template(), template()]
        spec = StreamSpec(stream_id=1, packets=packets)
        materialized = list(spec.materialize())
        assert len(materialized) == 2
        assert materialized[0] is not packets[0]  # copies

    def test_wire_frames_are_not_copied(self):
        frames = [template().pack(), template().pack()]
        spec = StreamSpec(stream_id=1, packets=frames)
        materialized = list(spec.materialize())
        assert len(materialized) == 2
        assert all(got is want for got, want in zip(materialized, frames))

    def test_template_required(self):
        spec = StreamSpec(stream_id=1)
        with pytest.raises(NetDebugError):
            list(spec.materialize())


class TestGenerator:
    def test_configure_and_run(self):
        device = loaded_device()
        generator = PacketGenerator(device)
        generator.configure(
            StreamSpec(stream_id=2, template=template(), count=5)
        )
        records = generator.run_stream(2)
        assert len(records) == 5
        assert [r.seq_no for r in records] == list(range(5))
        assert all(
            r.run.result.verdict is Verdict.FORWARDED for r in records
        )
        assert generator.injected == records

    def test_configure_requires_source(self):
        generator = PacketGenerator(loaded_device())
        with pytest.raises(NetDebugError):
            generator.configure(StreamSpec(stream_id=1))

    def test_unknown_stream(self):
        generator = PacketGenerator(loaded_device())
        with pytest.raises(NetDebugError):
            generator.run_stream(7)
        with pytest.raises(NetDebugError):
            generator.remove_stream(7)

    def test_remove_stream(self):
        generator = PacketGenerator(loaded_device())
        generator.configure(
            StreamSpec(stream_id=1, template=template(), count=1)
        )
        generator.remove_stream(1)
        assert generator.streams == []

    def test_wrapped_probes_carry_headers(self):
        device = loaded_device()
        generator = PacketGenerator(device)
        generator.configure(
            StreamSpec(stream_id=9, template=template(), count=3, wrap=True)
        )
        records = generator.run_stream(9)
        for record in records:
            info = decode_probe(record.wire)
            assert info is not None
            assert info.stream_id == 9

    @pytest.mark.parametrize("wrap", [False, True])
    def test_wire_frames_inject_like_packets(self, wrap):
        packets = [template(), template()]
        records = {}
        for kind, items in (
            ("packets", packets),
            ("frames", [packet.pack() for packet in packets]),
        ):
            generator = PacketGenerator(loaded_device())
            generator.configure(
                StreamSpec(stream_id=4, packets=items, wrap=wrap)
            )
            records[kind] = [
                (r.wire, r.timestamp, r.run.output_wire)
                for r in generator.run_stream(4)
            ]
        assert records["frames"] == records["packets"]

    def test_run_all_in_stream_order(self):
        device = loaded_device()
        generator = PacketGenerator(device)
        generator.configure(
            StreamSpec(stream_id=5, template=template(), count=1)
        )
        generator.configure(
            StreamSpec(stream_id=3, template=template(), count=1)
        )
        records = generator.run_all()
        assert [r.stream_id for r in records] == [3, 5]

    def test_injection_bypasses_ports(self):
        device = loaded_device()
        generator = PacketGenerator(device)
        generator.configure(
            StreamSpec(stream_id=1, template=template(), count=4)
        )
        generator.run_stream(1)
        assert all(p.rx_packets == 0 for p in device.ports)
        assert all(p.tx_packets == 0 for p in device.ports)

    def test_scheduled_stream_on_simulator(self):
        from repro.sim.events import Simulator

        device = loaded_device()
        generator = PacketGenerator(device)
        generator.configure(
            StreamSpec(
                stream_id=1, template=template(), count=10, rate_pps=1e6
            )
        )
        sim = Simulator()
        count = generator.schedule_stream(1, sim)
        assert count == 10
        sim.run()
        assert len(generator.injected) == 10
        assert sim.now == pytest.approx(9_000.0)

    def test_scheduled_stream_honours_ingress_ports(self):
        """Simulator-timed injection enters each packet on the stream's
        own ingress port, as ``run_stream`` does."""
        from repro.sim.events import Simulator

        entered = {}
        for path in ("scheduled", "run_stream"):
            generator = PacketGenerator(loaded_device())
            generator.configure(
                StreamSpec(
                    stream_id=1, template=template(), count=4,
                    ingress_ports=[0, 1, 2, 3],
                )
            )
            if path == "scheduled":
                sim = Simulator()
                generator.schedule_stream(1, sim)
                sim.run()
            else:
                generator.run_stream(1)
            entered[path] = [
                record.run.result.metadata["ingress_port"]
                for record in generator.injected
            ]
        assert entered["scheduled"] == entered["run_stream"] == [0, 1, 2, 3]
