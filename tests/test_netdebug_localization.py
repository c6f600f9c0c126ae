"""Fault localization tests across stages and fault kinds."""

import pytest

from repro.netdebug.localization import bisect_fault, localize, localize_fault
from repro.p4.stdlib import acl_firewall, ipv4_router
from repro.packet.builder import udp_packet
from repro.packet.headers import ipv4, mac
from repro.target.faults import Fault, FaultKind
from repro.target.reference import make_reference_device


def routed_device(name="loc0", program_factory=ipv4_router):
    device = make_reference_device(name)
    device.load(program_factory())
    if program_factory is ipv4_router:
        device.control_plane.table_add(
            "ipv4_lpm", "route", [(ipv4("10.0.0.0"), 8)],
            [mac("aa:bb:cc:dd:ee:01"), 2],
        )
    else:
        device.control_plane.table_add(
            "fwd", "forward", [mac("ff:ff:ff:ff:ff:ff")], [2]
        )
    return device


WIRE = udp_packet(
    ipv4("10.6.6.6"), ipv4("192.168.0.1"), 53, 99, payload=b"lq"
).pack()


class TestPassive:
    @pytest.mark.parametrize(
        "stage", ["parser", "ingress.0", "deparser"]
    )
    def test_blackhole_located_at_any_stage(self, stage):
        device = routed_device(f"loc-{stage}")
        device.injector.inject(Fault(FaultKind.BLACKHOLE, stage=stage))
        result = localize_fault(device, WIRE)
        assert result.found
        assert result.stage == stage
        assert result.injections_used == 1

    def test_healthy_device_reports_nothing(self):
        device = routed_device("loc-ok")
        result = localize_fault(device, WIRE)
        assert not result.found

    def test_program_drop_also_located(self):
        """Intended drops surface at their stage; intent is caller's job."""
        device = make_reference_device("loc-drop")
        device.load(ipv4_router())  # no routes -> drop at ingress.0
        result = localize_fault(device, WIRE)
        assert result.found
        assert result.stage == "ingress.0"

    def test_evidence_trail(self):
        device = routed_device("loc-ev")
        device.injector.inject(
            Fault(FaultKind.BLACKHOLE, stage="ingress.0")
        )
        result = localize_fault(device, WIRE)
        assert any("parser" in line for line in result.evidence)

    def test_observers_cleaned_up(self):
        device = routed_device("loc-clean")
        localize_fault(device, WIRE)
        # No taps left behind: a new injection publishes to nobody.
        assert all(
            not observers
            for observers in device._taps.values()
        )


class TestActiveBisection:
    @pytest.mark.parametrize("stage", ["ingress.0", "deparser"])
    def test_brackets_fault(self, stage):
        device = routed_device(f"bis-{stage}")
        device.injector.inject(Fault(FaultKind.BLACKHOLE, stage=stage))
        result = bisect_fault(device, WIRE)
        assert result.found
        assert result.stage == stage

    def test_healthy_device(self):
        device = routed_device("bis-ok")
        result = bisect_fault(device, WIRE)
        assert not result.found

    def test_logarithmic_injections(self):
        device = routed_device("bis-log", acl_firewall)
        device.injector.inject(
            Fault(FaultKind.BLACKHOLE, stage="ingress.1")
        )
        result = bisect_fault(device, WIRE)
        stages = len(device.stage_names())
        assert result.found
        # 1 initial + ceil(log2(stages)) bisection probes, generously.
        assert result.injections_used <= 2 + stages.bit_length()


class TestCombined:
    def test_localize_prefers_passive(self):
        device = routed_device("cmb0")
        device.injector.inject(
            Fault(FaultKind.BLACKHOLE, stage="ingress.0")
        )
        result = localize(device, WIRE)
        assert result.found
        assert "passive" in result.method

    def test_localize_healthy(self):
        device = routed_device("cmb1")
        result = localize(device, WIRE)
        assert not result.found

    def test_str_rendering(self):
        device = routed_device("cmb2")
        device.injector.inject(
            Fault(FaultKind.BLACKHOLE, stage="parser")
        )
        result = localize(device, WIRE)
        assert "parser" in str(result)
        healthy = localize(routed_device("cmb3"), WIRE)
        assert "no fault" in str(healthy)
