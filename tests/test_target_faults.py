"""Fault injection tests: every fault kind, predicates, management."""

import pytest

from repro.exceptions import TargetError
from repro.p4.interpreter import Verdict
from repro.p4.stdlib import acl_firewall, ipv4_router, l2_switch
from repro.packet.builder import udp_packet
from repro.packet.headers import ipv4, mac
from repro.target.faults import Fault, FaultInjector, FaultKind
from repro.target.reference import make_reference_device


def routed_device(name="flt0"):
    device = make_reference_device(name)
    device.load(ipv4_router())
    device.control_plane.table_add(
        "ipv4_lpm", "route", [(ipv4("10.0.0.0"), 8)],
        [mac("aa:bb:cc:dd:ee:01"), 2],
    )
    return device


WIRE = udp_packet(
    ipv4("10.3.3.3"), ipv4("192.168.0.1"), 53, 99, payload=b"q" * 10
).pack()


class TestInjectorManagement:
    def test_inject_and_remove(self):
        injector = FaultInjector()
        fault = injector.inject(Fault(FaultKind.BLACKHOLE, stage="parser"))
        assert injector.active == [fault]
        injector.remove(fault)
        assert injector.active == []

    def test_remove_inactive_raises(self):
        injector = FaultInjector()
        with pytest.raises(TargetError):
            injector.remove(Fault(FaultKind.BLACKHOLE, stage="parser"))

    def test_clear(self):
        injector = FaultInjector()
        injector.inject(Fault(FaultKind.BLACKHOLE, stage="a"))
        injector.inject(Fault(FaultKind.BLACKHOLE, stage="b"))
        injector.clear()
        assert injector.active == []

    def test_faults_at_filters_by_stage(self):
        injector = FaultInjector()
        fault = injector.inject(Fault(FaultKind.BLACKHOLE, stage="x"))
        assert injector.faults_at("x") == [fault]
        assert injector.faults_at("y") == []

    def test_stuck_tables(self):
        injector = FaultInjector()
        injector.inject(
            Fault(FaultKind.TABLE_STUCK_MISS, stage="ingress.0", table="t")
        )
        assert injector.stuck_tables() == {"t"}


class TestBlackhole:
    def test_eats_packets_at_stage(self):
        device = routed_device()
        device.injector.inject(Fault(FaultKind.BLACKHOLE, stage="ingress.0"))
        assert device.process(WIRE, 0) == []
        assert device.stats.dropped == 1

    def test_removal_restores(self):
        device = routed_device()
        fault = device.injector.inject(
            Fault(FaultKind.BLACKHOLE, stage="ingress.0")
        )
        assert device.process(WIRE, 0) == []
        device.injector.remove(fault)
        assert device.process(WIRE, 0) != []

    def test_predicate_limits_scope(self):
        device = routed_device()
        device.injector.inject(
            Fault(
                FaultKind.BLACKHOLE,
                stage="ingress.0",
                predicate=lambda p: p.has("ipv4")
                and p.get("ipv4")["dst_addr"] == ipv4("10.3.3.3"),
            )
        )
        assert device.process(WIRE, 0) == []
        other = udp_packet(
            ipv4("10.9.9.9"), ipv4("192.168.0.1"), 53, 99
        ).pack()
        assert device.process(other, 0) != []


class TestCorruptField:
    # The deparsed output shares header objects with the parsed input;
    # a corrupt at deparser/output must still flip the field once.
    @pytest.mark.parametrize("stage", ["ingress.0", "deparser", "output"])
    def test_xor_mask_applied(self, stage):
        device = routed_device()
        device.injector.inject(
            Fault(
                FaultKind.CORRUPT_FIELD,
                stage=stage,
                header="ipv4",
                field="ttl",
                mask=0xFF,
            )
        )
        outputs = device.process(WIRE, 0)
        assert outputs
        from repro.packet.builder import parse_ethernet

        out = parse_ethernet(outputs[0][1])
        # Route decremented 64 -> 63, fault XORs with 0xFF -> 192.
        assert out.get("ipv4")["ttl"] == 63 ^ 0xFF

    def test_missing_header_is_noop(self):
        device = make_reference_device("cf0")
        device.load(l2_switch())
        device.control_plane.table_add(
            "dmac", "forward", [mac("ff:ff:ff:ff:ff:ff")], [1]
        )
        device.injector.inject(
            Fault(
                FaultKind.CORRUPT_FIELD,
                stage="ingress.0",
                header="ipv4",
                field="ttl",
                mask=0xFF,
            )
        )
        assert device.process(WIRE, 0)  # still forwards, no crash


class TestMisroute:
    def test_overrides_egress(self):
        device = routed_device()
        device.injector.inject(
            Fault(FaultKind.MISROUTE, stage="deparser", port=3)
        )
        outputs = device.process(WIRE, 0)
        assert [port for port, _ in outputs] == [3]


class TestTruncate:
    def test_payload_truncated(self):
        device = routed_device()
        device.injector.inject(
            Fault(
                FaultKind.TRUNCATE_PAYLOAD, stage="deparser", length=2
            )
        )
        outputs = device.process(WIRE, 0)
        from repro.packet.builder import parse_ethernet

        out = parse_ethernet(outputs[0][1])
        assert len(out.payload) == 2


class TestStuckTable:
    def test_forces_default_action(self):
        device = routed_device()
        device.injector.inject(
            Fault(
                FaultKind.TABLE_STUCK_MISS,
                stage="ingress.0",
                table="ipv4_lpm",
            )
        )
        # Route exists but lookups are stuck at miss -> default drop.
        assert device.process(WIRE, 0) == []
        assert device.stats.dropped == 1

    @pytest.mark.parametrize(
        "factory,table,action,args",
        [
            # A top-level all-EXACT table stage ...
            (l2_switch, "dmac", "forward", [1]),
            # ... and an all-EXACT table nested under an ``if``.
            (acl_firewall, "fwd", "forward", [3]),
        ],
    )
    def test_exact_table_stuck_at_miss(self, factory, table, action, args):
        """A stuck EXACT table (a dict lookup in the kernel) runs exactly
        like the same table with no entries installed, and recovers
        when the fault is removed."""
        dst = mac("02:00:00:00:00:02")
        wire = udp_packet(
            ipv4("10.3.3.3"), ipv4("192.168.0.1"), 53, 99, eth_dst=dst,
        ).pack()

        def egress(device):
            return device.inject(wire, timestamp=0).result.metadata[
                "egress_spec"
            ]

        empty = make_reference_device("stuck-empty")
        empty.load(factory())
        device = make_reference_device("stuck")
        device.load(factory())
        device.control_plane.table_add(table, action, [dst], args)
        hit = egress(device)
        assert hit == args[0] != egress(empty)
        fault = device.injector.inject(
            Fault(FaultKind.TABLE_STUCK_MISS, stage="ingress.0", table=table)
        )
        assert egress(device) == egress(empty)
        device.injector.remove(fault)
        assert egress(device) == hit
