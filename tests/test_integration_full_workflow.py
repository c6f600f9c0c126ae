"""Cross-module integration: text program → compile → validate → archive.

One scenario exercising every layer of the library together, the way a
downstream user would: author a program as text, compile it onto both
targets, configure the control plane, run oracle-based validation with
programmable checks, monitor status under live traffic, localize an
injected fault, and archive the reports.
"""

import json

import pytest

from repro.netdebug import (
    ExprCheck,
    NetDebugController,
    StatelessOracle,
    StreamSpec,
    ValidationSession,
)
from repro.p4 import parse_program
from repro.p4.expr import fld
from repro.packet import ipv4, mac
from repro.sim import Network
from repro.sim.traffic import default_flow, udp_stream
from repro.target import (
    Fault,
    FaultKind,
    make_reference_device,
    make_sdnet_device,
)

SOURCE = """
header ethernet;
header ipv4;
counter seen[8];

parser start {
    extract(ethernet);
    select (ethernet.ether_type) {
        0x0800: parse_ipv4;
        default: reject;
    }
}
parser parse_ipv4 {
    extract(ipv4);
    verify(ipv4.version == 4, 3);
    goto accept;
}

action route(next_hop: 48, port: 9) {
    count(seen, meta.ingress_port);
    set(ethernet.dst_addr, next_hop);
    set(ipv4.ttl, ipv4.ttl - 1);
    forward(port);
}
action drop_all() { drop(); }

table routes {
    key: ipv4.dst_addr lpm;
    actions: route, drop_all;
    default: drop_all;
    size: 64;
}

control ingress { apply(routes); }
deparser { emit(ethernet); emit(ipv4); }
"""


def build_device(factory, name):
    device = factory(name)
    device.load(parse_program(SOURCE, name="workflow_prog"))
    device.control_plane.table_add(
        "routes", "route", [(ipv4("10.0.0.0"), 8)],
        [mac("aa:bb:cc:dd:ee:01"), 1],
    )
    return device


def workload(count=15, seed=4):
    flow = default_flow()
    flow = type(flow)(
        src_ip=flow.src_ip, dst_ip=ipv4("10.8.0.1"),
        src_port=flow.src_port, dst_port=flow.dst_port,
    )
    return list(udp_stream(flow, count, size=110, seed=seed))


class TestFullWorkflow:
    def test_validation_with_checks_and_archive(self, tmp_path):
        device = build_device(make_reference_device, "wf0")
        controller = NetDebugController(device)
        session = ValidationSession(
            name="release-gate",
            streams=[StreamSpec(stream_id=1, packets=workload())],
            checks=[
                ExprCheck(
                    "ttl-decremented",
                    fld("ipv4", "ttl").eq(63),
                    device.program.env,
                )
            ],
            oracle_factory=StatelessOracle,
        )
        report = controller.run(session)
        assert report.passed
        assert report.checks[0].checked == 15

        # Counters moved, visible over the management interface.
        assert device.control_plane.counter_read("seen", 0) == 15
        status = controller.poll_status()
        assert status.status["counters"]["seen"][0] == 15

        # Archive and re-read.
        path = tmp_path / "gate.json"
        controller.save_reports(path)
        loaded = NetDebugController.load_reports(path)
        assert loaded[0]["passed"]
        json.dumps(loaded)

    def test_same_source_diverges_on_sdnet(self):
        reference = build_device(make_reference_device, "wf-ref")
        sdnet = build_device(make_sdnet_device, "wf-sd")
        bad = workload(4)[0]
        bad.get("ipv4")["version"] = 6
        wire = bad.pack()
        assert reference.process(wire, 0) == []
        assert sdnet.process(wire, 0) != []  # the reject-state leak

    def test_fault_localization_after_deployment(self):
        device = build_device(make_reference_device, "wf-fault")
        controller = NetDebugController(device)
        device.injector.inject(
            Fault(FaultKind.BLACKHOLE, stage="ingress.0")
        )
        result = controller.localize_fault(workload(1)[0].pack())
        assert result.found and result.stage == "ingress.0"

    def test_in_network_deployment(self):
        """The compiled text program forwards real simulated traffic."""
        network = Network()
        device = build_device(make_reference_device, "wf-net")
        network.add_device(device)
        network.add_host("src")
        network.add_host("dst")
        network.connect("src", "wf-net", 0)
        network.connect("dst", "wf-net", 1)
        for index, packet in enumerate(workload(10)):
            network.send("src", packet.pack(), at=index * 500.0)
        network.run()
        assert network.hosts["dst"].rx_count() == 10
        # TTL was decremented in flight.
        from repro.packet import parse_ethernet

        received = parse_ethernet(network.hosts["dst"].received[0].wire)
        assert received.get("ipv4")["ttl"] == 63
