"""The compiled spec oracle predicts exactly what the tree oracle did.

:class:`~repro.netdebug.oracle.ReferenceOracle` predicts with
spec-faithful closures (:meth:`repro.target.fastpath.FastProgram.run`).
The oracle it replaced ran the tree-walking
:class:`~repro.p4.interpreter.Interpreter` with ``honor_reject=True``:
one long-lived interpreter for the stateful oracle, a fresh one per
packet for the stateless oracle. Those interpreter-backed oracles are
rebuilt here, and every field of every expectation must match, on every
stdlib program (with table entries installed) under valid, malformed,
multi-size, bidirectional and timestamped traffic.
"""

import pytest

from repro.exceptions import NetDebugError
from repro.netdebug.oracle import ReferenceOracle, StatelessOracle
from repro.p4.actions import CountPacket, Drop, Exit, Forward
from repro.p4.control import Call, If
from repro.p4.dsl import ProgramBuilder
from repro.p4.expr import Const, fld
from repro.p4.interpreter import Interpreter
from repro.p4.stdlib import PROGRAMS, l2_switch
from repro.packet.builder import ethernet_frame, udp_packet, vlan_tagged
from repro.packet.headers import ETHERNET, ipv4, mac
from repro.sim.traffic import build_workload, default_flow
from repro.target.fastpath import FastProgram
from repro.target.reference import make_reference_device

from tests.test_target_fastpath_differential import (
    install_entries,
    workload as differential_frames,
)

#: Campaign workloads, plus ``frames``: the fastpath differential
#: suite's degenerate, VLAN-tagged and TCP frames and one frame the
#: installed ``vlan_fwd`` entry forwards.
WORKLOADS = ("udp", "malformed", "imix", "tcp_bidir", "int_probe", "frames")
COUNT = 40


class TreeOracle(ReferenceOracle):
    """The interpreter-backed stateful oracle: one long-lived
    interpreter whose registers persist across packets."""

    def __init__(self, program, num_ports=None):
        super().__init__(program, num_ports)
        self.interpreter = Interpreter(program, honor_reject=True)

    def _process(self, wire, ingress_port, timestamp):
        return self.interpreter.process(
            wire, ingress_port=ingress_port, timestamp=timestamp
        )


class StatelessTreeOracle(ReferenceOracle):
    """The interpreter-backed stateless oracle: a fresh interpreter per
    packet."""

    stateful = False

    def _process(self, wire, ingress_port, timestamp):
        return Interpreter(self.program, honor_reject=True).process(
            wire, ingress_port=ingress_port, timestamp=timestamp
        )


PAIRS = {
    "stateless": (StatelessOracle, StatelessTreeOracle),
    "stateful": (ReferenceOracle, TreeOracle),
}


def provisioned(name):
    device = make_reference_device(f"oracle-{name}")
    device.load(PROGRAMS[name]())
    install_entries(device)
    return device


def traffic(name, index):
    """(wire, ingress port, timestamp) for one named workload."""
    if name == "frames":
        routed = vlan_tagged(
            udp_packet(
                ipv4("10.0.0.9"), ipv4("10.9.0.0"), 53, 99,
                eth_dst=mac("02:00:00:00:00:02"),
            ),
            vid=5,
        )
        frames = differential_frames() + [routed.pack()]
        return [(wire, 0, 0) for wire in frames]
    bundle = build_workload(name, default_flow(index), COUNT, seed=2018)
    ports = bundle.ingress_ports or (0,) * COUNT
    times = bundle.times_ns or (0,) * COUNT
    return [
        (packet.pack(), port, int(time))
        for packet, port, time in zip(bundle.packets, ports, times)
    ]


def fields(oracle, wire, port, timestamp):
    """Every field of one expectation, or the error it raised."""
    try:
        e = oracle.expect(wire, ingress_port=port, timestamp=timestamp)
    except NetDebugError as exc:
        return ("raised", str(exc))
    return (e.forbid, e.wire, e.egress_port, e.egress_ports, e.label)


@pytest.mark.parametrize("kind", sorted(PAIRS))
@pytest.mark.parametrize("name", sorted(PROGRAMS))
def test_compiled_oracle_matches_tree_oracle(name, kind):
    device = provisioned(name)
    compiled_cls, tree_cls = PAIRS[kind]
    num_ports = len(device.ports)
    outcomes = set()
    for index, workload in enumerate(WORKLOADS):
        # A fresh pair per workload, so each run starts from zero state.
        compiled = compiled_cls(device.program, num_ports=num_ports)
        tree = tree_cls(device.program, num_ports=num_ports)
        for packet, (wire, port, timestamp) in enumerate(
            traffic(workload, index)
        ):
            got = fields(compiled, wire, port, timestamp)
            want = fields(tree, wire, port, timestamp)
            assert got == want, f"{name}/{workload} packet {packet}"
            outcomes.add(got[-1] if got[0] != "raised" else "raised")
        if kind == "stateful":
            assert compiled.state.registers == tree.interpreter.state.registers
            assert compiled.state.counters == tree.interpreter.state.counters
    assert "raised" not in outcomes
    assert outcomes & {"reference-output", "reference-flood"}, (
        f"{name}: no forwarded packet, the comparison proves little"
    )


def test_stateful_firewall_threads_the_same_registers():
    """The stateful comparison is not vacuous: bidirectional traffic
    opens flow slots, and both oracles hold the same register file."""
    device = provisioned("stateful_firewall")
    compiled = ReferenceOracle(device.program, num_ports=len(device.ports))
    tree = TreeOracle(device.program, num_ports=len(device.ports))
    verdicts = []
    for wire, port, timestamp in traffic("tcp_bidir", 0):
        got = fields(compiled, wire, port, timestamp)
        assert got == fields(tree, wire, port, timestamp)
        verdicts.append(got[0])
    assert compiled.state.registers == tree.interpreter.state.registers
    assert any(any(cells) for cells in compiled.state.registers.values())
    assert False in verdicts  # some return-path packet was admitted
    # The stateless oracle forgets the opened flows.
    stateless = StatelessOracle(device.program, num_ports=len(device.ports))
    assert [
        stateless.expect(wire, port, timestamp).forbid
        for wire, port, timestamp in traffic("tcp_bidir", 0)
    ] != verdicts


def drop_then_egress():
    """Ingress drops IPv4 and forwards-then-exits ARP; egress counts and
    re-forwards whatever reaches it. Only the drop barrier keeps IPv4
    dropped (egress ``forward`` clears the drop flag), and only ``exit``
    keeps ARP on port 1."""
    b = ProgramBuilder("drop_then_egress")
    b.header(ETHERNET)
    b.counter("egress_seen", 1)
    b.parser_state("start", extracts=["ethernet"]).accept()
    ether_type = fld("ethernet", "ether_type")
    b.ingress.action("drop_it", [], [Drop()])
    b.ingress.action("leave", [], [Forward(Const(1, 9)), Exit()])
    b.ingress.action("pass_on", [], [Forward(Const(1, 9))])
    b.ingress.stmt(If(
        ether_type.eq(Const(0x0800, 16)),
        Call("drop_it"),
        If(ether_type.eq(Const(0x0806, 16)), Call("leave"), Call("pass_on")),
    ))
    b.egress.action("resend", [], [
        CountPacket("egress_seen", Const(0, 1)), Forward(Const(2, 9)),
    ])
    b.egress.call("resend")
    b.emit("ethernet")
    return b.build()


@pytest.mark.parametrize("kind", sorted(PAIRS))
def test_drop_barrier_and_exit_match(kind):
    program = drop_then_egress()
    compiled_cls, tree_cls = PAIRS[kind]
    compiled, tree = compiled_cls(program), tree_cls(program)
    ports = []
    for ether_type in (0x0800, 0x0806, 0x88B5, 0x0800, 0x88B5):
        wire = ethernet_frame(1, 2, ether_type, payload=b"x" * 46).pack()
        got = fields(compiled, wire, 0, 0)
        assert got == fields(tree, wire, 0, 0)
        ports.append(None if got[0] else got[2])
    assert ports == [None, 1, 2, None, 2]
    if kind == "stateful":
        assert compiled.state.counters == tree.interpreter.state.counters
        assert compiled.state.counters == {"egress_seen": [2]}


def test_flood_expansion_matches():
    program = l2_switch()  # no entries: the default action floods
    wire, _, _ = traffic("udp", 0)[0]
    for compiled_cls, tree_cls in PAIRS.values():
        got = fields(compiled_cls(program, num_ports=4), wire, 2, 0)
        assert got == fields(tree_cls(program, num_ports=4), wire, 2, 0)
        assert got == (False, got[1], None, (0, 1, 3), "reference-flood")


def test_flood_without_port_count_raises_alike():
    program = l2_switch()
    wire, _, _ = traffic("udp", 0)[0]
    for compiled_cls, tree_cls in PAIRS.values():
        got = fields(compiled_cls(program), wire, 0, 0)
        assert got == fields(tree_cls(program), wire, 0, 0)
        assert got[0] == "raised" and "num_ports" in got[1]


def test_missing_egress_spec_raises_alike(monkeypatch):
    real_run = FastProgram.run
    real_process = Interpreter.process

    def run_stripped(self, wire, ingress_port=0, timestamp=0, state=None):
        result = real_run(self, wire, ingress_port, timestamp, state)
        result.metadata.pop("egress_spec", None)
        return result

    def process_stripped(self, wire, ingress_port=0, timestamp=0):
        result = real_process(self, wire, ingress_port, timestamp)
        result.metadata.pop("egress_spec", None)
        return result

    monkeypatch.setattr(FastProgram, "run", run_stripped)
    monkeypatch.setattr(Interpreter, "process", process_stripped)
    device = provisioned("ipv4_router")
    wire, _, _ = traffic("udp", 0)[0]
    for compiled_cls, tree_cls in PAIRS.values():
        got = fields(compiled_cls(device.program), wire, 0, 0)
        assert got == fields(tree_cls(device.program), wire, 0, 0)
        assert got[0] == "raised" and "egress_spec" in got[1]
