"""The compiled spec oracle predicts exactly what the tree oracle did.

:class:`~repro.netdebug.oracle.ReferenceOracle` predicts with
spec-faithful closures (:meth:`repro.target.fastpath.FastProgram.run`)
and the batch kernel built over them.
The oracle it replaced ran the tree-walking
:class:`~repro.p4.interpreter.Interpreter` with ``honor_reject=True``:
one long-lived interpreter for the stateful oracle, a fresh one per
packet for the stateless oracle. Those interpreter-backed oracles are
rebuilt here, and every field of every expectation must match, on every
stdlib program (with table entries installed) under valid, malformed,
multi-size, bidirectional and timestamped traffic.

Campaigns predict whole cells through ``expect_all``, which runs the
spec batch kernel, and the device under test runs that same kernel. The
tree-walking interpreter is therefore the only independent check left,
and the block tests below pin ``expect_all`` against it: the same
expectations, the same final state and the same first error.
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
from repro.target.batch import BatchProgram
from repro.target.device import FLOOD_PORT
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
    real_block = BatchProgram.run_block
    real_process = Interpreter.process

    def run_stripped(self, wire, ingress_port=0, timestamp=0, state=None):
        result = real_run(self, wire, ingress_port, timestamp, state)
        result.metadata.pop("egress_spec", None)
        return result

    def block_stripped(self, wires, *args, **kwargs):
        outcomes = real_block(self, wires, *args, **kwargs)
        for _, run, _ in outcomes:
            if run is not None:
                run.result.metadata.pop("egress_spec", None)
        return outcomes

    def process_stripped(self, wire, ingress_port=0, timestamp=0):
        result = real_process(self, wire, ingress_port, timestamp)
        result.metadata.pop("egress_spec", None)
        return result

    monkeypatch.setattr(FastProgram, "run", run_stripped)
    monkeypatch.setattr(BatchProgram, "run_block", block_stripped)
    monkeypatch.setattr(Interpreter, "process", process_stripped)
    device = provisioned("ipv4_router")
    wire, _, _ = traffic("udp", 0)[0]
    for compiled_cls, tree_cls in PAIRS.values():
        got = fields(compiled_cls(device.program), wire, 0, 0)
        assert got == fields(tree_cls(device.program), wire, 0, 0)
        assert got[0] == "raised" and "egress_spec" in got[1]
        # The block path raises the same error.
        block = all_fields(compiled_cls(device.program), [(wire, 0, 0)])
        assert block == all_fields(tree_cls(device.program), [(wire, 0, 0)])
        assert block == ("raised", "NetDebugError", got[1])


# ---------------------------------------------------------------------------
# The block path (expect_all) against the tree oracles
# ---------------------------------------------------------------------------

def all_fields(oracle, lanes):
    """Every field of a whole expect_all call, or the error it raised."""
    wires = [wire for wire, _, _ in lanes]
    ports = [port for _, port, _ in lanes]
    times = [timestamp for _, _, timestamp in lanes]
    try:
        got = oracle.expect_all(wires, ports, times)
    except Exception as exc:
        return ("raised", type(exc).__name__, str(exc))
    return [
        (e.forbid, e.wire, e.egress_port, e.egress_ports, e.label)
        for e in got
    ]


class Calls:
    """Counts calls of one method while wrapping it in place."""

    def __init__(self, monkeypatch, owner, name):
        self.count = 0
        real = getattr(owner, name)

        def counted(*args, **kwargs):
            self.count += 1
            return real(*args, **kwargs)

        monkeypatch.setattr(owner, name, counted)


@pytest.mark.parametrize("kind", sorted(PAIRS))
@pytest.mark.parametrize("name", sorted(PROGRAMS))
def test_block_oracle_matches_tree_oracle(name, kind, monkeypatch):
    device = provisioned(name)
    compiled_cls, tree_cls = PAIRS[kind]
    num_ports = len(device.ports)
    blocks = Calls(monkeypatch, BatchProgram, "run_block")
    closures = Calls(monkeypatch, FastProgram, "run")
    walks = Calls(monkeypatch, Interpreter, "process")
    # Stateless prediction on a register-bearing program needs fresh
    # registers per packet, so only that case stays per-packet.
    per_packet = kind == "stateless" and bool(device.program.registers)
    forwarded = False
    for index, workload in enumerate(WORKLOADS):
        lanes = traffic(workload, index)
        compiled = compiled_cls(device.program, num_ports=num_ports)
        tree = tree_cls(device.program, num_ports=num_ports)

        before = (blocks.count, closures.count, walks.count)
        # No label: the default labels carry each drop's verdict.
        got = all_fields(compiled, lanes)
        assert walks.count == before[2]
        if per_packet:
            assert blocks.count == before[0]
            assert closures.count - before[1] == len(lanes)
        else:
            # Packet-major blocks of one (stateful) or one columnar block.
            runs = len(lanes) if kind == "stateful" else 1
            assert blocks.count - before[0] == runs
            assert closures.count == before[1]

        before = (blocks.count, closures.count, walks.count)
        want = all_fields(tree, lanes)
        # The tree oracles really walk the tree, packet by packet.
        assert (
            blocks.count - before[0],
            closures.count - before[1],
            walks.count - before[2],
        ) == (0, 0, len(lanes))

        assert got == want, f"{name}/{workload}"
        assert got[0] != "raised", f"{name}/{workload}: {got}"
        forwarded |= any(not forbid for forbid, *_ in got)
        if kind == "stateful":
            assert compiled.state.registers == tree.interpreter.state.registers
            assert compiled.state.counters == tree.interpreter.state.counters
    assert forwarded, f"{name}: no forwarded packet, proves little"


def test_block_flood_expansion_matches():
    program = l2_switch()  # no entries: the default action floods
    lanes = [(wire, 2, 0) for wire, _, _ in traffic("udp", 0)]
    for compiled_cls, tree_cls in PAIRS.values():
        got = all_fields(compiled_cls(program, num_ports=4), lanes)
        assert got == all_fields(tree_cls(program, num_ports=4), lanes)
        assert {row[2:] for row in got} == {
            (None, (0, 1, 3), "reference-flood")
        }
        # A label numbers the lanes on the block path as well.
        wires = [wire for wire, _, _ in lanes]
        labelled = compiled_cls(program, num_ports=4).expect_all(
            wires, [2] * len(wires), label="cell"
        )
        assert [e.label for e in labelled] == [
            f"cell#{i}" for i in range(len(wires))
        ]


def test_block_flood_without_port_count_raises_alike():
    program = l2_switch()
    lanes = traffic("udp", 0)
    for compiled_cls, tree_cls in PAIRS.values():
        got = all_fields(compiled_cls(program), lanes)
        assert got == all_fields(tree_cls(program), lanes)
        assert got[0] == "raised" and "num_ports" in got[2]


def count_by_ether_type(port=1):
    """Counts every frame at index ``ether_type`` in a 0x0801-cell
    counter and forwards it to ``port``: an IPv4 frame counts, any
    EtherType above 0x0800 raises an out-of-range error in that lane."""
    b = ProgramBuilder("count_by_ether_type")
    b.header(ETHERNET)
    b.counter("by_type", 0x0801)
    b.parser_state("start", extracts=["ethernet"]).accept()
    b.ingress.action("tally", [], [
        CountPacket("by_type", fld("ethernet", "ether_type")),
        Forward(Const(port, 9)),
    ])
    b.ingress.call("tally")
    b.emit("ethernet")
    return b.build()


@pytest.mark.parametrize("kind", sorted(PAIRS))
def test_block_raising_lane_matches(kind):
    """The first lane error is raised as the same exception, at the
    same packet, with the state the per-packet tree oracle leaves."""
    program = count_by_ether_type()
    ether_types = [0x0800, 0x0800, 0x0806, 0x0800, 0x88B5]
    lanes = [
        (ethernet_frame(1, 2, t, payload=b"x" * 46).pack(), 0, 0)
        for t in ether_types
    ]
    compiled_cls, tree_cls = PAIRS[kind]
    compiled, tree = compiled_cls(program), tree_cls(program)
    got = all_fields(compiled, lanes)
    assert got == all_fields(tree, lanes)
    assert got[:2] == ("raised", "P4RuntimeError")
    assert "index 2054 out of range" in got[2]
    # Packet index 2: the prefix before it predicts cleanly.
    assert all_fields(compiled_cls(program), lanes[:2])[0][0] is False
    assert all_fields(compiled_cls(program), lanes[:3])[0] == "raised"
    if kind == "stateful":
        assert compiled.state.counters == tree.interpreter.state.counters
        assert compiled.state.counters["by_type"][0x0800] == 2


def test_block_expectation_error_stops_the_state_alike():
    """An error raised while turning a lane into an expectation (here a
    flood without ``num_ports``) leaves the stateful oracle's counters
    where the per-packet tree oracle leaves them: later lanes never
    ran."""
    program = count_by_ether_type(port=FLOOD_PORT)
    wire = ethernet_frame(1, 2, 0x0800, payload=b"x" * 46).pack()
    lanes = [(wire, 0, 0)] * 3
    compiled, tree = ReferenceOracle(program), TreeOracle(program)
    got = all_fields(compiled, lanes)
    assert got == all_fields(tree, lanes)
    assert got[:2] == ("raised", "NetDebugError") and "num_ports" in got[2]
    assert compiled.state.counters == tree.interpreter.state.counters
    assert compiled.state.counters["by_type"][0x0800] == 1


def test_subclass_overriding_process_is_honoured_by_expect_all():
    class Silent(StatelessOracle):
        def _process(self, wire, ingress_port, timestamp):
            result = super()._process(wire, ingress_port, timestamp)
            result.metadata["egress_spec"] = 7
            return result

    program = l2_switch()
    wires = [wire for wire, _, _ in traffic("udp", 0)]
    assert {e.egress_port for e in Silent(program).expect_all(wires)} == {7}
