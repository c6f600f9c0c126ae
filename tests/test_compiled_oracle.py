"""The compiled spec oracle predicts exactly what the tree oracle did.

:class:`~repro.netdebug.oracle.ReferenceOracle` predicts with the
spec-faithful compiled program run by the batch kernel, one packet as a
block of one and a whole cell as one block.
The oracle it replaced ran the tree-walking
:class:`~repro.p4.interpreter.Interpreter` under the spec model:
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
from repro.netdebug import oracle as oracle_module
from repro.netdebug.oracle import ReferenceOracle, StatelessOracle
from repro.netdebug.checker import ExpectedOutput
from repro.p4.actions import (
    CountPacket,
    Drop,
    Exit,
    Forward,
    RegisterRead,
    RegisterWrite,
)
from repro.p4.control import Call, If
from repro.p4.dsl import ProgramBuilder
from repro.p4.expr import BinOp, Const, MetaRef, fld
from repro.p4.interpreter import Interpreter
from repro.p4.stdlib import PROGRAMS, l2_switch
from repro.packet.builder import ethernet_frame, udp_packet, vlan_tagged
from repro.packet.headers import ETHERNET, ipv4, mac
from repro.sim.traffic import build_workload, default_flow
from repro.target.batch import BatchProgram
from repro.target.device import FLOOD_PORT
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
        self.interpreter = Interpreter(program)

    def _process(self, wire, ingress_port, timestamp):
        return self.interpreter.process(
            wire, ingress_port=ingress_port, timestamp=timestamp
        )


class StatelessTreeOracle(ReferenceOracle):
    """The interpreter-backed stateless oracle: a fresh interpreter per
    packet."""

    stateful = False

    def _process(self, wire, ingress_port, timestamp):
        return Interpreter(self.program).process(
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
    real_block = BatchProgram.run_block
    real_process = Interpreter.process

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
    walks = Calls(monkeypatch, Interpreter, "process")
    # Stateless prediction on a register-bearing program needs fresh
    # registers per packet, so it predicts packet by packet, each
    # packet a block of one. The stateful oracle runs one block over
    # its state: no stdlib program touches a register from two stages.
    per_packet = kind == "stateless" and bool(device.program.registers)
    assert compiled_cls(device.program).spec.kernel.columnar
    forwarded = False
    for index, workload in enumerate(WORKLOADS):
        lanes = traffic(workload, index)
        compiled = compiled_cls(device.program, num_ports=num_ports)
        tree = tree_cls(device.program, num_ports=num_ports)

        before = (blocks.count, walks.count)
        # No label: the default labels carry each drop's verdict.
        got = all_fields(compiled, lanes)
        assert walks.count == before[1]
        # Blocks of one packet by packet, or one columnar block.
        runs = len(lanes) if per_packet else 1
        assert blocks.count - before[0] == runs

        before = (blocks.count, walks.count)
        want = all_fields(tree, lanes)
        # The tree oracles really walk the tree, packet by packet.
        assert (
            blocks.count - before[0], walks.count - before[1]
        ) == (0, len(lanes))

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


def test_stateless_subclass_overriding_expect_is_honoured_by_expect_all():
    calls = []

    class Pinned(StatelessOracle):
        def expect(self, wire, ingress_port=0, timestamp=0, label=""):
            calls.append(wire)
            return ExpectedOutput(egress_port=2, label=label)

    program = l2_switch()
    wires = [wire for wire, _, _ in traffic("udp", 0)]
    got = Pinned(program).expect_all(wires)
    assert [e.egress_port for e in got] == [2] * len(wires)
    assert calls == wires


def tally(flood_type=None):
    """Counts every packet in register ``seen`` (read, then write plus
    one) and marks its EtherType in the 0x0810-cell register
    ``by_type``; a larger EtherType raises an out-of-range error in
    that lane after ``seen`` counted it. Frames of ``flood_type`` are
    flooded, the rest go to port 1. One ingress stage touches both
    registers, so the kernel is columnar."""
    b = ProgramBuilder("tally")
    b.header(ETHERNET)
    b.metadata("n", 16)
    b.register("seen", 1, 16)
    b.register("by_type", 0x0810, 1)
    b.parser_state("start", extracts=["ethernet"]).accept()
    ether_type = fld("ethernet", "ether_type")
    b.ingress.action("count", [], [
        RegisterRead("seen", Const(0, 1), "n"),
        RegisterWrite("seen", Const(0, 1),
                      BinOp("+", MetaRef("n"), Const(1, 16))),
        RegisterWrite("by_type", ether_type, Const(1, 1)),
    ])
    b.ingress.action("fwd", [], [Forward(Const(1, 9))])
    b.ingress.action("flood", [], [Forward(Const(FLOOD_PORT, 9))])
    b.ingress.call("count")
    if flood_type is None:
        b.ingress.call("fwd")
    else:
        b.ingress.stmt(If(
            ether_type.eq(Const(flood_type, 16)), Call("flood"), Call("fwd"),
        ))
    b.emit("ethernet")
    return b.build()


def per_packet_state(program, lanes):
    """The stateful oracle's registers after per-packet ``expect``,
    stopping at the first error as ``expect_all`` does."""
    oracle = ReferenceOracle(program)
    for wire, port, timestamp in lanes:
        try:
            oracle.expect(wire, port, timestamp)
        except Exception:
            break
    return oracle.state.registers


#: Packet 2 fails: its EtherType is out of ``by_type``'s range (a lane
#: error), or it floods on an oracle without ``num_ports`` (an
#: expectation error).
MID_STREAM_ERRORS = {
    "lane": (None, (0x0800, 0x0806, 0x88B5, 0x0800), "P4RuntimeError"),
    "expectation": (
        0x0801, (0x0800, 0x0806, 0x0801, 0x0800), "NetDebugError",
    ),
}


def tally_lanes(ether_types):
    return [
        (ethernet_frame(1, 2, t, payload=b"x" * 46).pack(), 0, 0)
        for t in ether_types
    ]


@pytest.mark.parametrize("block_lanes", [oracle_module.BLOCK_LANES, 2])
@pytest.mark.parametrize("error", sorted(MID_STREAM_ERRORS))
def test_block_error_mid_stream_leaves_per_packet_state(
    error, block_lanes, monkeypatch
):
    """An error at packet 2 of 4, in the first block or, two lanes to a
    block, in the second: the stateful blocks are rolled back to the
    state the first one found and predicted again packet by packet, so
    the error and the registers are those of per-packet prediction, and
    packet 3 never ran."""
    flood_type, ether_types, raised = MID_STREAM_ERRORS[error]
    program = tally(flood_type)
    lanes = tally_lanes(ether_types)
    compiled, tree = ReferenceOracle(program), TreeOracle(program)
    assert compiled.spec.kernel.columnar
    monkeypatch.setattr(oracle_module, "BLOCK_LANES", block_lanes)
    blocks = Calls(monkeypatch, BatchProgram, "run_block")
    got = all_fields(compiled, lanes)
    # The blocks up to the failing one, rolled back, then packets 0-2
    # one by one.
    assert blocks.count == 2 // block_lanes + 1 + 3
    assert got == all_fields(tree, lanes)
    assert got[:2] == ("raised", raised)
    assert compiled.state.registers == tree.interpreter.state.registers
    assert compiled.state.registers == per_packet_state(program, lanes)
    assert compiled.state.registers["seen"] == [3]
    assert compiled.state.registers["by_type"][0x0800] == 1


def test_long_stream_runs_as_consecutive_blocks(monkeypatch):
    """Five packets, two lanes to a block: three blocks over the one
    state predict what per-packet prediction does."""
    program = tally()
    lanes = tally_lanes((0x0800, 0x0806, 0x0800, 0x0801, 0x0806))
    compiled, tree = ReferenceOracle(program), TreeOracle(program)
    monkeypatch.setattr(oracle_module, "BLOCK_LANES", 2)
    blocks = Calls(monkeypatch, BatchProgram, "run_block")
    assert all_fields(compiled, lanes) == all_fields(tree, lanes)
    assert blocks.count == 3
    assert compiled.state.registers == tree.interpreter.state.registers
    assert compiled.state.registers["seen"] == [5]
