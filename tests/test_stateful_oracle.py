"""Session-scoped stateful oracle: register round-trips and identity.

The oracle refactor's contract, pinned end to end:

* **register round-trip** — an outbound ``stateful_firewall`` packet
  opens a flow slot, after which the oracle predicts (and the spec
  interpreter, the device's kernel per packet and over a block all
  deliver) the return-path packet *forwarded*; a cold inbound
  packet is predicted (and observed) dropped;
* **stateless control** — :class:`StatelessOracle` reproduces the
  historical fresh-state-per-packet prediction, so it must keep
  forbidding the return path even after the outbound packet;
* **block ≡ lockstep** — ``stateful_firewall`` touches its register
  from one stage, so the batch kernel runs it stage-major and the
  stateful oracle predicts a stream as one block; a stateful session
  run block-wise reports exactly what the lockstep reference (arm →
  ``inject`` → disarm per packet) does;
* **distribution identity** — the seeded ``stateful_firewall`` ×
  ``tcp_bidir`` campaign renders to identical JSON bytes run serially,
  on a 4-worker pool, and on a 2-worker localhost cluster.
"""

import pytest

from repro.netdebug.campaign import ScenarioMatrix, run_campaign
from repro.netdebug.generator import StreamSpec
from repro.netdebug.oracle import ORACLES, ReferenceOracle, StatelessOracle
from repro.netdebug.session import ValidationSession, run_session
from repro.p4.interpreter import Interpreter
from repro.p4.stdlib import strict_parser
from repro.p4.stdlib_ext import stateful_firewall
from repro.packet.builder import udp_packet
from repro.packet.headers import ipv4
from repro.sim.traffic import (
    INSIDE_PORT,
    OUTSIDE_PORT,
    bidirectional_flows,
    default_flow,
)
from repro.target.batch import BatchProgram
from repro.target.device import NetworkDevice
from repro.target.reference import ReferenceCompiler
from tests.test_netdebug_session import lockstep_reference

#: How each packet is carried through ``stateful_firewall``: the spec
#: tree-walker over one runtime state, the device's kernel packet by
#: packet (``inject``, the "closure" path's historical name), or over
#: one block (``inject_block``).
PATHS = ("tree", "closure", "batch")


def make_device(name="sfw"):
    device = NetworkDevice(name, ReferenceCompiler(), num_ports=8)
    device.load(stateful_firewall())
    return device


def carrier(path, name):
    """``send(wire, port) -> (verdict, egress_spec)`` along ``path``;
    state persists across sends, as on a device."""
    if path == "tree":
        interpreter = Interpreter(stateful_firewall())

        def send(wire, port):
            result = interpreter.process(wire, ingress_port=port)
            return result.verdict.value, result.metadata["egress_spec"]

        return send
    device = make_device(name)

    def send(wire, port):
        if path == "closure":
            run = device.inject(wire, port=port)
        else:
            [(_, run)] = device.inject_block([wire], port=port)
        return run.result.verdict.value, run.result.metadata["egress_spec"]

    return send


def outbound_wire() -> bytes:
    """Inside host 10.0.0.1:1234 → outside host 10.9.0.1:4321."""
    return udp_packet(ipv4("10.9.0.1"), ipv4("10.0.0.1"), 4321, 1234).pack()


def inbound_wire() -> bytes:
    """The exact reply five-tuple of :func:`outbound_wire`."""
    return udp_packet(ipv4("10.0.0.1"), ipv4("10.9.0.1"), 1234, 4321).pack()


# ---------------------------------------------------------------------------
# Register round-trip: oracle prediction ≡ device behaviour
# ---------------------------------------------------------------------------

class TestRegisterRoundTrip:
    def test_oracle_threads_flow_state(self):
        oracle = ReferenceOracle(stateful_firewall(), num_ports=8)
        opened = oracle.expect(outbound_wire(), ingress_port=INSIDE_PORT)
        assert not opened.forbid and opened.egress_port == OUTSIDE_PORT
        reply = oracle.expect(inbound_wire(), ingress_port=OUTSIDE_PORT)
        assert not reply.forbid and reply.egress_port == INSIDE_PORT

    def test_cold_inbound_is_forbidden(self):
        oracle = ReferenceOracle(stateful_firewall(), num_ports=8)
        cold = oracle.expect(inbound_wire(), ingress_port=OUTSIDE_PORT)
        assert cold.forbid

    def test_reset_forgets_open_flows(self):
        oracle = ReferenceOracle(stateful_firewall(), num_ports=8)
        oracle.expect(outbound_wire(), ingress_port=INSIDE_PORT)
        oracle.reset()
        assert oracle.expect(
            inbound_wire(), ingress_port=OUTSIDE_PORT
        ).forbid

    def test_stateless_oracle_keeps_historical_semantics(self):
        oracle = StatelessOracle(stateful_firewall(), num_ports=8)
        oracle.expect(outbound_wire(), ingress_port=INSIDE_PORT)
        # Fresh state per packet: the return path stays forbidden.
        assert oracle.expect(
            inbound_wire(), ingress_port=OUTSIDE_PORT
        ).forbid

    def test_registry_names_the_two_semantics(self):
        assert ORACLES["stateful"] is ReferenceOracle
        assert ORACLES["stateless"] is StatelessOracle
        assert ReferenceOracle.stateful and not StatelessOracle.stateful

    @pytest.mark.parametrize("path", PATHS)
    def test_device_agrees_on_round_trip(self, path):
        send = carrier(path, name=f"rt-{path}")
        assert send(outbound_wire(), INSIDE_PORT) == (
            "forwarded", OUTSIDE_PORT
        )
        assert send(inbound_wire(), OUTSIDE_PORT) == (
            "forwarded", INSIDE_PORT
        )

    @pytest.mark.parametrize("path", PATHS)
    def test_cold_inbound_dropped_on_device(self, path):
        send = carrier(path, name=f"cold-{path}")
        assert send(inbound_wire(), OUTSIDE_PORT)[0] == "dropped"

    @pytest.mark.parametrize("path", PATHS)
    @pytest.mark.parametrize("seed", (3, 2018))
    def test_property_predictions_match_device(self, path, seed):
        """Over a seeded bidirectional sweep, every per-packet oracle
        prediction (forbid vs forward, and the egress port) matches the
        spec interpreter and the device on both of its paths — packet
        order is the whole point."""
        pairs = bidirectional_flows(default_flow(), 48, seed=seed)
        oracle = ReferenceOracle(stateful_firewall(), num_ports=8)
        send = carrier(path, name=f"prop-{path}-{seed}")
        forwarded_replies = 0
        for packet, port in pairs:
            wire = packet.pack()
            expectation = oracle.expect(wire, ingress_port=port)
            verdict, egress = send(wire, port)
            if expectation.forbid:
                assert verdict == "dropped"
            else:
                assert verdict == "forwarded"
                assert egress == expectation.egress_port
                if port == OUTSIDE_PORT:
                    forwarded_replies += 1
        # The sweep actually exercised opened return paths.
        assert forwarded_replies > 0


# ---------------------------------------------------------------------------
# Batch-kernel compatibility of the stateful session protocol
# ---------------------------------------------------------------------------

class TestBatchCompatibility:
    def test_register_programs_take_packet_major_path(self):
        """``stateful_firewall`` stays columnar, like a register-free
        program: it touches its flow table from its single ingress
        stage, and a stage function runs each lane's whole statement
        before the next lane's, so the register sees arrival order on
        either schedule. Only a register touched from two stages sends
        a program packet-major (see ``test_generated_programs``)."""
        stateful = make_device(name="pm-sfw")
        assert stateful.compiled.kernel.columnar is True
        stateless = NetworkDevice("pm-sp", ReferenceCompiler(), num_ports=8)
        stateless.load(strict_parser())
        assert stateless.compiled.kernel.columnar is True

    def test_stateful_cell_runs_one_block_per_stream(self, monkeypatch):
        """A ``stateful_firewall`` × ``tcp_bidir`` cell under the
        stateful oracle: the device and the oracle each run the cell's
        one stream as one block, in one stage-major pass."""
        count = 30
        blocks, passes = [], []
        run_block, run_columnar = (
            BatchProgram.run_block, BatchProgram._run_columnar
        )

        def counted_block(kernel, wires, *args, **kwargs):
            wires = list(wires)
            blocks.append((id(kernel), len(wires)))
            return run_block(kernel, wires, *args, **kwargs)

        def counted_pass(kernel, wires, *args):
            passes.append((id(kernel), len(wires)))
            return run_columnar(kernel, wires, *args)

        monkeypatch.setattr(BatchProgram, "run_block", counted_block)
        monkeypatch.setattr(BatchProgram, "_run_columnar", counted_pass)
        matrix = ScenarioMatrix(
            programs=["stateful_firewall"], targets=["reference"],
            faults={"baseline": ()}, workloads=["tcp_bidir"],
            count=count, seed=2018, oracle="stateful",
        )
        report = run_campaign(matrix, workers=1, name="one-block")
        assert report.passed and report.injected == count
        # One kernel: the reference artifact's, which the device runs
        # and the oracle predicts with.
        assert len({kernel for kernel, _ in blocks}) == 1
        assert [n for _, n in blocks] == [count, count]
        assert passes == blocks

    def test_stateful_session_block_path_matches_lockstep(self):
        """A session with a stateful ``oracle_factory`` runs
        block-wise and reproduces the lockstep reference's report
        exactly."""
        pairs = bidirectional_flows(default_flow(), 24, seed=11)
        session = ValidationSession(
            name="stateful-block",
            streams=[
                StreamSpec(
                    stream_id=1,
                    packets=[packet for packet, _ in pairs],
                    ingress_ports=[port for _, port in pairs],
                )
            ],
            oracle_factory=ReferenceOracle,
        )
        block = run_session(make_device(name="sess-sfw"), session)
        lockstep = lockstep_reference(make_device(name="sess-sfw"), session)
        assert block.to_dict() == lockstep.to_dict()
        assert block.findings == []


# ---------------------------------------------------------------------------
# Distribution byte-identity (the PR's acceptance criterion)
# ---------------------------------------------------------------------------

class TestDistributedByteIdentity:
    def _matrix(self):
        return ScenarioMatrix(
            programs=["stateful_firewall"],
            targets=["reference", "sdnet", "tofino"],
            faults={"baseline": ()},
            workloads=["tcp_bidir"],
            count=10,
            seed=2018,
            oracle="stateful",
        )

    def test_serial_pool_cluster_byte_identical(self):
        from repro.netdebug.cluster import run_cluster_campaign

        serial = run_campaign(self._matrix(), workers=1, name="ident")
        pool = run_campaign(self._matrix(), workers=4, name="ident")
        cluster = run_cluster_campaign(
            self._matrix(), workers=2, name="ident"
        )
        assert serial.to_json() == pool.to_json()
        assert serial.to_json() == cluster.to_json()
        # Spec-faithful targets pass under the stateful prediction —
        # i.e. the oracle really marked opened return paths forwarded.
        by_target = {
            result.scenario.target: result for result in serial.results
        }
        assert by_target["reference"].passed
        assert by_target["sdnet"].passed
