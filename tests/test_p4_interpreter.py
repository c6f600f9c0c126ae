"""Interpreter semantics: parsing, controls, primitives, verdicts."""

import pytest

from repro.exceptions import P4RuntimeError
from repro.p4.actions import (
    AddHeader,
    CountPacket,
    Drop,
    Exit,
    Forward,
    HashField,
    RegisterRead,
    RegisterWrite,
    RemoveHeader,
    SetField,
    SetMeta,
)
from repro.p4.control import Call, If
from repro.p4.dsl import ProgramBuilder
from repro.p4.expr import Const, fld, meta
from repro.p4.interpreter import Interpreter, RuntimeState, Verdict
from repro.p4.parser import ACCEPT, REJECT
from repro.p4.stdlib import ipv4_router, strict_parser
from repro.p4.types import (
    PARSER_ERROR_HEADER_TOO_SHORT,
    PARSER_ERROR_REJECT,
    PARSER_ERROR_VERIFY_FAILED,
)
from repro.packet.builder import ethernet_frame, udp_packet
from repro.packet.headers import ETHERNET, ETHERTYPE_IPV4, IPV4, ipv4, mac
from repro.p4.table import KeyPattern, TableEntry
from repro.target.limits import SDNET_MODEL, SPEC_MODEL


def minimal_program(body_builder=None, name="mini"):
    """Ethernet-only pass-through with an optional extra ingress action."""
    b = ProgramBuilder(name)
    b.header(ETHERNET)
    b.parser_state("start", extracts=["ethernet"]).accept()
    b.ingress.action("out", [], [Forward(Const(1, 9))])
    b.ingress.call("out")
    if body_builder is not None:
        body_builder(b)
    b.emit("ethernet")
    return b


def run(program, wire, **kwargs):
    return Interpreter(program).process(wire, **kwargs)


class TestParsing:
    def test_simple_accept(self):
        program = minimal_program().build()
        frame = ethernet_frame(2, 1, 0x1234, payload=b"pp")
        result = run(program, frame.pack())
        assert result.verdict is Verdict.FORWARDED
        assert result.packet.get("ethernet")["ether_type"] == 0x1234
        assert result.packet.payload == b"pp"

    def test_truncated_header_rejects(self):
        program = minimal_program().build()
        result = run(program, b"\x00\x01\x02")
        assert result.verdict is Verdict.PARSER_REJECTED
        assert result.metadata["parser_error"] == PARSER_ERROR_HEADER_TOO_SHORT

    def test_explicit_reject_code(self):
        program = strict_parser()
        frame = ethernet_frame(1, 2, 0xBEEF, payload=b"x" * 30)
        result = run(program, frame.pack())
        assert result.verdict is Verdict.PARSER_REJECTED
        assert result.metadata["parser_error"] == PARSER_ERROR_REJECT

    def test_verify_failure_code(self):
        program = strict_parser()
        packet = udp_packet(ipv4("1.1.1.1"), ipv4("2.2.2.2"), 53, 1)
        packet.get("ipv4")["version"] = 7
        result = run(program, packet.pack())
        assert result.verdict is Verdict.PARSER_REJECTED
        assert (
            result.metadata["parser_error"] == PARSER_ERROR_VERIFY_FAILED
        )

    def test_select_default_taken(self):
        b = ProgramBuilder("sel")
        b.header(ETHERNET)
        b.header(IPV4)
        b.parser_state("start", extracts=["ethernet"]).select(
            fld("ethernet", "ether_type"),
            [(ETHERTYPE_IPV4, "parse_ipv4")],
            default=ACCEPT,
        )
        b.parser_state("parse_ipv4", extracts=["ipv4"]).accept()
        b.ingress.action("out", [], [Forward(Const(0, 9))])
        b.ingress.call("out")
        b.emit("ethernet", "ipv4")
        program = b.build()
        frame = ethernet_frame(1, 2, 0x9999)
        result = run(program, frame.pack())
        assert result.verdict is Verdict.FORWARDED
        assert not result.packet.has("ipv4")

    def test_cyclic_parser_terminates(self):
        b = ProgramBuilder("cyc")
        b.header(ETHERNET)
        b.parser_state("start").goto("loop")
        b.parser_state("loop").goto("start")
        b.emit("ethernet")
        program = b.build()
        result = run(program, b"\x00" * 64)
        assert result.verdict is Verdict.PARSER_REJECTED


class TestRejectDeviation:
    """A model without ``honor_reject`` reproduces the SDNet bug."""

    def test_explicit_reject_ignored(self):
        program = strict_parser()
        frame = ethernet_frame(1, 2, 0xBEEF, payload=b"x" * 30)
        result = Interpreter(program, model=SDNET_MODEL).process(frame.pack())
        assert result.verdict is Verdict.FORWARDED

    def test_verify_failure_ignored(self):
        program = strict_parser()
        packet = udp_packet(ipv4("1.1.1.1"), ipv4("2.2.2.2"), 53, 1)
        packet.get("ipv4")["version"] = 9
        result = Interpreter(program, model=SDNET_MODEL).process(packet.pack())
        assert result.verdict is Verdict.FORWARDED

    def test_parser_error_metadata_still_set(self):
        program = strict_parser()
        frame = ethernet_frame(1, 2, 0xBEEF, payload=b"x" * 30)
        result = Interpreter(program, model=SDNET_MODEL).process(frame.pack())
        assert result.metadata["parser_error"] != 0

    def test_good_packets_identical_either_way(self):
        program = strict_parser()
        packet = udp_packet(ipv4("1.1.1.1"), ipv4("2.2.2.2"), 53, 1)
        faithful = Interpreter(program).process(packet.pack())
        deviant = Interpreter(program, model=SDNET_MODEL).process(packet.pack())
        assert faithful.packet.pack() == deviant.packet.pack()


def strict_parser_wire(kind):
    """A strict_parser frame that accepts, hits the explicit reject
    (unknown EtherType) or fails the IPv4 verify (version 7)."""
    if kind == "reject":
        return ethernet_frame(1, 2, 0xBEEF, payload=b"x" * 30).pack()
    packet = udp_packet(ipv4("1.1.1.1"), ipv4("2.2.2.2"), 53, 1)
    if kind == "verify":
        packet.get("ipv4")["version"] = 7
    return packet.pack()


class TestPathRecord:
    """The interpreter records the path of its last ``process`` call."""

    @pytest.mark.parametrize(
        "model, kind, parser_path, verdict",
        [
            (SPEC_MODEL, "accept", ["start", "parse_ipv4"],
             Verdict.FORWARDED),
            (SPEC_MODEL, "reject", ["start", "!reject"],
             Verdict.PARSER_REJECTED),
            (SPEC_MODEL, "verify",
             ["start", "parse_ipv4", "!verify", "!reject"],
             Verdict.PARSER_REJECTED),
            (SDNET_MODEL, "accept", ["start", "parse_ipv4"],
             Verdict.FORWARDED),
            (SDNET_MODEL, "reject", ["start", "!reject_ignored"],
             Verdict.FORWARDED),
            (SDNET_MODEL, "verify",
             ["start", "parse_ipv4", "!verify", "!reject_ignored"],
             Verdict.FORWARDED),
        ],
        ids=["spec-accept", "spec-reject", "spec-verify",
             "sdnet-accept", "sdnet-reject", "sdnet-verify"],
    )
    def test_strict_parser_paths(self, model, kind, parser_path, verdict):
        interp = Interpreter(strict_parser(), model=model)
        result = interp.process(strict_parser_wire(kind))
        assert interp.parser_path == parser_path
        assert interp.table_path == []
        assert result.verdict is verdict

    @pytest.mark.parametrize(
        "model, parser_path",
        [
            (SPEC_MODEL, ["start", "!verify", "!reject"]),
            (SDNET_MODEL, ["start", "!verify", "!reject_ignored", "next"]),
        ],
        ids=["spec", "sdnet"],
    )
    def test_ignored_verify_keeps_walking(self, model, parser_path):
        b = ProgramBuilder("verify_then_next")
        b.header(ETHERNET)
        b.parser_state("start", extracts=["ethernet"]).verify(
            fld("ethernet", "ether_type").eq(ETHERTYPE_IPV4),
            PARSER_ERROR_VERIFY_FAILED,
        ).goto("next")
        b.parser_state("next").accept()
        b.ingress.action("out", [], [Forward(Const(1, 9))])
        b.ingress.call("out")
        b.emit("ethernet")
        interp = Interpreter(b.build(), model=model)
        interp.process(ethernet_frame(1, 2, 0xBEEF).pack())
        assert interp.parser_path == parser_path

    def test_table_path_records_winning_entry_index(self):
        program = ipv4_router()
        routes = program.ingress.table("ipv4_lpm")
        for prefix, length, port in (
            ("10.0.0.0", 8, 1), ("10.1.0.0", 16, 2), ("11.0.0.0", 8, 3),
        ):
            routes.insert(
                TableEntry(
                    (KeyPattern.lpm(ipv4(prefix), length),), "route",
                    (mac("00:00:00:00:00:01"), port),
                )
            )
        interp = Interpreter(program)
        cases = (("10.1.2.3", 1), ("10.9.9.9", 0), ("11.0.0.1", 2),
                 ("12.0.0.1", None))
        for dst, index in cases:
            interp.process(
                udp_packet(ipv4(dst), ipv4("1.1.1.1"), 1, 2).pack()
            )
            assert interp.table_path == [("ipv4_lpm", index)]

    def test_path_resets_on_every_process(self):
        interp = Interpreter(strict_parser())
        interp.process(strict_parser_wire("verify"))
        interp.process(strict_parser_wire("accept"))
        assert interp.parser_path == ["start", "parse_ipv4"]


class TestPrimitives:
    def test_set_field_and_meta(self):
        def extra(b):
            b.metadata("note", 8)
            b.ingress.action(
                "mark",
                [],
                [
                    SetField("ethernet", "src_addr", Const(0xAB, 48)),
                    SetMeta("note", Const(7, 8)),
                ],
            )
            b.ingress.call("mark")

        program = minimal_program(extra).build()
        result = run(program, ethernet_frame(1, 2, 3).pack())
        assert result.packet.get("ethernet")["src_addr"] == 0xAB
        assert result.metadata["note"] == 7

    def test_set_field_truncates(self):
        def extra(b):
            b.ingress.action(
                "big",
                [],
                [SetField("ethernet", "ether_type",
                          Const(0x1FFFF, 17))],
            )
            b.ingress.call("big")

        program = minimal_program(extra).build(validate=True)
        result = run(program, ethernet_frame(1, 2, 3).pack())
        assert result.packet.get("ethernet")["ether_type"] == 0xFFFF

    def test_add_remove_header(self):
        b = ProgramBuilder("addrm")
        b.header(ETHERNET)
        b.header(IPV4)
        b.parser_state("start", extracts=["ethernet"]).accept()
        b.ingress.action(
            "wrap",
            [],
            [
                AddHeader("ipv4", after="ethernet"),
                SetField("ipv4", "ttl", Const(9, 8)),
                Forward(Const(0, 9)),
            ],
        )
        b.ingress.call("wrap")
        b.emit("ethernet", "ipv4")
        program = b.build()
        result = run(program, ethernet_frame(1, 2, 3).pack())
        assert result.packet.has("ipv4")
        assert result.packet.get("ipv4")["ttl"] == 9

        # now remove it again in egress
        b2 = ProgramBuilder("rm")
        b2.header(ETHERNET)
        b2.header(IPV4)
        b2.parser_state("start", extracts=["ethernet", "ipv4"]).accept()
        b2.ingress.action(
            "strip", [], [RemoveHeader("ipv4"), Forward(Const(0, 9))]
        )
        b2.ingress.call("strip")
        b2.emit("ethernet", "ipv4")
        program2 = b2.build()
        wire = (
            ethernet_frame(1, 2, ETHERTYPE_IPV4).pack()
            + bytes(IPV4.byte_width)
        )
        result2 = run(program2, wire)
        assert not result2.packet.has("ipv4")

    def test_drop(self):
        def extra(b):
            b.ingress.action("kill", [], [Drop()])
            b.ingress.call("kill")

        program = minimal_program(extra).build()
        result = run(program, ethernet_frame(1, 2, 3).pack())
        assert result.verdict is Verdict.DROPPED
        assert result.packet is None

    def test_forward_clears_drop(self):
        def extra(b):
            b.ingress.action("kill", [], [Drop()])
            b.ingress.action("save", [], [Forward(Const(2, 9))])
            b.ingress.call("kill")
            b.ingress.call("save")

        program = minimal_program(extra).build()
        result = run(program, ethernet_frame(1, 2, 3).pack())
        assert result.verdict is Verdict.FORWARDED
        assert result.egress_port == 2

    def test_counter(self):
        def extra(b):
            b.counter("hits", 4)
            b.ingress.action(
                "count", [], [CountPacket("hits", meta("ingress_port"))]
            )
            b.ingress.call("count")

        program = minimal_program(extra).build()
        interp = Interpreter(program)
        wire = ethernet_frame(1, 2, 3).pack()
        interp.process(wire, ingress_port=2)
        interp.process(wire, ingress_port=2)
        interp.process(wire, ingress_port=1)
        assert interp.state.counter_value("hits", 2) == 2
        assert interp.state.counter_value("hits", 1) == 1

    def test_counter_out_of_range(self):
        def extra(b):
            b.counter("hits", 2)
            b.ingress.action(
                "count", [], [CountPacket("hits", Const(5, 8))]
            )
            b.ingress.call("count")

        program = minimal_program(extra).build()
        with pytest.raises(P4RuntimeError):
            run(program, ethernet_frame(1, 2, 3).pack())

    def test_register_write_read(self):
        def extra(b):
            b.register("last", 4, 16)
            b.metadata("seen", 16)
            b.ingress.action(
                "store",
                [],
                [
                    RegisterWrite("last", Const(1, 8), Const(0xBEEF, 16)),
                    RegisterRead("last", Const(1, 8), "seen"),
                ],
            )
            b.ingress.call("store")

        program = minimal_program(extra).build()
        interp = Interpreter(program)
        result = interp.process(ethernet_frame(1, 2, 3).pack())
        assert interp.state.register_value("last", 1) == 0xBEEF
        assert result.metadata["seen"] == 0xBEEF

    def test_register_width_truncates(self):
        def extra(b):
            b.register("r", 1, 4)
            b.ingress.action(
                "w", [], [RegisterWrite("r", Const(0, 1), Const(0xFF, 8))]
            )
            b.ingress.call("w")

        program = minimal_program(extra).build()
        interp = Interpreter(program)
        interp.process(ethernet_frame(1, 2, 3).pack())
        assert interp.state.register_value("r", 0) == 0xF

    def test_hash_deterministic(self):
        def extra(b):
            b.metadata("bucket", 16)
            b.ingress.action(
                "h",
                [],
                [
                    HashField(
                        "bucket",
                        (fld("ethernet", "dst_addr"),
                         fld("ethernet", "src_addr")),
                        8,
                    )
                ],
            )
            b.ingress.call("h")

        program = minimal_program(extra).build()
        wire = ethernet_frame(0x11, 0x22, 3).pack()
        a = run(program, wire).metadata["bucket"]
        b2 = run(program, wire).metadata["bucket"]
        assert a == b2
        assert 0 <= a < 8

    def test_exit_stops_processing(self):
        def extra(b):
            b.ingress.action("bail", [], [Exit()])
            b.ingress.action("after", [], [Drop()])
            b.ingress.call("bail")
            b.ingress.call("after")

        program = minimal_program(extra).build()
        result = run(program, ethernet_frame(1, 2, 3).pack())
        # Exit unwound before the Drop: still forwarded by "out".
        assert result.verdict is Verdict.FORWARDED


class TestControlFlow:
    def test_if_else(self):
        b = ProgramBuilder("ife")
        b.header(ETHERNET)
        b.parser_state("start", extracts=["ethernet"]).accept()
        b.ingress.action("left", [], [Forward(Const(1, 9))])
        b.ingress.action("right", [], [Forward(Const(2, 9))])
        b.ingress.when(
            fld("ethernet", "ether_type").eq(0x0800),
            Call("left"),
            Call("right"),
        )
        b.emit("ethernet")
        program = b.build()
        left = run(program, ethernet_frame(1, 2, 0x0800).pack())
        right = run(program, ethernet_frame(1, 2, 0x9999).pack())
        assert left.egress_port == 1
        assert right.egress_port == 2

    def test_if_hit_branches(self):
        from repro.p4.table import KeyPattern, TableEntry

        b = ProgramBuilder("ifh")
        b.header(ETHERNET)
        b.parser_state("start", extracts=["ethernet"]).accept()
        table = b.ingress.table("t")
        table.key(fld("ethernet", "dst_addr"), "exact", "dst")
        table.action("seen", [], [])
        b.ingress.action("known", [], [Forward(Const(1, 9))])
        b.ingress.action("unknown", [], [Forward(Const(2, 9))])
        b.ingress.on_hit("t", Call("known"), Call("unknown"))
        b.emit("ethernet")
        program = b.build()
        program.table("t").insert(
            TableEntry((KeyPattern.exact(0xAA),), "seen", ())
        )
        hit = run(program, ethernet_frame(0xAA, 1, 3).pack())
        miss = run(program, ethernet_frame(0xBB, 1, 3).pack())
        assert hit.egress_port == 1
        assert miss.egress_port == 2

    def test_egress_runs_after_ingress(self):
        b = ProgramBuilder("egr")
        b.header(ETHERNET)
        b.parser_state("start", extracts=["ethernet"]).accept()
        b.ingress.action("out", [], [Forward(Const(1, 9))])
        b.ingress.call("out")
        b.egress.action(
            "stamp", [], [SetField("ethernet", "src_addr", Const(0xE9, 48))]
        )
        b.egress.call("stamp")
        b.emit("ethernet")
        program = b.build()
        result = run(program, ethernet_frame(1, 2, 3).pack())
        assert result.packet.get("ethernet")["src_addr"] == 0xE9

    def test_egress_skipped_on_drop(self):
        b = ProgramBuilder("egs")
        b.header(ETHERNET)
        b.parser_state("start", extracts=["ethernet"]).accept()
        b.ingress.action("kill", [], [Drop()])
        b.ingress.call("kill")
        b.egress.action("revive", [], [Forward(Const(1, 9))])
        b.egress.call("revive")
        b.emit("ethernet")
        program = b.build()
        result = run(program, ethernet_frame(1, 2, 3).pack())
        assert result.verdict is Verdict.DROPPED


class TestDeparsing:
    def test_emit_order_respected(self):
        b = ProgramBuilder("dep")
        b.header(ETHERNET)
        b.header(IPV4)
        b.parser_state("start", extracts=["ethernet", "ipv4"]).accept()
        b.ingress.action("out", [], [Forward(Const(0, 9))])
        b.ingress.call("out")
        # Deliberately unusual order: ipv4 before ethernet.
        b.emit("ipv4", "ethernet")
        program = b.build()
        wire = ethernet_frame(1, 2, ETHERTYPE_IPV4).pack() + bytes(20)
        result = run(program, wire)
        assert result.packet.header_names() == ["ipv4", "ethernet"]

    def test_payload_preserved(self):
        program = minimal_program().build()
        frame = ethernet_frame(1, 2, 3, payload=b"PAYLOAD")
        result = run(program, frame.pack())
        assert result.packet.payload == b"PAYLOAD"

    def test_metadata_ingress_values(self):
        program = minimal_program().build()
        frame = ethernet_frame(1, 2, 3, payload=b"123")
        result = run(program, frame.pack(), ingress_port=5, timestamp=777)
        assert result.metadata["ingress_port"] == 5
        assert result.metadata["ingress_global_timestamp"] == 777
        assert result.metadata["packet_length"] == frame.wire_length
        assert result.metadata["egress_port"] == result.metadata["egress_spec"]


class TestRouterEndToEnd:
    def test_route_rewrites_and_decrements(self):
        from repro.p4.table import KeyPattern, TableEntry

        program = ipv4_router()
        program.table("ipv4_lpm").insert(
            TableEntry(
                (KeyPattern.lpm(ipv4("10.0.0.0"), 8),),
                "route",
                (mac("aa:bb:cc:dd:ee:ff"), 3),
            )
        )
        packet = udp_packet(ipv4("10.1.2.3"), ipv4("192.168.0.1"), 53, 99)
        result = run(program, packet.pack())
        assert result.verdict is Verdict.FORWARDED
        assert result.egress_port == 3
        out = result.packet
        assert out.get("ipv4")["ttl"] == 63
        assert out.get("ethernet")["dst_addr"] == mac("aa:bb:cc:dd:ee:ff")

    def test_no_route_drops(self):
        program = ipv4_router()
        packet = udp_packet(ipv4("10.1.2.3"), ipv4("192.168.0.1"), 53, 99)
        result = run(program, packet.pack())
        assert result.verdict is Verdict.DROPPED

    def test_ttl_one_drops(self):
        from repro.p4.table import KeyPattern, TableEntry

        program = ipv4_router()
        program.table("ipv4_lpm").insert(
            TableEntry(
                (KeyPattern.lpm(ipv4("10.0.0.0"), 8),),
                "route",
                (1, 1),
            )
        )
        packet = udp_packet(
            ipv4("10.1.2.3"), ipv4("192.168.0.1"), 53, 99, ttl=1
        )
        result = run(program, packet.pack())
        assert result.verdict is Verdict.DROPPED

    def test_non_ipv4_passthrough_drops_by_default(self):
        program = ipv4_router()
        frame = ethernet_frame(1, 2, 0x9999)
        result = run(program, frame.pack())
        # Not IPv4: ingress does nothing, egress_spec stays 0 -> forwarded
        # out port 0 per the metadata default.
        assert result.verdict is Verdict.FORWARDED
        assert result.egress_port == 0
