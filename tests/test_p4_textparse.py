"""Tests for the textual P4-like frontend."""

import pytest

from repro.controlplane import RuntimeAPI
from repro.p4.interpreter import Interpreter, RuntimeState, Verdict
from repro.p4.textparse import ParseError, parse_program, parse_program_file
from repro.packet.builder import ethernet_frame, udp_packet
from repro.packet.headers import ipv4, mac

ROUTER_SRC = """
header ethernet;
header ipv4;

parser start {
    extract(ethernet);
    select (ethernet.ether_type) {
        0x0800: parse_ipv4;
        default: reject;
    }
}
parser parse_ipv4 {
    extract(ipv4);
    verify(ipv4.version == 4 and ipv4.ihl >= 5, 3);
    goto accept;
}

action route(next_hop: 48, port: 9) {
    set(ethernet.dst_addr, next_hop);
    set(ipv4.ttl, ipv4.ttl - 1);
    forward(port);
}
action drop_all() {
    drop();
}

table ipv4_lpm {
    key: ipv4.dst_addr lpm;
    actions: route, drop_all;
    default: drop_all;
    size: 256;
}

control ingress {
    if (ipv4.ttl <= 1) {
        call(drop_all);
    } else {
        apply(ipv4_lpm);
    }
}

deparser { emit(ethernet); emit(ipv4); }
"""


@pytest.fixture
def router():
    program = parse_program(ROUTER_SRC, name="text_router")
    RuntimeAPI(program, RuntimeState.for_program(program)).table_add(
        "ipv4_lpm", "route", [(ipv4("10.0.0.0"), 8)],
        [mac("aa:bb:cc:dd:ee:01"), 3],
    )
    return program


class TestRouterProgram:
    def test_structure(self, router):
        summary = router.summary()
        assert summary["headers"] == 2
        assert summary["parser_states"] == 2
        assert summary["tables"] == 1
        assert router.table("ipv4_lpm").size == 256

    def test_routing_semantics(self, router):
        wire = udp_packet(ipv4("10.1.1.1"), ipv4("9.9.9.9"), 53, 9).pack()
        result = Interpreter(router).process(wire)
        assert result.egress_port == 3
        assert result.packet.get("ipv4")["ttl"] == 63
        assert result.packet.get("ethernet")["dst_addr"] == mac(
            "aa:bb:cc:dd:ee:01"
        )

    def test_reject_semantics(self, router):
        bad = ethernet_frame(1, 2, 0xBEEF, payload=b"x" * 30).pack()
        result = Interpreter(router).process(bad)
        assert result.verdict is Verdict.PARSER_REJECTED

    def test_verify_semantics(self, router):
        packet = udp_packet(ipv4("10.1.1.1"), ipv4("9.9.9.9"), 53, 9)
        packet.get("ipv4")["version"] = 6
        result = Interpreter(router).process(packet.pack())
        assert result.verdict is Verdict.PARSER_REJECTED

    def test_ttl_guard(self, router):
        packet = udp_packet(
            ipv4("10.1.1.1"), ipv4("9.9.9.9"), 53, 9, ttl=1
        )
        result = Interpreter(router).process(packet.pack())
        assert result.verdict is Verdict.DROPPED

    def test_equivalent_to_dsl_program(self, router):
        """Text and DSL routers implement the same function."""
        from repro.p4.stdlib import ipv4_router

        dsl = ipv4_router()
        RuntimeAPI(dsl, RuntimeState.for_program(dsl)).table_add(
            "ipv4_lpm", "route", [(ipv4("10.0.0.0"), 8)],
            [mac("aa:bb:cc:dd:ee:01"), 3],
        )
        wire = udp_packet(ipv4("10.2.2.2"), ipv4("8.8.8.8"), 53, 9).pack()
        a = Interpreter(router).process(wire)
        b = Interpreter(dsl).process(wire)
        assert a.verdict == b.verdict
        assert a.packet.pack() == b.packet.pack()


class TestDeclarations:
    def test_custom_header(self):
        program = parse_program(
            """
            header link { next: 8; value: 8; }
            parser start { extract(link); goto accept; }
            deparser { emit(link); }
            """,
            name="custom",
        )
        assert program.env.header("link").byte_width == 2

    def test_unknown_standard_header(self):
        with pytest.raises(ParseError, match="standard header"):
            parse_program("header nonsense;")

    def test_metadata_counter_register(self):
        program = parse_program(
            """
            header ethernet;
            metadata scratch: 12;
            counter hits[8];
            register last[4]: 32;
            parser start { extract(ethernet); goto accept; }
            action account() {
                count(hits, meta.ingress_port);
                reg_write(last, 0, meta.packet_length);
                reg_read(last, 0, scratch);
                set(meta.scratch, scratch + 1);
                forward(0);
            }
            control ingress { call(account); }
            deparser { emit(ethernet); }
            """,
            name="stateful",
        )
        interp = Interpreter(program)
        result = interp.process(
            ethernet_frame(1, 2, 3, payload=b"xy").pack(), ingress_port=2
        )
        assert interp.state.counter_value("hits", 2) == 1
        assert result.metadata["scratch"] == result.metadata[
            "packet_length"
        ] + 1

    def test_hash_and_exit_and_noop(self):
        program = parse_program(
            """
            header ethernet;
            metadata bucket: 16;
            parser start { extract(ethernet); goto accept; }
            action spread() {
                no_op();
                hash(bucket, 8, ethernet.dst_addr, ethernet.src_addr);
                forward(0);
                exit();
            }
            control ingress { call(spread); }
            deparser { emit(ethernet); }
            """,
            name="hashy",
        )
        result = Interpreter(program).process(
            ethernet_frame(5, 6, 7).pack()
        )
        assert 0 <= result.metadata["bucket"] < 8

    def test_add_remove_header(self):
        program = parse_program(
            """
            header ethernet;
            header vlan;
            parser start { extract(ethernet); goto accept; }
            action tag() {
                add_header(vlan, ethernet);
                set(vlan.vid, 42);
                forward(0);
            }
            control ingress { call(tag); }
            deparser { emit(ethernet); emit(vlan); }
            """,
            name="tagger",
        )
        result = Interpreter(program).process(
            ethernet_frame(1, 2, 3).pack()
        )
        assert result.packet.get("vlan")["vid"] == 42

    def test_on_hit_statement(self):
        program = parse_program(
            """
            header ethernet;
            parser start { extract(ethernet); goto accept; }
            action seen() { no_op(); }
            action left() { forward(1); }
            action right() { forward(2); }
            table known {
                key: ethernet.dst_addr exact;
                actions: seen;
                default: NoAction;
            }
            control ingress {
                on_hit(known) { call(left); } else { call(right); }
            }
            deparser { emit(ethernet); }
            """,
            name="hitter",
        )
        RuntimeAPI(program, RuntimeState.for_program(program)).table_add(
            "known", "seen", [0xAA], []
        )
        hit = Interpreter(program).process(
            ethernet_frame(0xAA, 1, 3).pack()
        )
        miss = Interpreter(program).process(
            ethernet_frame(0xBB, 1, 3).pack()
        )
        assert hit.egress_port == 1
        assert miss.egress_port == 2


class TestErrors:
    @pytest.mark.parametrize(
        "source,fragment",
        [
            ("header ethernet", "expected"),
            ("wibble x;", "unknown declaration"),
            ("parser start { jump(x); }", "unknown parser statement"),
            (
                "header ethernet;\nparser start { extract(ethernet); "
                "verify(1); verify(1); }",
                "two verify",
            ),
            (
                "header ethernet;\nparser start { extract(ethernet); "
                "goto accept; }\naction a() { explode(); }\n"
                "control ingress { call(a); }\ndeparser { emit(ethernet); }",
                "unknown primitive",
            ),
            ("control sideways { }", "ingress"),
            (
                "header ethernet;\nparser start { extract(ethernet); "
                "goto accept; }\ntable t { key: ethernet.dst_addr exact; "
                "actions: ghost; }\ncontrol ingress { apply(t); }\n"
                "deparser { emit(ethernet); }",
                "undeclared",
            ),
        ],
    )
    def test_syntax_errors(self, source, fragment):
        with pytest.raises(ParseError, match=fragment):
            parse_program(source)

    def test_bad_character(self):
        with pytest.raises(ParseError, match="unexpected character"):
            parse_program("header $bad;")

    def test_validation_still_runs(self):
        # Syntactically fine, semantically bogus (unknown state target).
        source = """
        header ethernet;
        parser start { extract(ethernet); goto nowhere; }
        deparser { emit(ethernet); }
        """
        with pytest.raises(Exception, match="nowhere"):
            parse_program(source)

    def test_line_numbers_in_errors(self):
        source = "header ethernet;\n\n\nwibble x;"
        with pytest.raises(ParseError):
            parse_program(source)


def _example_source() -> str:
    """The SOURCE of examples/textual_p4_program.py."""
    import importlib.util
    from pathlib import Path

    path = Path(__file__).parents[1] / "examples" / "textual_p4_program.py"
    spec = importlib.util.spec_from_file_location("textual_example", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.SOURCE


class TestBadTokens:
    """A bad token is a ParseError naming its line and the token, never
    a bare ValueError from int() or MatchKind()."""

    @pytest.mark.parametrize(
        "good,bad,detail",
        [
            ("ipv4.dst_addr lpm", "ipv4.dst_addr lp",
             "unknown match kind 'lp'"),
            ("0x0800", "0800", "malformed number '0800'"),
            ("ipv4.ihl >= 5", "ipv4.ihl >= 05", "malformed number '05'"),
        ],
    )
    def test_example_source_with_bad_token(self, good, bad, detail):
        source = _example_source()
        assert good in source
        source = source.replace(good, bad, 1)
        line = source[:source.index(bad)].count("\n") + 1
        with pytest.raises(Exception) as excinfo:
            parse_program(source)
        assert type(excinfo.value) is ParseError
        assert str(excinfo.value).startswith(f"line {line}: {detail}")


class TestFileLoading:
    def test_parse_program_file(self, tmp_path):
        path = tmp_path / "router.p4t"
        path.write_text(ROUTER_SRC)
        program = parse_program_file(path)
        assert program.name == "router"
        assert "ipv4_lpm" in program.all_tables()
