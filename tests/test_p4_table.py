"""Table semantics: match kinds, ranking, capacity, control-plane checks."""

import pytest
from hypothesis import given, strategies as st

from repro.exceptions import ControlPlaneError, P4ValidationError
from repro.p4.actions import NOACTION, Action, Forward, Param
from repro.p4.expr import EvalContext, fld, meta
from repro.p4.table import (
    KeyPattern,
    MatchKind,
    Table,
    TableEntry,
    TableKey,
)
from repro.p4.types import TypeEnv
from repro.packet.headers import IPV4
from repro.packet.packet import Header, Packet


@pytest.fixture
def env():
    type_env = TypeEnv()
    type_env.declare_header(IPV4)
    return type_env


def make_ctx(dst: int, ttl: int = 64) -> EvalContext:
    packet = Packet(headers=[Header(IPV4, {"dst_addr": dst, "ttl": ttl})])
    return EvalContext(packet, {"ingress_port": 0})


def forward_action() -> Action:
    return Action("fwd", [Param("port", 9)], [Forward(Param("port", 9))])


def make_table(kind: MatchKind, size: int = 16) -> Table:
    table = Table(
        "t",
        keys=[TableKey(fld("ipv4", "dst_addr"), kind, "dst")],
        size=size,
    )
    table.declare_action(NOACTION)
    table.declare_action(forward_action())
    return table


class TestDeclaration:
    def test_positive_size_required(self):
        with pytest.raises(P4ValidationError):
            Table("t", size=0)

    def test_duplicate_action_rejected(self):
        table = make_table(MatchKind.EXACT)
        with pytest.raises(P4ValidationError):
            table.declare_action(Action("fwd", [], []))

    def test_unknown_action_lookup(self):
        with pytest.raises(P4ValidationError):
            make_table(MatchKind.EXACT).action("zap")

    def test_kind_flags(self):
        assert make_table(MatchKind.LPM).is_lpm
        assert make_table(MatchKind.TERNARY).is_ternary
        assert not make_table(MatchKind.EXACT).is_lpm


class TestInsertValidation:
    def test_arity_checked(self):
        table = make_table(MatchKind.EXACT)
        with pytest.raises(ControlPlaneError):
            table.insert(TableEntry((), "fwd", (1,)))

    def test_action_must_exist(self):
        table = make_table(MatchKind.EXACT)
        with pytest.raises(ControlPlaneError):
            table.insert(
                TableEntry((KeyPattern.exact(1),), "nope", ())
            )

    def test_action_data_arity_checked(self):
        table = make_table(MatchKind.EXACT)
        with pytest.raises(Exception):
            table.insert(TableEntry((KeyPattern.exact(1),), "fwd", ()))

    def test_capacity_enforced(self):
        table = make_table(MatchKind.EXACT, size=2)
        for index in range(2):
            table.insert(
                TableEntry((KeyPattern.exact(index),), "fwd", (1,))
            )
        with pytest.raises(ControlPlaneError):
            table.insert(TableEntry((KeyPattern.exact(9),), "fwd", (1,)))

    def test_negative_priority_rejected(self):
        with pytest.raises(ControlPlaneError):
            TableEntry((KeyPattern.exact(1),), "fwd", (1,), priority=-1)

    def test_remove_and_clear(self):
        table = make_table(MatchKind.EXACT)
        entry = TableEntry((KeyPattern.exact(1),), "fwd", (1,))
        table.insert(entry)
        table.remove(entry)
        assert table.entries == []
        with pytest.raises(ControlPlaneError):
            table.remove(entry)
        table.insert(entry)
        table.clear()
        assert table.entries == []


class TestExactMatch:
    def test_hit_and_miss(self, env):
        table = make_table(MatchKind.EXACT)
        table.insert(TableEntry((KeyPattern.exact(0x0A000001),), "fwd", (3,)))
        hit = table.lookup(make_ctx(0x0A000001), env)
        assert hit.hit and hit.action == "fwd" and hit.action_data == (3,)
        miss = table.lookup(make_ctx(0x0A000002), env)
        assert not miss.hit and miss.action == "NoAction"

    def test_default_action_data(self, env):
        table = make_table(MatchKind.EXACT)
        table.default_action = "fwd"
        table.default_action_data = (7,)
        miss = table.lookup(make_ctx(1), env)
        assert miss.action == "fwd" and miss.action_data == (7,)


class TestLpmMatch:
    def test_longest_prefix_wins(self, env):
        table = make_table(MatchKind.LPM)
        table.insert(
            TableEntry((KeyPattern.lpm(0x0A000000, 8),), "fwd", (1,))
        )
        table.insert(
            TableEntry((KeyPattern.lpm(0x0A010000, 16),), "fwd", (2,))
        )
        result = table.lookup(make_ctx(0x0A010203), env)
        assert result.action_data == (2,)
        result = table.lookup(make_ctx(0x0A990203), env)
        assert result.action_data == (1,)

    def test_zero_prefix_matches_all(self, env):
        table = make_table(MatchKind.LPM)
        table.insert(TableEntry((KeyPattern.lpm(0, 0),), "fwd", (9,)))
        assert table.lookup(make_ctx(0xDEADBEEF), env).action_data == (9,)

    def test_full_prefix_is_exact(self, env):
        table = make_table(MatchKind.LPM)
        table.insert(
            TableEntry((KeyPattern.lpm(0x0A000001, 32),), "fwd", (5,))
        )
        assert table.lookup(make_ctx(0x0A000001), env).hit
        assert not table.lookup(make_ctx(0x0A000002), env).hit

    def test_missing_prefix_len_rejected(self, env):
        table = make_table(MatchKind.LPM)
        table.insert(TableEntry((KeyPattern(value=1),), "fwd", (1,)))
        with pytest.raises(ControlPlaneError):
            table.lookup(make_ctx(1), env)

    @given(
        st.integers(min_value=0, max_value=0xFFFFFFFF),
        st.lists(
            st.tuples(
                st.integers(min_value=0, max_value=0xFFFFFFFF),
                st.integers(min_value=0, max_value=32),
            ),
            min_size=1,
            max_size=10,
        ),
    )
    def test_lpm_agrees_with_naive_model(self, dst, prefixes):
        """Table LPM selection equals the naive longest-match reference."""
        env = TypeEnv()
        env.declare_header(IPV4)
        table = make_table(MatchKind.LPM, size=32)
        for index, (value, plen) in enumerate(prefixes):
            table.insert(
                TableEntry((KeyPattern.lpm(value, plen),), "fwd", (index,))
            )
        result = table.lookup(make_ctx(dst), env)

        def matches(value, plen):
            if plen == 0:
                return True
            shift = 32 - plen
            return (dst >> shift) == (value >> shift)

        best = None
        for index, (value, plen) in enumerate(prefixes):
            if matches(value, plen):
                if best is None or plen > best[1]:
                    best = (index, plen)
        if best is None:
            assert not result.hit
        else:
            assert result.hit
            # Same prefix length could appear twice; compare lengths.
            assert prefixes[result.action_data[0]][1] == best[1]


class TestTernaryMatch:
    def test_mask_semantics(self, env):
        table = make_table(MatchKind.TERNARY)
        table.insert(
            TableEntry(
                (KeyPattern.ternary(0x0A000000, 0xFF000000),), "fwd", (1,)
            )
        )
        assert table.lookup(make_ctx(0x0A123456), env).hit
        assert not table.lookup(make_ctx(0x0B000000), env).hit

    def test_priority_breaks_overlap(self, env):
        table = make_table(MatchKind.TERNARY)
        table.insert(
            TableEntry(
                (KeyPattern.ternary(0, 0),), "fwd", (1,), priority=1
            )
        )
        table.insert(
            TableEntry(
                (KeyPattern.ternary(0x0A000000, 0xFF000000),),
                "fwd",
                (2,),
                priority=10,
            )
        )
        assert table.lookup(make_ctx(0x0A000001), env).action_data == (2,)
        assert table.lookup(make_ctx(0x0B000001), env).action_data == (1,)

    def test_missing_mask_rejected(self, env):
        table = make_table(MatchKind.TERNARY)
        table.insert(TableEntry((KeyPattern(value=1),), "fwd", (1,)))
        with pytest.raises(ControlPlaneError):
            table.lookup(make_ctx(1), env)


class TestRangeMatch:
    def test_inclusive_bounds(self, env):
        table = Table(
            "r",
            keys=[TableKey(fld("ipv4", "ttl"), MatchKind.RANGE, "ttl")],
        )
        table.declare_action(NOACTION)
        table.declare_action(forward_action())
        table.insert(TableEntry((KeyPattern.range(10, 20),), "fwd", (1,)))
        assert table.lookup(make_ctx(0, ttl=10), env).hit
        assert table.lookup(make_ctx(0, ttl=20), env).hit
        assert not table.lookup(make_ctx(0, ttl=9), env).hit
        assert not table.lookup(make_ctx(0, ttl=21), env).hit

    def test_priority_on_overlap(self, env):
        table = Table(
            "r",
            keys=[TableKey(fld("ipv4", "ttl"), MatchKind.RANGE, "ttl")],
        )
        table.declare_action(NOACTION)
        table.declare_action(forward_action())
        table.insert(
            TableEntry((KeyPattern.range(0, 255),), "fwd", (1,), priority=1)
        )
        table.insert(
            TableEntry((KeyPattern.range(60, 70),), "fwd", (2,), priority=5)
        )
        assert table.lookup(make_ctx(0, ttl=64), env).action_data == (2,)


class TestMultiKey:
    def test_all_keys_must_match(self, env):
        env.declare_metadata("ecmp", 16)
        table = Table(
            "m",
            keys=[
                TableKey(fld("ipv4", "dst_addr"), MatchKind.EXACT, "dst"),
                TableKey(meta("ingress_port"), MatchKind.EXACT, "port"),
            ],
        )
        table.declare_action(NOACTION)
        table.declare_action(forward_action())
        table.insert(
            TableEntry(
                (KeyPattern.exact(5), KeyPattern.exact(0)), "fwd", (1,)
            )
        )
        assert table.lookup(make_ctx(5), env).hit
        ctx = make_ctx(5)
        ctx.metadata["ingress_port"] = 1
        assert not table.lookup(ctx, env).hit


class TestMatchIndex:
    @given(
        st.integers(min_value=0, max_value=0xFF),
        st.lists(
            st.tuples(
                st.integers(min_value=0, max_value=0xFF),
                st.integers(min_value=0, max_value=0xFF),
                st.integers(min_value=0, max_value=2),
            ),
            max_size=8,
        ),
        st.booleans(),
    )
    def test_index_is_the_winning_entrys_position(
        self, dst, patterns, reinsert_first
    ):
        """``MatchResult.index`` is the position of the naive model's
        winner: the highest priority among matching entries, the first
        installed on a tie, also with one entry object installed
        twice."""
        env = TypeEnv()
        env.declare_header(IPV4)
        table = make_table(MatchKind.TERNARY, size=32)
        for value, mask, priority in patterns:
            table.insert(
                TableEntry(
                    (KeyPattern.ternary(value, mask),), "fwd", (1,),
                    priority=priority,
                )
            )
        if reinsert_first and table.entries:
            table.insert(table.entries[0])
        result = table.lookup(make_ctx(dst), env)
        best = None
        for position, entry in enumerate(table.entries):
            (pattern,) = entry.patterns
            if dst & pattern.mask != pattern.value & pattern.mask:
                continue
            if best is None or entry.priority > table.entries[best].priority:
                best = position
        assert result.index == best
        assert result.hit is (best is not None)
