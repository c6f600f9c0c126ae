"""Tests for the P4 expression AST: widths, evaluation, operator sugar."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.exceptions import P4RuntimeError, P4TypeError
from repro.p4.actions import Param
from repro.p4.expr import (
    BinOp,
    Concat,
    Const,
    EvalContext,
    FieldRef,
    IsValid,
    MetaRef,
    Mux,
    Slice,
    UnOp,
    compile_expr,
    const,
    fld,
    meta,
)
from repro.p4.interpreter import bind_expr
from repro.p4.types import TypeEnv
from repro.packet.headers import ETHERNET, IPV4, TCP
from repro.packet.packet import Header, Packet


@pytest.fixture
def env():
    type_env = TypeEnv()
    type_env.declare_header(ETHERNET)
    type_env.declare_header(IPV4)
    type_env.declare_metadata("scratch", 16)
    return type_env


@pytest.fixture
def ctx():
    packet = Packet(
        headers=[
            Header(ETHERNET, {"dst_addr": 0xA, "src_addr": 0xB,
                              "ether_type": 0x0800}),
            Header(IPV4, {"ttl": 64, "dst_addr": 0x0A000001}),
        ]
    )
    metadata = {"scratch": 7, "ingress_port": 2}
    return EvalContext(packet, metadata)


class TestConst:
    def test_width_hint(self, env):
        assert Const(5, 16).width(env) == 16

    def test_inferred_width(self, env):
        assert Const(255).width(env) == 8
        assert Const(0).width(env) == 1

    def test_negative_rejected(self):
        with pytest.raises(P4TypeError):
            Const(-1)

    def test_too_wide_for_hint(self):
        with pytest.raises(Exception):
            Const(256, 8)

    def test_eval(self, env, ctx):
        assert Const(42).eval(ctx, env) == 42


class TestRefs:
    def test_field_ref(self, env, ctx):
        assert fld("ipv4", "ttl").eval(ctx, env) == 64
        assert fld("ipv4", "ttl").width(env) == 8

    def test_field_ref_path(self):
        assert fld("ipv4", "ttl").path == "ipv4.ttl"

    def test_missing_header_raises(self, env, ctx):
        with pytest.raises(P4RuntimeError):
            fld("tcp", "src_port").eval(ctx, env)

    def test_invalid_header_raises(self, env, ctx):
        ctx.packet.get("ipv4").valid = False
        with pytest.raises(P4RuntimeError):
            fld("ipv4", "ttl").eval(ctx, env)

    def test_unknown_header_width(self, env):
        with pytest.raises(P4TypeError):
            fld("nope", "x").width(env)

    def test_meta_ref(self, env, ctx):
        assert meta("scratch").eval(ctx, env) == 7
        assert meta("scratch").width(env) == 16

    def test_unset_meta_raises(self, env, ctx):
        with pytest.raises(P4RuntimeError):
            meta("unset_thing").eval(ctx, env)

    def test_is_valid(self, env, ctx):
        assert IsValid("ipv4").eval(ctx, env) == 1
        assert IsValid("tcp").eval(ctx, env) == 0
        ctx.packet.get("ipv4").valid = False
        assert IsValid("ipv4").eval(ctx, env) == 0
        assert IsValid("ipv4").width(env) == 1


class TestBinOps:
    @pytest.mark.parametrize(
        "op,left,right,expected",
        [
            ("+", 200, 100, 44),       # 8-bit wrap: 300 & 0xFF
            ("-", 0, 1, 255),          # 8-bit underflow wrap
            ("*", 16, 16, 0),          # 256 & 0xFF
            ("&", 0xF0, 0x3C, 0x30),
            ("|", 0xF0, 0x0F, 0xFF),
            ("^", 0xFF, 0x0F, 0xF0),
            ("<<", 1, 7, 128),
            ("<<", 1, 8, 0),           # shifted out at 8 bits
            (">>", 128, 7, 1),
            ("==", 5, 5, 1),
            ("==", 5, 6, 0),
            ("!=", 5, 6, 1),
            ("<", 5, 6, 1),
            ("<=", 6, 6, 1),
            (">", 7, 6, 1),
            (">=", 6, 7, 0),
            ("and", 1, 0, 0),
            ("and", 2, 3, 1),
            ("or", 0, 0, 0),
            ("or", 0, 9, 1),
        ],
    )
    def test_semantics_8bit(self, env, ctx, op, left, right, expected):
        expr = BinOp(op, Const(left, 8), Const(right, 8))
        assert expr.eval(ctx, env) == expected

    def test_unknown_op_rejected(self):
        with pytest.raises(P4TypeError):
            BinOp("%", Const(1), Const(2))

    def test_compare_width_is_one(self, env):
        assert Const(5, 8).eq(Const(5, 8)).width(env) == 1

    def test_arith_width_is_max(self, env):
        expr = BinOp("+", Const(1, 8), Const(1, 16))
        assert expr.width(env) == 16

    def test_shift_keeps_left_width(self, env):
        expr = BinOp("<<", Const(1, 8), Const(12, 16))
        assert expr.width(env) == 8

    def test_operator_sugar(self, env, ctx):
        expr = (fld("ipv4", "ttl") - 1) & 0xFF
        assert expr.eval(ctx, env) == 63

    def test_sugar_comparisons(self, env, ctx):
        assert fld("ipv4", "ttl").ge(64).eval(ctx, env) == 1
        assert fld("ipv4", "ttl").gt(64).eval(ctx, env) == 0
        assert fld("ipv4", "ttl").le(64).eval(ctx, env) == 1
        assert fld("ipv4", "ttl").lt(64).eval(ctx, env) == 0
        assert fld("ipv4", "ttl").ne(63).eval(ctx, env) == 1

    def test_logical_sugar(self, env, ctx):
        expr = fld("ipv4", "ttl").eq(64).land(meta("scratch").eq(7))
        assert expr.eval(ctx, env) == 1
        expr2 = fld("ipv4", "ttl").eq(0).lor(meta("scratch").eq(7))
        assert expr2.eval(ctx, env) == 1


class TestUnOps:
    def test_bitwise_not(self, env, ctx):
        assert UnOp("~", Const(0x0F, 8)).eval(ctx, env) == 0xF0

    def test_logical_not(self, env, ctx):
        assert UnOp("!", Const(0)).eval(ctx, env) == 1
        assert UnOp("!", Const(7)).eval(ctx, env) == 0
        assert Const(7).lnot().eval(ctx, env) == 0

    def test_negate_wraps(self, env, ctx):
        assert UnOp("-", Const(1, 8)).eval(ctx, env) == 255

    def test_unknown_rejected(self):
        with pytest.raises(P4TypeError):
            UnOp("abs", Const(1))

    def test_not_width_one(self, env):
        assert UnOp("!", Const(7, 8)).width(env) == 1


class TestSliceConcatMux:
    def test_slice(self, env, ctx):
        expr = Slice(Const(0xABCD, 16), 15, 8)
        assert expr.eval(ctx, env) == 0xAB
        assert expr.width(env) == 8

    def test_slice_bad_bounds(self):
        with pytest.raises(P4TypeError):
            Slice(Const(1), 0, 1)

    def test_concat(self, env, ctx):
        expr = Concat(Const(0xA, 4), Const(0xB, 4))
        assert expr.eval(ctx, env) == 0xAB
        assert expr.width(env) == 8

    def test_mux(self, env, ctx):
        expr = Mux(fld("ipv4", "ttl").gt(0), Const(1, 8), Const(2, 8))
        assert expr.eval(ctx, env) == 1
        expr2 = Mux(fld("ipv4", "ttl").gt(100), Const(1, 8), Const(2, 8))
        assert expr2.eval(ctx, env) == 2
        assert expr.width(env) == 8

    def test_children_traversal(self):
        expr = Mux(Const(1), Const(2), Const(3))
        assert len(expr.children()) == 3
        binop = Const(1) + Const(2)
        assert len(binop.children()) == 2
        assert Const(5).children() == ()


def _bare_ctx():
    return EvalContext(Packet(), {}), TypeEnv()


class TestProperties:
    @given(st.integers(min_value=0, max_value=255),
           st.integers(min_value=0, max_value=255))
    def test_add_commutes(self, a, b):
        ctx, env = _bare_ctx()
        left = BinOp("+", Const(a, 8), Const(b, 8)).eval(ctx, env)
        right = BinOp("+", Const(b, 8), Const(a, 8)).eval(ctx, env)
        assert left == right

    @given(st.integers(min_value=0, max_value=255))
    def test_xor_self_is_zero(self, a):
        ctx, env = _bare_ctx()
        assert BinOp("^", Const(a, 8), Const(a, 8)).eval(ctx, env) == 0

    @given(st.integers(min_value=0, max_value=255))
    def test_double_not_identity(self, a):
        ctx, env = _bare_ctx()
        expr = UnOp("~", UnOp("~", Const(a, 8)))
        assert expr.eval(ctx, env) == a

    @given(st.integers(min_value=0, max_value=0xFFFF))
    def test_slice_halves_concat_back(self, value):
        ctx, env = _bare_ctx()
        high = Slice(Const(value, 16), 15, 8)
        low = Slice(Const(value, 16), 7, 0)
        assert Concat(high, low).eval(ctx, env) == value


# ---------------------------------------------------------------------------
# The compiled lowering ≡ tree-walking ``eval``
# ---------------------------------------------------------------------------
#: The lowering's environment: two declared layouts (ipv4 may be valid,
#: invalid or absent per example), a declared-but-absent ``tcp`` and
#: two user metadata fields that may be set or unset.
_LOWER_ENV = TypeEnv()
for _spec in (ETHERNET, IPV4, TCP):
    _LOWER_ENV.declare_header(_spec)
_LOWER_ENV.declare_metadata("scratch", 16)
_LOWER_ENV.declare_metadata("wide", 40)

#: Action parameters in positional order: (name, bits).
_PARAMS = (("port", 9), ("mac", 48), ("flag", 1))

_FIELDS = [
    (spec.name, f.name, f.width)
    for spec in (ETHERNET, IPV4, TCP)
    for f in spec.fields
]
_META = ("scratch", "wide", "ingress_port", "drop")
_BIN = ("+", "-", "*", "&", "|", "^", "==", "!=", "<", "<=", ">", ">=",
        "and", "or")


def _leaves():
    consts = (
        st.integers(min_value=0, max_value=(1 << 48) - 1).map(Const)
        | st.integers(min_value=0, max_value=255).map(lambda v: Const(v, 8))
    )
    fields = st.sampled_from(_FIELDS).map(lambda f: FieldRef(f[0], f[1]))
    metas = st.sampled_from(_META).map(MetaRef)
    params = st.sampled_from(_PARAMS).map(lambda p: Param(p[0], p[1]))
    valids = st.sampled_from(["ethernet", "ipv4", "tcp"]).map(IsValid)
    return consts | fields | metas | params | valids


def _small_shift(amount):
    """Bound a shift amount to 6 bits so ``<<`` stays small."""
    width = amount.width(_LOWER_ENV)
    return Slice(amount, min(width, 6) - 1, 0)


def _extend(children):
    binops = st.builds(BinOp, st.sampled_from(_BIN), children, children)
    shifts = st.builds(
        lambda op, left, right: BinOp(op, left, _small_shift(right)),
        st.sampled_from(["<<", ">>"]), children, children,
    )
    unops = st.builds(UnOp, st.sampled_from(["~", "!", "-"]), children)

    @st.composite
    def slices(draw):
        operand = draw(children)
        width = operand.width(_LOWER_ENV)
        low = draw(st.integers(min_value=0, max_value=width - 1))
        high = draw(st.integers(min_value=low, max_value=width - 1))
        return Slice(operand, high, low)

    concats = st.builds(Concat, children, children)
    muxes = st.builds(Mux, children, children, children)
    return binops | shifts | unops | slices() | concats | muxes


_EXPRS = st.recursive(_leaves(), _extend, max_leaves=12)


@st.composite
def _lowering_contexts(draw):
    """A packet (ipv4 valid, invalid or absent), metadata with each
    user field set or unset, and action data fitting each parameter."""
    headers = [
        Header(ETHERNET, {
            "dst_addr": draw(st.integers(0, (1 << 48) - 1)),
            "ether_type": draw(st.sampled_from([0x0800, 0x86DD, 0])),
        })
    ]
    ipv4_state = draw(st.sampled_from(["valid", "invalid", "absent"]))
    if ipv4_state != "absent":
        headers.append(Header(
            IPV4,
            {
                "ttl": draw(st.integers(0, 255)),
                "dst_addr": draw(st.integers(0, (1 << 32) - 1)),
                "protocol": draw(st.integers(0, 255)),
            },
            valid=ipv4_state == "valid",
        ))
    metadata = {"ingress_port": draw(st.integers(0, 511)), "drop": 0}
    for name, width in (("scratch", 16), ("wide", 40)):
        if draw(st.booleans()):
            metadata[name] = draw(st.integers(0, (1 << width) - 1))
    args = tuple(
        draw(st.integers(0, (1 << bits) - 1)) for _, bits in _PARAMS
    )
    return Packet(headers=headers), metadata, args


def _outcome(fn):
    try:
        return ("value", fn())
    except Exception as exc:  # compared by class and message
        return ("raised", type(exc), str(exc))


@settings(max_examples=300, deadline=None)
@given(_EXPRS, _lowering_contexts())
def test_compiled_expression_matches_eval(expr, context):
    """``compile_expr`` ≡ ``bind_expr(...).eval(...)``: the same value,
    or the same error class with the same message, over random trees of
    every node kind — action parameters, valid/invalid/absent headers,
    set and unset metadata."""
    packet, metadata, args = context
    names = tuple(name for name, _ in _PARAMS)
    compiled = compile_expr(expr, _LOWER_ENV, names)
    binding = dict(zip(names, args))
    expected = _outcome(
        lambda: bind_expr(expr, binding).eval(
            EvalContext(packet, metadata), _LOWER_ENV
        )
    )
    got = _outcome(lambda: compiled(packet, metadata, args))
    assert got == expected


@pytest.mark.parametrize("op,left", [("and", 0), ("or", 1)])
def test_compiled_logic_short_circuits(op, left):
    """A decided ``&&``/``||`` never evaluates its right operand: the
    right side here reads an absent header and would raise."""
    expr = BinOp(op, Const(left), FieldRef("tcp", "dst_port"))
    compiled = compile_expr(expr, _LOWER_ENV)
    assert compiled(Packet(), {}, ()) == left
    with pytest.raises(P4RuntimeError, match="invalid header"):
        compile_expr(
            BinOp(op, Const(1 - left), FieldRef("tcp", "dst_port")),
            _LOWER_ENV,
        )(Packet(), {}, ())


def test_compiled_unbound_param_is_a_compile_time_error():
    with pytest.raises(P4RuntimeError, match="unbound"):
        compile_expr(Param("missing", 8) + 1, _LOWER_ENV, ("port",))


def test_compiled_bad_slice_is_a_compile_time_error():
    with pytest.raises(P4TypeError, match="out of range"):
        compile_expr(Slice(FieldRef("ipv4", "ttl"), 9, 0), _LOWER_ENV)
