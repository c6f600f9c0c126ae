"""Expression AST for P4-like programs.

Expressions appear in action bodies, control-flow conditions, select keys
and table keys. The AST is deliberately small and closed: every node knows
its bit width (given a :class:`~repro.p4.types.TypeEnv`) and can be
evaluated concretely here, lowered to Python source by :class:`Lowering`
(the batch kernel's and :func:`compile_expr`'s one lowering), or walked
symbolically by the formal-verification baseline.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING

from ..bitutils import check_width, mask, slice_bits, truncate
from ..exceptions import P4RuntimeError, P4TypeError

if TYPE_CHECKING:  # pragma: no cover - import cycle guard for typing only
    from ..packet.packet import Packet
    from .types import TypeEnv

__all__ = [
    "Expr",
    "Const",
    "FieldRef",
    "MetaRef",
    "IsValid",
    "BinOp",
    "UnOp",
    "Slice",
    "Concat",
    "Mux",
    "BINARY_OPS",
    "UNARY_OPS",
    "const",
    "fld",
    "meta",
    "Lowering",
    "compile_expr",
]


class EvalContext:
    """Concrete evaluation context: a packet plus its metadata mapping."""

    __slots__ = ("packet", "metadata")

    def __init__(self, packet: "Packet", metadata: dict[str, int]):
        self.packet = packet
        self.metadata = metadata


class Expr:
    """Base class for all expression nodes."""

    def width(self, env: "TypeEnv") -> int:
        raise NotImplementedError

    def eval(self, ctx: EvalContext, env: "TypeEnv") -> int:
        raise NotImplementedError

    def children(self) -> tuple["Expr", ...]:
        return ()

    # Operator sugar so DSL users can write ``fld("ipv4","ttl") - 1``.
    def _bin(self, op: str, other: "Expr | int") -> "BinOp":
        if isinstance(other, int):
            other = Const(other)
        return BinOp(op, self, other)

    def __add__(self, other):  # noqa: D105 - operator sugar
        return self._bin("+", other)

    def __sub__(self, other):
        return self._bin("-", other)

    def __and__(self, other):
        return self._bin("&", other)

    def __or__(self, other):
        return self._bin("|", other)

    def __xor__(self, other):
        return self._bin("^", other)

    def __lshift__(self, other):
        return self._bin("<<", other)

    def __rshift__(self, other):
        return self._bin(">>", other)

    def eq(self, other):
        """Equality comparison node (``==`` is reserved for identity)."""
        return self._bin("==", other)

    def ne(self, other):
        return self._bin("!=", other)

    def lt(self, other):
        return self._bin("<", other)

    def le(self, other):
        return self._bin("<=", other)

    def gt(self, other):
        return self._bin(">", other)

    def ge(self, other):
        return self._bin(">=", other)

    def land(self, other):
        """Logical AND (non-zero test on both operands)."""
        return self._bin("and", other)

    def lor(self, other):
        return self._bin("or", other)

    def lnot(self):
        return UnOp("!", self)


@dataclass(frozen=True)
class Const(Expr):
    """An integer literal; ``width_hint`` pins the width when given."""

    value: int
    width_hint: int | None = None

    def __post_init__(self) -> None:
        if self.value < 0:
            raise P4TypeError(f"P4 constants are unsigned, got {self.value}")
        if self.width_hint is not None:
            check_width(self.value, self.width_hint, "constant")

    def width(self, env: "TypeEnv") -> int:
        if self.width_hint is not None:
            return self.width_hint
        return max(self.value.bit_length(), 1)

    def eval(self, ctx: EvalContext, env: "TypeEnv") -> int:
        return self.value


@dataclass(frozen=True)
class FieldRef(Expr):
    """A reference to ``header.field``."""

    header: str
    field: str

    @property
    def path(self) -> str:
        return f"{self.header}.{self.field}"

    def width(self, env: "TypeEnv") -> int:
        return env.field_width(self.header, self.field)

    def eval(self, ctx: EvalContext, env: "TypeEnv") -> int:
        header = ctx.packet.get_or_none(self.header)
        if header is None or not header.valid:
            raise P4RuntimeError(
                f"read of field {self.path!r} on invalid header"
            )
        return header[self.field]


@dataclass(frozen=True)
class MetaRef(Expr):
    """A reference to a (standard or user) metadata field."""

    name: str

    def width(self, env: "TypeEnv") -> int:
        return env.metadata_width(self.name)

    def eval(self, ctx: EvalContext, env: "TypeEnv") -> int:
        try:
            return ctx.metadata[self.name]
        except KeyError:
            raise P4RuntimeError(
                f"read of unset metadata field {self.name!r}"
            ) from None


@dataclass(frozen=True)
class IsValid(Expr):
    """1 when the named header is present and valid, else 0."""

    header: str

    def width(self, env: "TypeEnv") -> int:
        return 1

    def eval(self, ctx: EvalContext, env: "TypeEnv") -> int:
        return 1 if ctx.packet.has(self.header) else 0


_ARITH = {"+", "-", "*"}
_BITWISE = {"&", "|", "^", "<<", ">>"}
_COMPARE = {"==", "!=", "<", "<=", ">", ">="}
_LOGICAL = {"and", "or"}
BINARY_OPS = _ARITH | _BITWISE | _COMPARE | _LOGICAL
UNARY_OPS = {"~", "!", "-"}


@dataclass(frozen=True)
class BinOp(Expr):
    """A binary operation; arithmetic wraps at the operand width (P4)."""

    op: str
    left: Expr
    right: Expr

    def __post_init__(self) -> None:
        if self.op not in BINARY_OPS:
            raise P4TypeError(f"unknown binary operator {self.op!r}")

    def children(self) -> tuple[Expr, ...]:
        return (self.left, self.right)

    def width(self, env: "TypeEnv") -> int:
        if self.op in _COMPARE or self.op in _LOGICAL:
            return 1
        left = self.left.width(env)
        if self.op in ("<<", ">>"):
            return left
        return max(left, self.right.width(env))

    def eval(self, ctx: EvalContext, env: "TypeEnv") -> int:
        left = self.left.eval(ctx, env)
        # P4 requires short-circuit evaluation of && and ||: the right
        # operand must not be evaluated (it may read an invalid header)
        # when the left side already decides.
        if self.op == "and" and not left:
            return 0
        if self.op == "or" and left:
            return 1
        right = self.right.eval(ctx, env)
        result_width = self.width(env)
        if self.op == "+":
            return truncate(left + right, result_width)
        if self.op == "-":
            return truncate(left - right, result_width)
        if self.op == "*":
            return truncate(left * right, result_width)
        if self.op == "&":
            return left & right
        if self.op == "|":
            return left | right
        if self.op == "^":
            return left ^ right
        if self.op == "<<":
            return truncate(left << right, result_width)
        if self.op == ">>":
            return left >> right
        if self.op == "==":
            return int(left == right)
        if self.op == "!=":
            return int(left != right)
        if self.op == "<":
            return int(left < right)
        if self.op == "<=":
            return int(left <= right)
        if self.op == ">":
            return int(left > right)
        if self.op == ">=":
            return int(left >= right)
        if self.op == "and":
            return int(bool(left) and bool(right))
        if self.op == "or":
            return int(bool(left) or bool(right))
        raise P4RuntimeError(f"unhandled operator {self.op!r}")


@dataclass(frozen=True)
class UnOp(Expr):
    """A unary operation: bitwise not, logical not, or negation."""

    op: str
    operand: Expr

    def __post_init__(self) -> None:
        if self.op not in UNARY_OPS:
            raise P4TypeError(f"unknown unary operator {self.op!r}")

    def children(self) -> tuple[Expr, ...]:
        return (self.operand,)

    def width(self, env: "TypeEnv") -> int:
        return 1 if self.op == "!" else self.operand.width(env)

    def eval(self, ctx: EvalContext, env: "TypeEnv") -> int:
        value = self.operand.eval(ctx, env)
        width = self.operand.width(env)
        if self.op == "~":
            return value ^ mask(width)
        if self.op == "!":
            return int(not value)
        if self.op == "-":
            return truncate(-value, width)
        raise P4RuntimeError(f"unhandled operator {self.op!r}")


@dataclass(frozen=True)
class Slice(Expr):
    """P4 bit slice ``operand[high:low]`` (inclusive bounds)."""

    operand: Expr
    high: int
    low: int

    def __post_init__(self) -> None:
        if self.low < 0 or self.high < self.low:
            raise P4TypeError(f"bad slice bounds [{self.high}:{self.low}]")

    def children(self) -> tuple[Expr, ...]:
        return (self.operand,)

    def width(self, env: "TypeEnv") -> int:
        return self.high - self.low + 1

    def eval(self, ctx: EvalContext, env: "TypeEnv") -> int:
        value = self.operand.eval(ctx, env)
        return slice_bits(value, self.operand.width(env), self.high, self.low)


@dataclass(frozen=True)
class Concat(Expr):
    """P4 ``++`` bit concatenation, left operand in the high bits."""

    left: Expr
    right: Expr

    def children(self) -> tuple[Expr, ...]:
        return (self.left, self.right)

    def width(self, env: "TypeEnv") -> int:
        return self.left.width(env) + self.right.width(env)

    def eval(self, ctx: EvalContext, env: "TypeEnv") -> int:
        right_width = self.right.width(env)
        return (self.left.eval(ctx, env) << right_width) | self.right.eval(
            ctx, env
        )


@dataclass(frozen=True)
class Mux(Expr):
    """Ternary conditional ``cond ? then : otherwise``."""

    cond: Expr
    then: Expr
    otherwise: Expr

    def children(self) -> tuple[Expr, ...]:
        return (self.cond, self.then, self.otherwise)

    def width(self, env: "TypeEnv") -> int:
        return max(self.then.width(env), self.otherwise.width(env))

    def eval(self, ctx: EvalContext, env: "TypeEnv") -> int:
        if self.cond.eval(ctx, env):
            return self.then.eval(ctx, env)
        return self.otherwise.eval(ctx, env)


def const(value: int, width: int | None = None) -> Const:
    """Shorthand constructor for :class:`Const`."""
    return Const(value, width)


def fld(header: str, field: str) -> FieldRef:
    """Shorthand constructor for :class:`FieldRef`."""
    return FieldRef(header, field)


def meta(name: str) -> MetaRef:
    """Shorthand constructor for :class:`MetaRef`."""
    return MetaRef(name)


# ----------------------------------------------------------------------
# Lowering to Python source (the kernel and the checker)
# ----------------------------------------------------------------------
class _Absent:
    """Stands in for a header the packet does not carry."""

    __slots__ = ()
    valid = False


def _read_field(packet: "Packet", name: str, field: str) -> int:
    """A field of the packet's first header called ``name``, which must
    be valid; the lowered read of a field whose layout is known."""
    for header in packet.headers:
        if header.spec.name == name:
            if header.valid:
                try:
                    return header._values[field]
                except KeyError:
                    # A same-named header with another layout (checker
                    # env vs device program) stays a ReproError.
                    raise P4RuntimeError(
                        f"header {name!r} has no field {field!r}"
                    ) from None
            break
    path = f"{name}.{field}"
    raise P4RuntimeError(f"read of field {path!r} on invalid header")


#: Globals every lowered source refers to.
LOWERING_GLOBALS = {
    "_P4RuntimeError": P4RuntimeError,
    "_ABSENT": _Absent(),
    "_read_field": _read_field,
}


class Lowering:
    """Lowers expressions to Python source, one statement at a time.

    The one expression lowering: :func:`compile_expr`, the batch
    kernel's generated parser, control stages and actions
    (:mod:`repro.target.fastpath`) all emit through it. :meth:`expr`
    appends the statements an expression needs to ``lines`` — field
    reads (one ``_read_field`` call each, or a local dict lookup for a
    header the parser just extracted), metadata reads with their typed
    errors, and the branches of short-circuit ``&&``/``||`` and ``?:``
    — and returns a Python expression for its value that cannot raise. Widths and truncation
    masks become constants; evaluation order and every error class and
    message match ``eval``. The generated code reads ``packet`` and
    ``metadata``; temporaries are ``_t<n>`` and ``_h``.
    ``metadata_reads`` collects every metadata field the lowered code
    reads.
    """

    def __init__(self, env: "TypeEnv"):
        self.env = env
        self.lines: list[str] = []
        self.metadata_reads: set[str] = set()
        self._temps = 0

    def temp(self) -> str:
        self._temps += 1
        return f"_t{self._temps}"

    def find_header(self, pad: str, var: str, name: str) -> None:
        """Bind ``var`` to the packet's first header called ``name``,
        or to the absent stand-in (whose ``valid`` is False)."""
        self.lines += [
            f"{pad}for {var} in packet.headers:",
            f"{pad}    if {var}.spec.name == {name!r}:",
            f"{pad}        break",
            f"{pad}else:",
            f"{pad}    {var} = _ABSENT",
        ]

    def _capture(self, expr, pad, params, headers):
        """Lower ``expr`` at ``pad``, returning ``(source, lines)``
        without leaving the lines in place."""
        mark = len(self.lines)
        source = self.expr(expr, pad, params, headers)
        lines = self.lines[mark:]
        del self.lines[mark:]
        return source, lines

    def expr(
        self,
        expr: Expr,
        pad: str,
        params: dict[str, str] | None = None,
        headers: dict[str, str] | None = None,
    ) -> str:
        """Source for ``expr``'s value, after emitting its statements at
        indentation ``pad``.

        ``params`` maps action parameter names to source (an unbound
        :class:`~repro.p4.actions.Param` raises
        :class:`P4RuntimeError` here, mirroring ``bind_expr``);
        ``headers`` maps a header name to a local dict holding its
        just-extracted field values (the generated parser's headers).
        A bad slice raises :class:`P4TypeError` and an unknown node
        type :class:`P4TypeError`, both at lowering time.
        """
        from .actions import Param

        env = self.env
        lines = self.lines
        if isinstance(expr, Const):
            return repr(expr.value)

        if isinstance(expr, Param):
            try:
                return (params or {})[expr.name]
            except KeyError:
                raise P4RuntimeError(
                    f"action parameter {expr.name!r} is unbound"
                ) from None

        if isinstance(expr, FieldRef):
            name, field = expr.header, expr.field
            spec = env.headers.get(name)
            known = spec is not None and spec.has_field(field)
            if known and headers and name in headers:
                return f"{headers[name]}[{field!r}]"
            out = self.temp()
            if known:
                lines.append(
                    f"{pad}{out} = _read_field(packet, {name!r}, {field!r})"
                )
                return out
            # A layout the environment does not describe (checker
            # expressions over foreign headers): the validating read.
            self.find_header(pad, "_h", name)
            invalid = f"read of field {expr.path!r} on invalid header"
            lines += [
                f"{pad}if not _h.valid:",
                f"{pad}    raise _P4RuntimeError({invalid!r})",
                f"{pad}{out} = _h[{field!r}]",
            ]
            return out

        if isinstance(expr, MetaRef):
            self.metadata_reads.add(expr.name)
            out = self.temp()
            unset = f"read of unset metadata field {expr.name!r}"
            lines += [
                f"{pad}try:",
                f"{pad}    {out} = metadata[{expr.name!r}]",
                f"{pad}except KeyError:",
                f"{pad}    raise _P4RuntimeError({unset!r}) from None",
            ]
            return out

        if isinstance(expr, IsValid):
            out = self.temp()
            lines += [
                f"{pad}{out} = 0",
                f"{pad}for _h in packet.headers:",
                f"{pad}    if _h.spec.name == {expr.header!r} and _h.valid:",
                f"{pad}        {out} = 1",
                f"{pad}        break",
            ]
            return out

        if isinstance(expr, BinOp):
            op = expr.op
            left = self.expr(expr.left, pad, params, headers)
            if op in ("and", "or"):
                # The right operand runs only when the left one does
                # not decide (it may read an invalid header).
                right, right_lines = self._capture(
                    expr.right, pad + "    ", params, headers
                )
                truth = f"(1 if {right} else 0)"
                if not right_lines:
                    if op == "and":
                        return f"({truth} if {left} else 0)"
                    return f"(1 if {left} else {truth})"
                out = self.temp()
                if op == "and":
                    lines.append(f"{pad}if {left}:")
                    lines += right_lines
                    lines += [
                        f"{pad}    {out} = {truth}",
                        f"{pad}else:",
                        f"{pad}    {out} = 0",
                    ]
                else:
                    lines += [
                        f"{pad}if {left}:",
                        f"{pad}    {out} = 1",
                        f"{pad}else:",
                    ]
                    lines += right_lines
                    lines.append(f"{pad}    {out} = {truth}")
                return out
            right = self.expr(expr.right, pad, params, headers)
            if op in ("==", "!=", "<", "<=", ">", ">="):
                return f"(1 if {left} {op} {right} else 0)"
            if op in ("&", "|", "^", ">>"):
                return f"({left} {op} {right})"
            # + - * << wrap at the result width.
            return f"(({left} {op} {right}) & {mask(expr.width(env))})"

        if isinstance(expr, UnOp):
            operand = self.expr(expr.operand, pad, params, headers)
            if expr.op == "!":
                return f"(0 if {operand} else 1)"
            operand_mask = mask(expr.operand.width(env))
            if expr.op == "~":
                return f"({operand} ^ {operand_mask})"
            return f"((-{operand}) & {operand_mask})"

        if isinstance(expr, Slice):
            operand = self.expr(expr.operand, pad, params, headers)
            operand_width = expr.operand.width(env)
            high, low = expr.high, expr.low
            if not 0 <= low <= high < operand_width:
                raise P4TypeError(
                    f"slice [{high}:{low}] out of range for a "
                    f"{operand_width}-bit value"
                )
            return f"(({operand} >> {low}) & {mask(high - low + 1)})"

        if isinstance(expr, Concat):
            left = self.expr(expr.left, pad, params, headers)
            right = self.expr(expr.right, pad, params, headers)
            return f"(({left} << {expr.right.width(env)}) | {right})"

        if isinstance(expr, Mux):
            cond = self.expr(expr.cond, pad, params, headers)
            inner = pad + "    "
            then, then_lines = self._capture(expr.then, inner, params, headers)
            other, other_lines = self._capture(
                expr.otherwise, inner, params, headers
            )
            if not then_lines and not other_lines:
                return f"({then} if {cond} else {other})"
            out = self.temp()
            lines.append(f"{pad}if {cond}:")
            lines += then_lines
            lines += [f"{inner}{out} = {then}", f"{pad}else:"]
            lines += other_lines
            lines.append(f"{inner}{out} = {other}")
            return out

        raise P4TypeError(
            f"cannot compile expression node {type(expr).__name__}"
        )


def compile_expr(expr: Expr, env: "TypeEnv", params: tuple[str, ...] = ()):
    """Compile ``expr`` once into a function ``f(packet, metadata, args)``.

    The function is :class:`Lowering`'s source for the expression,
    ``exec``'d once: node types, field widths and truncation masks are
    resolved here, so a call runs straight-line code. It returns
    ``eval``'s value or raises ``eval``'s error class and message
    (:class:`~repro.exceptions.P4RuntimeError` on reads of invalid
    headers or unset metadata), short-circuiting ``&&``/``||``.

    ``params`` names the enclosing action's parameters in positional
    order; :class:`~repro.p4.actions.Param` nodes read the ``args``
    tuple. An unknown ``Param`` raises :class:`P4RuntimeError` here,
    mirroring ``bind_expr``.
    """
    lowering = Lowering(env)
    value = lowering.expr(
        expr, "    ", {name: f"args[{i}]" for i, name in enumerate(params)}
    )
    source = "\n".join(
        ["def lowered(packet, metadata, args):", *lowering.lines,
         f"    return {value}", ""]
    )
    namespace = dict(LOWERING_GLOBALS)
    exec(compile(source, "<expr>", "exec"), namespace)
    return namespace["lowered"]
