"""Spec-faithful interpreter for P4-like programs.

The interpreter defines the *reference semantics* that every target is
judged against: parse → ingress → egress → deparse, with ``reject``
dropping the packet as the P4₁₆ specification requires. Targets
(:mod:`repro.target`) reuse these routines but may deviate deliberately —
the SDNet-like target's missing ``reject`` state is implemented as exactly
such a deviation.

Each run returns a :class:`PipelineResult` and leaves the path it took
on the interpreter (:attr:`Interpreter.parser_path` and
:attr:`Interpreter.table_path`), the identity of a behaviour class in
coverage replay (:mod:`repro.netdebug.coverage`). Internal visibility
between pipeline stages is the device's business: its hooked schedule
hands taps :class:`~repro.target.pipeline.PacketSnapshot` objects.
"""

from __future__ import annotations

import zlib
from dataclasses import dataclass, field
from enum import Enum
from typing import TYPE_CHECKING

from ..bitutils import truncate
from ..exceptions import P4RuntimeError
from ..packet.packet import Header, Packet
from .actions import (
    Action,
    AddHeader,
    CountPacket,
    Drop,
    Exit,
    Forward,
    HashField,
    NoOp,
    Param,
    Primitive,
    RegisterRead,
    RegisterWrite,
    RemoveHeader,
    SetField,
    SetMeta,
)
from .control import ApplyTable, Call, Control, If, IfHit, Seq, Stmt
from .expr import BinOp, Concat, Const, EvalContext, Expr, FieldRef, IsValid, MetaRef, Mux, Slice, UnOp
from .parser import ACCEPT, REJECT, Parser
from .program import P4Program
from .types import (
    PARSER_ERROR_DEPTH_EXCEEDED,
    PARSER_ERROR_HEADER_TOO_SHORT,
    PARSER_ERROR_REJECT,
    PARSER_ERROR_VERIFY_FAILED,
    standard_metadata_defaults,
)

if TYPE_CHECKING:
    from ..target.limits import DeviationModel

__all__ = [
    "Verdict",
    "RuntimeState",
    "PipelineResult",
    "Interpreter",
    "ExitPipeline",
    "bind_expr",
    "stable_hash",
]

#: Safety bound on parser steps, to terminate cyclic parser graphs.
MAX_PARSER_STEPS = 64


class Verdict(str, Enum):
    """Final disposition of a packet."""

    FORWARDED = "forwarded"
    DROPPED = "dropped"
    PARSER_REJECTED = "parser_rejected"


@dataclass
class RuntimeState:
    """Mutable stateful objects shared across packets: counters, registers.

    Owned by the device, configured/observed through the control plane.
    """

    counters: dict[str, list[int]] = field(default_factory=dict)
    registers: dict[str, list[int]] = field(default_factory=dict)
    register_widths: dict[str, int] = field(default_factory=dict)

    @classmethod
    def for_program(cls, program: P4Program) -> "RuntimeState":
        state = cls()
        for decl in program.counters.values():
            state.counters[decl.name] = [0] * decl.size
        for decl in program.registers.values():
            state.registers[decl.name] = [0] * decl.size
            state.register_widths[decl.name] = decl.width
        return state

    def counter_value(self, name: str, index: int = 0) -> int:
        return self.counters[name][index]

    def register_value(self, name: str, index: int = 0) -> int:
        return self.registers[name][index]


@dataclass
class PipelineResult:
    """Everything a single-packet run produced."""

    verdict: Verdict
    packet: Packet | None
    metadata: dict[str, int]

    @property
    def egress_port(self) -> int | None:
        if self.verdict is not Verdict.FORWARDED:
            return None
        return self.metadata.get("egress_spec")


class ExitPipeline(Exception):
    """Raised by the ``Exit`` primitive to unwind the controls.

    Shared by the tree-walking interpreter and the compiled fast path
    (:mod:`repro.target.fastpath`) so both unwind identically.
    """


def bind_expr(expr: Expr, binding: dict[str, int]) -> Expr:
    """Substitute :class:`Param` nodes with bound constant values."""
    if isinstance(expr, Param):
        try:
            return Const(binding[expr.name], expr.bits)
        except KeyError:
            raise P4RuntimeError(
                f"action parameter {expr.name!r} is unbound"
            ) from None
    if isinstance(expr, BinOp):
        return BinOp(expr.op, bind_expr(expr.left, binding),
                     bind_expr(expr.right, binding))
    if isinstance(expr, UnOp):
        return UnOp(expr.op, bind_expr(expr.operand, binding))
    if isinstance(expr, Slice):
        return Slice(bind_expr(expr.operand, binding), expr.high, expr.low)
    if isinstance(expr, Concat):
        return Concat(bind_expr(expr.left, binding),
                      bind_expr(expr.right, binding))
    if isinstance(expr, Mux):
        return Mux(bind_expr(expr.cond, binding),
                   bind_expr(expr.then, binding),
                   bind_expr(expr.otherwise, binding))
    # Leaves (Const, FieldRef, MetaRef, IsValid) contain no params.
    return expr


def stable_hash(values: tuple[int, ...], modulo: int) -> int:
    """Deterministic CRC32-based hash used by the HashField primitive."""
    blob = b"".join(
        v.to_bytes((v.bit_length() + 7) // 8 or 1, "big") for v in values
    )
    return zlib.crc32(blob) % modulo


class Interpreter:
    """Executes a :class:`P4Program` on packets with reference semantics.

    Attributes:
        program: The program under execution.
        state: Stateful objects (counters/registers), shared across packets.
        model: The :class:`~repro.target.limits.DeviationModel` whose
            datapath semantics this interpreter runs: a parser
            ``reject`` ignored (the SDNet deviation the paper's case
            study discovered), TCAM patterns quantized at match time,
            or a deparse field budget. ``None`` means the spec
            (:data:`~repro.target.limits.SPEC_MODEL`).
        parser_path: The parser walk of the last :meth:`process` call,
            in walk order: each visited state's name, plus ``!verify``
            where a ``verify`` failed and ``!reject`` or
            ``!reject_ignored`` where the parser rejected (the latter
            when the model ignores ``reject`` and the walk goes on).
        table_path: One ``(table name, winning entry index)`` pair per
            table apply of the last :meth:`process` call, in apply
            order; the index is ``None`` on a miss.

    Built with a compiled artifact's ``model`` (as the differential
    runner does, one interpreter per distinct model), the interpreter
    is the one tree-walking definition of that target's deviant
    datapath, which devices' generated kernels are checked against.
    """

    def __init__(
        self,
        program: P4Program,
        state: RuntimeState | None = None,
        model: DeviationModel | None = None,
    ):
        if model is None:
            # Deferred: importing repro.target imports this module.
            from ..target.limits import SPEC_MODEL

            model = SPEC_MODEL
        self.program = program
        self.state = state or RuntimeState.for_program(program)
        self.model = model
        # Copied off the model: every table apply reads it.
        self._quantize = model.quantize_tcam
        self._emit_prefix = program.deparser.emit_prefix(
            program.env, model.deparse_field_budget
        )
        self.parser_path: list[str] = []
        self.table_path: list[tuple[str, int | None]] = []

    # ------------------------------------------------------------------
    # Entry point
    # ------------------------------------------------------------------
    def process(
        self,
        wire: bytes,
        ingress_port: int = 0,
        timestamp: int = 0,
    ) -> PipelineResult:
        """Run one packet (wire bytes) through the full pipeline."""
        metadata = standard_metadata_defaults()
        metadata["ingress_port"] = ingress_port
        metadata["packet_length"] = truncate(len(wire), 16)
        metadata["ingress_global_timestamp"] = truncate(timestamp, 48)
        for name in self.program.env.metadata:
            metadata.setdefault(name, 0)
        self.parser_path = []
        self.table_path = []

        packet, payload, accepted = self.run_parser(wire, metadata)
        if not accepted:
            return PipelineResult(Verdict.PARSER_REJECTED, None, metadata)
        packet.payload = payload

        ctx = EvalContext(packet, metadata)
        try:
            self.run_control(self.program.ingress, ctx)
            if not metadata["drop"]:
                self.run_control(self.program.egress, ctx)
        except ExitPipeline:
            pass

        if metadata["drop"]:
            return PipelineResult(Verdict.DROPPED, None, metadata)

        out = self.deparse(packet)
        metadata["egress_port"] = metadata["egress_spec"]
        return PipelineResult(Verdict.FORWARDED, out, metadata)

    # ------------------------------------------------------------------
    # Parser
    # ------------------------------------------------------------------
    def run_parser(
        self, wire: bytes, metadata: dict[str, int]
    ) -> tuple[Packet, bytes, bool]:
        """Run the parser FSM; returns (packet, payload, accepted)."""
        parser: Parser = self.program.parser
        path = self.parser_path
        packet = Packet()
        offset = 0
        state_name = parser.start
        steps = 0

        def reject(code: int) -> tuple[Packet, bytes, bool]:
            metadata["parser_error"] = code
            if self.model.honor_reject:
                path.append("!reject")
                return packet, wire[offset:], False
            # SDNet deviation: the reject state is not implemented; the
            # packet continues through the pipeline as if accepted.
            path.append("!reject_ignored")
            return packet, wire[offset:], True

        while True:
            if state_name == ACCEPT:
                return packet, wire[offset:], True
            if state_name == REJECT:
                return reject(PARSER_ERROR_REJECT)
            steps += 1
            if steps > MAX_PARSER_STEPS:
                return reject(PARSER_ERROR_DEPTH_EXCEEDED)
            state = parser.state(state_name)
            path.append(state_name)

            for header_name in state.extracts:
                spec = self.program.env.header(header_name)
                if len(wire) - offset < spec.byte_width:
                    return reject(PARSER_ERROR_HEADER_TOO_SHORT)
                header = Header.unpack(spec, wire[offset:])
                packet.append(header)
                offset += spec.byte_width

            ctx = EvalContext(packet, metadata)
            if state.verify is not None:
                cond, error_code = state.verify
                if not cond.eval(ctx, self.program.env):
                    path.append("!verify")
                    result = reject(error_code or PARSER_ERROR_VERIFY_FAILED)
                    if self.model.honor_reject:
                        return result
                    # Deviant target: fall through and keep parsing as if
                    # the verify had succeeded.

            transition = state.transition
            if not transition.is_select:
                state_name = transition.default
                continue
            keys = tuple(
                key.eval(ctx, self.program.env) for key in transition.keys
            )
            for case in transition.cases:
                if case.matches(keys):
                    state_name = case.next_state
                    break
            else:
                state_name = transition.default

    # ------------------------------------------------------------------
    # Controls
    # ------------------------------------------------------------------
    def run_control(self, control: Control, ctx: EvalContext) -> None:
        self.exec_stmt(control, control.body, ctx)

    def exec_stmt(
        self, control: Control, stmt: Stmt | None, ctx: EvalContext
    ) -> None:
        if stmt is None:
            return
        env = self.program.env
        if isinstance(stmt, Seq):
            for child in stmt.body:
                self.exec_stmt(control, child, ctx)
            return
        if isinstance(stmt, If):
            branch = stmt.then if stmt.cond.eval(ctx, env) else stmt.otherwise
            self.exec_stmt(control, branch, ctx)
            return
        if isinstance(stmt, ApplyTable):
            self.apply_table(control, stmt.table, ctx)
            return
        if isinstance(stmt, IfHit):
            hit = self.apply_table(control, stmt.table, ctx)
            self.exec_stmt(control, stmt.then if hit else stmt.otherwise, ctx)
            return
        if isinstance(stmt, Call):
            action = control.action(stmt.action)
            self.run_action(action, stmt.args, ctx)
            return
        raise P4RuntimeError(f"unknown statement type {type(stmt).__name__}")

    def apply_table(
        self, control: Control, table_name: str, ctx: EvalContext
    ) -> bool:
        table = control.table(table_name)
        result = table.lookup(
            ctx, self.program.env, quantize=self._quantize
        )
        self.table_path.append((table_name, result.index))
        self.run_action(
            table.action(result.action), result.action_data, ctx
        )
        return result.hit

    # ------------------------------------------------------------------
    # Actions and primitives
    # ------------------------------------------------------------------
    def run_action(
        self, action: Action, args: tuple[int, ...], ctx: EvalContext
    ) -> None:
        binding = action.bind(args)
        for primitive in action.body:
            self.run_primitive(primitive, binding, ctx)

    def run_primitive(
        self,
        primitive: Primitive,
        binding: dict[str, int],
        ctx: EvalContext,
    ) -> None:
        env = self.program.env
        packet, metadata = ctx.packet, ctx.metadata

        if isinstance(primitive, NoOp):
            return
        if isinstance(primitive, SetField):
            value = bind_expr(primitive.value, binding).eval(ctx, env)
            width = env.field_width(primitive.header, primitive.field)
            header = packet.get_or_none(primitive.header)
            if header is None or not header.valid:
                raise P4RuntimeError(
                    f"write to field of invalid header {primitive.header!r}"
                )
            header[primitive.field] = truncate(value, width)
            return
        if isinstance(primitive, SetMeta):
            value = bind_expr(primitive.value, binding).eval(ctx, env)
            width = env.metadata_width(primitive.name)
            metadata[primitive.name] = truncate(value, width)
            return
        if isinstance(primitive, AddHeader):
            spec = env.header(primitive.header)
            existing = packet.get_or_none(primitive.header)
            if existing is not None:
                existing.valid = True
            else:
                packet.push(Header(spec), after=primitive.after)
            return
        if isinstance(primitive, RemoveHeader):
            header = packet.get_or_none(primitive.header)
            if header is not None:
                header.valid = False
            return
        if isinstance(primitive, Drop):
            metadata["drop"] = 1
            return
        if isinstance(primitive, Forward):
            port = bind_expr(primitive.port, binding).eval(ctx, env)
            metadata["egress_spec"] = truncate(port, 9)
            metadata["drop"] = 0
            return
        if isinstance(primitive, CountPacket):
            index = bind_expr(primitive.index, binding).eval(ctx, env)
            cells = self.state.counters.get(primitive.name)
            if cells is None:
                raise P4RuntimeError(
                    f"undeclared counter {primitive.name!r}"
                )
            if not 0 <= index < len(cells):
                raise P4RuntimeError(
                    f"counter {primitive.name!r} index {index} out of "
                    f"range [0, {len(cells)})"
                )
            cells[index] += 1
            return
        if isinstance(primitive, RegisterWrite):
            index = bind_expr(primitive.index, binding).eval(ctx, env)
            value = bind_expr(primitive.value, binding).eval(ctx, env)
            cells = self.state.registers.get(primitive.name)
            if cells is None:
                raise P4RuntimeError(
                    f"undeclared register {primitive.name!r}"
                )
            if not 0 <= index < len(cells):
                raise P4RuntimeError(
                    f"register {primitive.name!r} index {index} out of "
                    f"range [0, {len(cells)})"
                )
            width = self.state.register_widths[primitive.name]
            cells[index] = truncate(value, width)
            return
        if isinstance(primitive, RegisterRead):
            index = bind_expr(primitive.index, binding).eval(ctx, env)
            cells = self.state.registers.get(primitive.name)
            if cells is None:
                raise P4RuntimeError(
                    f"undeclared register {primitive.name!r}"
                )
            if not 0 <= index < len(cells):
                raise P4RuntimeError(
                    f"register {primitive.name!r} index {index} out of "
                    f"range [0, {len(cells)})"
                )
            width = env.metadata_width(primitive.into)
            metadata[primitive.into] = truncate(cells[index], width)
            return
        if isinstance(primitive, HashField):
            values = tuple(
                bind_expr(expr, binding).eval(ctx, env)
                for expr in primitive.inputs
            )
            width = env.metadata_width(primitive.into)
            metadata[primitive.into] = truncate(
                stable_hash(values, primitive.modulo), width
            )
            return
        if isinstance(primitive, Exit):
            raise ExitPipeline()
        raise P4RuntimeError(
            f"unknown primitive {type(primitive).__name__}"
        )

    # ------------------------------------------------------------------
    # Deparser
    # ------------------------------------------------------------------
    def deparse(self, packet: Packet) -> Packet:
        """Re-serialize per the deparser's emit order.

        A model's deparse field budget restricts emission to the
        budgeted prefix (:meth:`repro.p4.deparser.Deparser.emit_prefix`).
        """
        emitted: list[Header] = []
        for name in self._emit_prefix:
            header = packet.get_or_none(name)
            if header is not None and header.valid:
                emitted.append(header)
        out = Packet(
            headers=[h.copy() for h in emitted],
            payload=packet.payload,
            metadata=dict(packet.metadata),
        )
        return out
