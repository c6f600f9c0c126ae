"""Closure-compiled program execution — the line-rate fast path.

The spec-faithful interpreter (:mod:`repro.p4.interpreter`) walks the
expression/statement trees for every packet, allocating a
:class:`~repro.p4.interpreter.Trace` and formatting event strings as it
goes. That is the right tool for defining semantics; it is the wrong
tool for driving line-rate experiments. This module compiles each
loaded program **once** into plain Python closures:

* expressions via :func:`repro.p4.expr.compile_expr` (widths and
  truncation masks resolved at compile time, action parameters become
  indexed tuple reads — no per-packet ``bind_expr`` tree rebuilding);
* header extraction as one big-endian integer read per header plus
  precomputed shift/mask pairs per field, operating on a
  ``memoryview`` of the wire so deep parse chains never recopy the
  tail;
* table application with precompiled key evaluators and per-action
  bodies, matching installed entries with exactly the interpreter's
  selection semantics (longest prefix first, then priority);
* **no tracing at all** — the null-trace fast path. Taps and checkers
  observe packets between stages (:mod:`repro.target.pipeline`), never
  through TraceEvents, so nothing is lost.

The same closures serve the reference oracle
(:mod:`repro.netdebug.oracle`) through :meth:`FastProgram.run`.
Equivalence with tree-walking interpretation is pinned by the
differential suite in ``tests/test_target_fastpath_differential.py``
and, for the oracle's predictions, ``tests/test_compiled_oracle.py``.
"""

from __future__ import annotations

from typing import Callable

from ..bitutils import mask, quantize_range, quantize_ternary_mask
from ..exceptions import P4RuntimeError, P4ValidationError, PacketError
from ..p4.actions import (
    Action,
    AddHeader,
    CountPacket,
    Drop,
    Exit,
    Forward,
    HashField,
    NoOp,
    Primitive,
    RegisterRead,
    RegisterWrite,
    RemoveHeader,
    SetField,
    SetMeta,
)
from ..p4.control import ApplyTable, Call, Control, If, IfHit, Seq, Stmt
from ..p4.expr import compile_expr
from ..p4.interpreter import (
    MAX_PARSER_STEPS,
    ExitPipeline,
    PipelineResult,
    RuntimeState,
    Trace,
    Verdict,
    stable_hash,
)
from ..p4.parser import ACCEPT, REJECT
from ..p4.program import P4Program
from ..p4.table import MatchKind, Table
from ..p4.types import (
    PARSER_ERROR_DEPTH_EXCEEDED,
    PARSER_ERROR_HEADER_TOO_SHORT,
    PARSER_ERROR_REJECT,
    PARSER_ERROR_VERIFY_FAILED,
    standard_metadata_defaults,
)
from ..packet.fields import HeaderSpec
from ..packet.packet import Header, Packet

__all__ = [
    "ExecState",
    "FastProgram",
    "compile_program",
    "control_stages",
]


#: No stuck tables or frozen counters: the fault-free view.
_NOTHING_STUCK: frozenset[str] = frozenset()


class ExecState:
    """Mutable per-packet execution state threaded through closures."""

    __slots__ = (
        "packet",
        "metadata",
        "counters",
        "registers",
        "stuck_tables",
        "frozen_counters",
    )

    def __init__(self, packet, metadata, counters, registers,
                 stuck_tables, frozen_counters):
        self.packet = packet
        self.metadata = metadata
        self.counters = counters
        self.registers = registers
        self.stuck_tables = stuck_tables
        self.frozen_counters = frozen_counters


def _fast_header(spec: HeaderSpec, values: dict[str, int]) -> Header:
    """Build a Header without re-validating extraction output."""
    header = Header.__new__(Header)
    object.__setattr__(header, "spec", spec)
    object.__setattr__(header, "valid", True)
    object.__setattr__(header, "_values", values)
    return header


def _field_layout(spec: HeaderSpec) -> tuple[tuple[str, int, int], ...]:
    """Per-field ``(name, shift, mask)`` within the whole-header word."""
    total = spec.bit_width
    return tuple(
        (f.name, total - spec.offset_of(f.name) - f.width, mask(f.width))
        for f in spec.fields
    )


# ----------------------------------------------------------------------
# Parser
# ----------------------------------------------------------------------
def _compile_parser(program: P4Program, honor_reject: bool):
    """Compile the parser FSM into ``parse(wire, metadata)``.

    Returns ``(packet, payload, accepted)`` with exactly the
    interpreter's semantics, including the deviant-target behaviour
    when ``honor_reject`` is False (reject/verify failures record
    ``parser_error`` but the packet continues as if accepted).
    """
    env = program.env
    states: dict[str, tuple] = {}
    for state in program.parser.states.values():
        extracts = tuple(
            (env.header(name), env.header(name).byte_width,
             _field_layout(env.header(name)))
            for name in state.extracts
        )
        if state.verify is not None:
            cond, code = state.verify
            verify = (
                compile_expr(cond, env),
                code or PARSER_ERROR_VERIFY_FAILED,
            )
        else:
            verify = None
        transition = state.transition
        if transition.is_select:
            key_fns = tuple(compile_expr(k, env) for k in transition.keys)
            cases = tuple(
                (tuple(case.patterns), case.next_state)
                for case in transition.cases
            )
            compiled_transition = (key_fns, cases, transition.default)
        else:
            compiled_transition = (None, None, transition.default)
        states[state.name] = (extracts, verify, compiled_transition)

    start = program.parser.start

    def parse(wire: bytes, metadata: dict) -> tuple[Packet, bytes, bool]:
        packet = Packet()
        headers = packet.headers
        append = headers.append
        seen: set[str] = set()
        view = memoryview(wire)
        size = len(wire)
        offset = 0
        state_name = start
        steps = 0
        while True:
            if state_name == ACCEPT:
                return packet, bytes(view[offset:]), True
            if state_name == REJECT:
                metadata["parser_error"] = PARSER_ERROR_REJECT
                return packet, bytes(view[offset:]), not honor_reject
            steps += 1
            if steps > MAX_PARSER_STEPS:
                metadata["parser_error"] = PARSER_ERROR_DEPTH_EXCEEDED
                return packet, bytes(view[offset:]), not honor_reject
            try:
                extracts, verify, (key_fns, cases, default) = states[state_name]
            except KeyError:
                raise P4ValidationError(
                    f"unknown parser state {state_name!r}"
                ) from None
            for spec, byte_width, layout in extracts:
                if size - offset < byte_width:
                    metadata["parser_error"] = PARSER_ERROR_HEADER_TOO_SHORT
                    return packet, bytes(view[offset:]), not honor_reject
                spec_name = spec.name
                if spec_name in seen:
                    # Same failure mode as Packet.append, minus the
                    # per-extract linear scan on the happy path.
                    raise PacketError(
                        f"duplicate header {spec_name!r}; header stacks of "
                        "the same type are not supported by this model"
                    )
                seen.add(spec_name)
                word = int.from_bytes(
                    view[offset:offset + byte_width], "big"
                )
                append(_fast_header(
                    spec,
                    {name: (word >> shift) & field_mask
                     for name, shift, field_mask in layout},
                ))
                offset += byte_width
            if verify is not None:
                cond_fn, code = verify
                if not cond_fn(packet, metadata, ()):
                    metadata["parser_error"] = code
                    if honor_reject:
                        return packet, bytes(view[offset:]), False
                    # Deviant target: keep parsing as if verify passed.
            if key_fns is None:
                state_name = default
                continue
            keys = tuple(fn(packet, metadata, ()) for fn in key_fns)
            for patterns, next_state in cases:
                for key, (value, key_mask) in zip(keys, patterns):
                    if (key & key_mask) != (value & key_mask):
                        break
                else:
                    state_name = next_state
                    break
            else:
                state_name = default

    return parse


# ----------------------------------------------------------------------
# Actions and primitives
# ----------------------------------------------------------------------
def _compile_primitive(
    program: P4Program, primitive: Primitive, params: tuple[str, ...]
) -> Callable[[ExecState, tuple], None] | None:
    env = program.env

    if isinstance(primitive, NoOp):
        return None

    if isinstance(primitive, SetField):
        header_name, field_name = primitive.header, primitive.field
        value_fn = compile_expr(primitive.value, env, params)
        width_mask = mask(env.field_width(header_name, field_name))

        def set_field(state, args):
            packet = state.packet
            for header in packet.headers:
                if header.name == header_name:
                    if header.valid:
                        header._values[field_name] = (
                            value_fn(packet, state.metadata, args)
                            & width_mask
                        )
                        return
                    break
            raise P4RuntimeError(
                f"write to field of invalid header {header_name!r}"
            )

        return set_field

    if isinstance(primitive, SetMeta):
        name = primitive.name
        value_fn = compile_expr(primitive.value, env, params)
        width_mask = mask(env.metadata_width(name))

        def set_meta(state, args):
            metadata = state.metadata
            metadata[name] = value_fn(state.packet, metadata, args) & width_mask

        return set_meta

    if isinstance(primitive, AddHeader):
        spec = env.header(primitive.header)
        header_name, after = primitive.header, primitive.after

        def add_header(state, args):
            packet = state.packet
            existing = packet.get_or_none(header_name)
            if existing is not None:
                object.__setattr__(existing, "valid", True)
            else:
                packet.push(Header(spec), after=after)

        return add_header

    if isinstance(primitive, RemoveHeader):
        header_name = primitive.header

        def remove_header(state, args):
            header = state.packet.get_or_none(header_name)
            if header is not None:
                object.__setattr__(header, "valid", False)

        return remove_header

    if isinstance(primitive, Drop):
        def drop(state, args):
            state.metadata["drop"] = 1

        return drop

    if isinstance(primitive, Forward):
        port_fn = compile_expr(primitive.port, env, params)

        def forward(state, args):
            metadata = state.metadata
            metadata["egress_spec"] = (
                port_fn(state.packet, metadata, args) & 0x1FF
            )
            metadata["drop"] = 0

        return forward

    if isinstance(primitive, CountPacket):
        name = primitive.name
        index_fn = compile_expr(primitive.index, env, params)

        def count(state, args):
            if name in state.frozen_counters:
                return
            cells = state.counters.get(name)
            if cells is None:
                raise P4RuntimeError(f"undeclared counter {name!r}")
            index = index_fn(state.packet, state.metadata, args)
            if not 0 <= index < len(cells):
                raise P4RuntimeError(
                    f"counter {name!r} index {index} out of range "
                    f"[0, {len(cells)})"
                )
            cells[index] += 1

        return count

    if isinstance(primitive, RegisterWrite):
        name = primitive.name
        index_fn = compile_expr(primitive.index, env, params)
        value_fn = compile_expr(primitive.value, env, params)
        decl = program.registers.get(name)
        width_mask = mask(decl.width) if decl is not None else 0

        def register_write(state, args):
            cells = state.registers.get(name)
            if cells is None:
                raise P4RuntimeError(f"undeclared register {name!r}")
            packet, metadata = state.packet, state.metadata
            index = index_fn(packet, metadata, args)
            if not 0 <= index < len(cells):
                raise P4RuntimeError(
                    f"register {name!r} index {index} out of range "
                    f"[0, {len(cells)})"
                )
            cells[index] = value_fn(packet, metadata, args) & width_mask

        return register_write

    if isinstance(primitive, RegisterRead):
        name = primitive.name
        into = primitive.into
        index_fn = compile_expr(primitive.index, env, params)
        width_mask = mask(env.metadata_width(into))

        def register_read(state, args):
            cells = state.registers.get(name)
            if cells is None:
                raise P4RuntimeError(f"undeclared register {name!r}")
            metadata = state.metadata
            index = index_fn(state.packet, metadata, args)
            if not 0 <= index < len(cells):
                raise P4RuntimeError(
                    f"register {name!r} index {index} out of range "
                    f"[0, {len(cells)})"
                )
            metadata[into] = cells[index] & width_mask

        return register_read

    if isinstance(primitive, HashField):
        into = primitive.into
        modulo = primitive.modulo
        input_fns = tuple(
            compile_expr(expr, env, params) for expr in primitive.inputs
        )
        width_mask = mask(env.metadata_width(into))

        def hash_field(state, args):
            packet, metadata = state.packet, state.metadata
            values = tuple(fn(packet, metadata, args) for fn in input_fns)
            metadata[into] = stable_hash(values, modulo) & width_mask

        return hash_field

    if isinstance(primitive, Exit):
        def do_exit(state, args):
            raise ExitPipeline()

        return do_exit

    raise P4RuntimeError(f"unknown primitive {type(primitive).__name__}")


def _compile_action(program: P4Program, action: Action):
    """Compile an action body into ``run(state, args)``."""
    params = tuple(action.param_names)
    body = [
        fn
        for fn in (
            _compile_primitive(program, primitive, params)
            for primitive in action.body
        )
        if fn is not None
    ]
    if not body:
        return lambda state, args: None
    if len(body) == 1:
        return body[0]

    def run(state, args):
        for fn in body:
            fn(state, args)

    return run


# ----------------------------------------------------------------------
# Tables and control flow
# ----------------------------------------------------------------------
def _compile_table_apply(
    program: P4Program, table: Table, quantize_tcam: bool = False
):
    """Compile ``table.apply()`` into ``apply(state) -> hit``.

    Entries are read live from the shared :class:`Table`, so control
    plane updates are visible immediately; only the key evaluators,
    widths and action bodies are frozen at compile time.
    ``quantize_tcam`` selects the deviant TCAM semantics: ternary masks
    and range bounds are quantized to power-of-two boundaries at match
    time (entries change dynamically, so quantization cannot be frozen
    per entry here) — mirroring ``Table.lookup(..., quantize=True)``.
    """
    env = program.env
    key_fns = tuple(compile_expr(key.expr, env) for key in table.keys)
    kinds = tuple(key.kind for key in table.keys)
    widths = tuple(key.expr.width(env) for key in table.keys)
    key_count = len(key_fns)
    action_fns = {
        name: _compile_action(program, action)
        for name, action in table.actions.items()
    }
    table_name = table.name
    EXACT, LPM = MatchKind.EXACT, MatchKind.LPM
    TERNARY, RANGE = MatchKind.TERNARY, MatchKind.RANGE

    def apply(state) -> bool:
        packet, metadata = state.packet, state.metadata
        best = None
        if table_name not in state.stuck_tables:
            values = [fn(packet, metadata, ()) for fn in key_fns]
            best_rank = (-1, -1)
            for entry in table.entries:
                patterns = entry.patterns
                prefix_total = 0
                matched = True
                for i in range(key_count):
                    kind = kinds[i]
                    pattern = patterns[i]
                    value = values[i]
                    if kind is EXACT:
                        if value != pattern.value:
                            matched = False
                            break
                    elif kind is LPM:
                        prefix_len = pattern.prefix_len
                        if prefix_len is None:
                            raise P4RuntimeError(
                                "LPM pattern missing prefix_len"
                            )
                        if prefix_len:
                            shift = widths[i] - prefix_len
                            if (value >> shift) != (pattern.value >> shift):
                                matched = False
                                break
                        prefix_total += prefix_len
                    elif kind is TERNARY:
                        key_mask = pattern.mask
                        if key_mask is None:
                            raise P4RuntimeError("ternary pattern missing mask")
                        if quantize_tcam:
                            key_mask = quantize_ternary_mask(
                                key_mask, widths[i]
                            )
                        if (value & key_mask) != (pattern.value & key_mask):
                            matched = False
                            break
                    elif kind is RANGE:
                        high = pattern.high
                        if high is None:
                            raise P4RuntimeError(
                                "range pattern missing high bound"
                            )
                        low = pattern.value
                        if quantize_tcam:
                            low, high = quantize_range(low, high, widths[i])
                        if not low <= value <= high:
                            matched = False
                            break
                if not matched:
                    continue
                rank = (prefix_total, entry.priority)
                if best is None or rank > best_rank:
                    best = entry
                    best_rank = rank
        if best is None:
            action_fns[table.default_action](
                state, table.default_action_data
            )
            return False
        action_fns[best.action](state, best.action_data)
        return True

    return apply


def _compile_stmt(
    program: P4Program,
    control: Control,
    stmt: Stmt | None,
    quantize_tcam: bool = False,
):
    """Compile one statement tree into ``run(state)``."""
    if stmt is None:
        return None

    if isinstance(stmt, Seq):
        body = [
            fn
            for fn in (
                _compile_stmt(program, control, child, quantize_tcam)
                for child in stmt.body
            )
            if fn is not None
        ]
        if not body:
            return None
        if len(body) == 1:
            return body[0]

        def run_seq(state):
            for fn in body:
                fn(state)

        return run_seq

    if isinstance(stmt, If):
        cond_fn = compile_expr(stmt.cond, program.env)
        then_fn = _compile_stmt(program, control, stmt.then, quantize_tcam)
        else_fn = _compile_stmt(
            program, control, stmt.otherwise, quantize_tcam
        )

        def run_if(state):
            branch = then_fn if cond_fn(state.packet, state.metadata, ()) \
                else else_fn
            if branch is not None:
                branch(state)

        return run_if

    if isinstance(stmt, ApplyTable):
        apply_fn = _compile_table_apply(
            program, control.table(stmt.table), quantize_tcam
        )

        def run_apply(state):
            apply_fn(state)

        return run_apply

    if isinstance(stmt, IfHit):
        apply_fn = _compile_table_apply(
            program, control.table(stmt.table), quantize_tcam
        )
        then_fn = _compile_stmt(program, control, stmt.then, quantize_tcam)
        else_fn = _compile_stmt(
            program, control, stmt.otherwise, quantize_tcam
        )

        def run_if_hit(state):
            branch = then_fn if apply_fn(state) else else_fn
            if branch is not None:
                branch(state)

        return run_if_hit

    if isinstance(stmt, Call):
        action = control.action(stmt.action)
        action.bind(stmt.args)  # arity check once, at compile time
        action_fn = _compile_action(program, action)
        args = tuple(stmt.args)

        def run_call(state):
            action_fn(state, args)

        return run_call

    raise P4RuntimeError(f"unknown statement type {type(stmt).__name__}")


def control_stages(control: Control) -> list[Stmt]:
    """The control body's top-level statements — one pipeline stage each.

    Shared by the closure compiler and the batch kernel so their stage
    lists can never drift out of index alignment.
    """
    body = control.body
    if isinstance(body, Seq):
        return list(body.body)
    return [body] if body is not None else []


def _compile_deparser(program: P4Program, field_budget: int | None = None):
    # A deviant field budget restricts emission to the budgeted prefix;
    # Deparser.emit_prefix is the single definition of that semantics.
    emit_order = program.deparser.emit_prefix(program.env, field_budget)
    new_packet = Packet.__new__

    def deparse(packet: Packet) -> Packet:
        emitted = []
        for name in emit_order:
            for header in packet.headers:
                if header.name == name:
                    if header.valid:
                        # Values were validated on the way in; copy the
                        # dict without re-checking every field width.
                        emitted.append(
                            _fast_header(header.spec, dict(header._values))
                        )
                    break
        # Emit order is unique by construction (Deparser.add enforces
        # it), so skip the duplicate scan in Packet.__post_init__.
        out = new_packet(Packet)
        out.headers = emitted
        out.payload = packet.payload
        out.metadata = dict(packet.metadata)
        return out

    return deparse


class FastProgram:
    """A program compiled to closures, ready for per-packet execution.

    ``honor_reject`` / ``quantize_tcam`` / ``deparse_field_budget``
    select the target's datapath semantics, including its silent
    deviations; the defaults are the spec-faithful reference semantics.

    The staged pipeline (:mod:`repro.target.pipeline`) and the batch
    kernel drive the compiled stages themselves; :meth:`run` is the
    whole-packet driver the reference oracle predicts with.
    """

    __slots__ = (
        "program",
        "honor_reject",
        "quantize_tcam",
        "deparse_field_budget",
        "parse",
        "ingress_stages",
        "egress_stages",
        "deparse",
        "_metadata_template",
    )

    def __init__(
        self,
        program: P4Program,
        honor_reject: bool,
        quantize_tcam: bool = False,
        deparse_field_budget: int | None = None,
    ):
        self.program = program
        self.honor_reject = honor_reject
        self.quantize_tcam = quantize_tcam
        self.deparse_field_budget = deparse_field_budget
        self.parse = _compile_parser(program, honor_reject)
        self.ingress_stages = [
            _compile_stmt(program, program.ingress, stmt, quantize_tcam)
            for stmt in control_stages(program.ingress)
        ]
        self.egress_stages = [
            _compile_stmt(program, program.egress, stmt, quantize_tcam)
            for stmt in control_stages(program.egress)
        ]
        self.deparse = _compile_deparser(program, deparse_field_budget)
        template = standard_metadata_defaults()
        for name in program.env.metadata:
            template.setdefault(name, 0)
        self._metadata_template = template

    def run(
        self,
        wire: bytes,
        ingress_port: int = 0,
        timestamp: int = 0,
        state: RuntimeState | None = None,
    ) -> PipelineResult:
        """Run one packet through the whole program, untraced.

        Mirrors :meth:`repro.p4.interpreter.Interpreter.process`: parse,
        ingress, skip egress when ingress left the drop flag set, drop or
        deparse; ``exit`` skips every remaining statement. Counters and
        registers live in ``state`` (a fresh one when omitted). The
        result's trace is empty.
        """
        if state is None:
            state = RuntimeState.for_program(self.program)
        metadata = dict(self._metadata_template)
        metadata["ingress_port"] = ingress_port
        metadata["packet_length"] = len(wire) & 0xFFFF
        metadata["ingress_global_timestamp"] = timestamp & 0xFFFFFFFFFFFF
        packet, payload, accepted = self.parse(wire, metadata)
        if not accepted:
            return PipelineResult(
                Verdict.PARSER_REJECTED, None, metadata, Trace()
            )
        packet.payload = payload
        exec_state = ExecState(
            packet, metadata, state.counters, state.registers,
            _NOTHING_STUCK, _NOTHING_STUCK,
        )
        try:
            for stage in self.ingress_stages:
                if stage is not None:
                    stage(exec_state)
            if not metadata["drop"]:
                for stage in self.egress_stages:
                    if stage is not None:
                        stage(exec_state)
        except ExitPipeline:
            pass
        if metadata["drop"]:
            return PipelineResult(Verdict.DROPPED, None, metadata, Trace())
        out = self.deparse(packet)
        metadata["egress_port"] = metadata["egress_spec"]
        return PipelineResult(Verdict.FORWARDED, out, metadata, Trace())


def compile_program(
    program: P4Program,
    honor_reject: bool = True,
    quantize_tcam: bool = False,
    deparse_field_budget: int | None = None,
) -> FastProgram:
    """Compile ``program`` once for closure-based execution."""
    return FastProgram(
        program, honor_reject, quantize_tcam, deparse_field_budget
    )
