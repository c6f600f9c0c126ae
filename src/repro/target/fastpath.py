"""Compile a loaded program once, for line-rate execution.

The spec-faithful interpreter (:mod:`repro.p4.interpreter`) walks the
expression/statement trees for every packet, allocating a
:class:`~repro.p4.interpreter.Trace` and formatting event strings as it
goes. That is the right tool for defining semantics; it is the wrong
tool for driving line-rate experiments. This module holds the code
generators that lower a program **once**, which the batch kernel's
constructor (:class:`repro.target.batch.BatchProgram`) calls:

* **one parser** (:func:`_generate_parser`) — generated Python source
  per program: one big-endian integer read per extracted header,
  constant shift/mask pairs per field, select cases as chained
  comparisons on locals;
* **one closure per control stage** (:func:`_compile_stmt`) —
  expressions via :func:`repro.p4.expr.compile_expr` (widths and
  truncation masks resolved at compile time, action parameters become
  indexed tuple reads) and table application with precompiled key
  evaluators, matching installed entries with exactly the
  interpreter's selection semantics (longest prefix first, then
  priority);
* **one deparser** (:func:`_generate_deparser`) — generated source that
  emits the (budgeted) emit order with one lookup per header;
* **no tracing at all** — the null-trace fast path. Taps and checkers
  observe packets between stages (:mod:`repro.target.pipeline`), never
  through TraceEvents, so nothing is lost.

``honor_reject`` / ``quantize_tcam`` / ``deparse_field_budget`` select
the target's datapath semantics, including its silent deviations.
Equivalence with tree-walking interpretation is pinned by
``tests/test_target_fastpath_differential.py`` and, for the oracle's
predictions, ``tests/test_compiled_oracle.py``.
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
from ..p4.expr import BinOp, Const, FieldRef, Slice, UnOp, compile_expr
from ..p4.interpreter import MAX_PARSER_STEPS, ExitPipeline, stable_hash
from ..p4.parser import ACCEPT, REJECT
from ..p4.program import P4Program
from ..p4.table import MatchKind, Table
from ..p4.types import (
    PARSER_ERROR_DEPTH_EXCEEDED,
    PARSER_ERROR_HEADER_TOO_SHORT,
    PARSER_ERROR_REJECT,
    PARSER_ERROR_VERIFY_FAILED,
)
from ..packet.fields import HeaderSpec
from ..packet.packet import Header, Packet

__all__ = [
    "ExecState",
    "control_stages",
]


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
# Parser and deparser
# ----------------------------------------------------------------------
# Both are generated as straight-line Python source per program and
# ``exec``d once at compile time: extraction as dict literals with
# constant shifts/masks, select cases as chained comparisons on local
# variables, emission as one lookup per emitted header name. Select
# keys and verify conditions the source generator does not cover run as
# ``compile_expr`` closures from inside the generated code.

def _expr_source(expr, env, local_headers: dict[str, str]) -> str | None:
    """Python source for ``expr``, mirroring ``compile_expr`` bit for
    bit, or ``None`` when the node (or a referenced header that is not
    a just-extracted local) needs a ``compile_expr`` closure. Never
    raises: compile-time errors come from ``compile_expr``."""
    if isinstance(expr, Const):
        return repr(expr.value)
    if isinstance(expr, FieldRef):
        var = local_headers.get(expr.header)
        spec = env.headers.get(expr.header)
        if var is None or spec is None or not spec.has_field(expr.field):
            return None
        return f"{var}[{expr.field!r}]"
    if isinstance(expr, BinOp):
        left = _expr_source(expr.left, env, local_headers)
        right = _expr_source(expr.right, env, local_headers)
        if left is None or right is None:
            return None
        op = expr.op
        if op == "and":
            return f"((1 if {right} else 0) if {left} else 0)"
        if op == "or":
            return f"(1 if {left} else (1 if {right} else 0))"
        if op in ("==", "!=", "<", "<=", ">", ">="):
            return f"(1 if {left} {op} {right} else 0)"
        if op in ("&", "|", "^", ">>"):
            return f"({left} {op} {right})"
        if op in ("+", "-", "*", "<<"):
            try:
                result_mask = mask(expr.width(env))
            except Exception:
                return None
            return f"(({left} {op} {right}) & {result_mask})"
        return None
    if isinstance(expr, UnOp):
        operand = _expr_source(expr.operand, env, local_headers)
        if operand is None:
            return None
        if expr.op == "!":
            return f"(0 if {operand} else 1)"
        try:
            operand_mask = mask(expr.operand.width(env))
        except Exception:
            return None
        if expr.op == "~":
            return f"({operand} ^ {operand_mask})"
        if expr.op == "-":
            return f"((-{operand}) & {operand_mask})"
        return None
    if isinstance(expr, Slice):
        operand = _expr_source(expr.operand, env, local_headers)
        if operand is None:
            return None
        try:
            width = expr.operand.width(env)
        except Exception:
            return None
        if not 0 <= expr.low <= expr.high < width:
            return None  # compile_expr raises the typed error
        return (
            f"(({operand} >> {expr.low}) & "
            f"{mask(expr.high - expr.low + 1)})"
        )
    return None


def _parser_acyclic_unique_extracts(program) -> bool:
    """True when no parse can ever extract the same header twice.

    The generated parser's duplicate bookkeeping (a ``seen`` set with a
    membership probe and an insert per extracted header) implements the
    model's header-stack rejection. When the parser FSM is
    acyclic **and** every header name appears in at most one state's
    extract list (at most once), a duplicate extract is structurally
    impossible — no state can run twice and no two states extract the
    same name — so the bookkeeping is dead work on every packet and
    the generator elides it.
    """
    states = program.parser.states
    extracted: set[str] = set()
    for state in states.values():
        for name in state.extracts:
            if name in extracted:
                return False
            extracted.add(name)

    def successors(state):
        transition = state.transition
        if transition.is_select:
            for case in transition.cases:
                yield case.next_state
        yield transition.default

    # Iterative 3-colour DFS over real states (accept/reject/unknown
    # targets are terminal); any grey→grey edge is a cycle.
    WHITE, GREY, BLACK = 0, 1, 2
    colour = {name: WHITE for name in states}
    for root in states:
        if colour[root] != WHITE:
            continue
        stack = [(root, iter(successors(states[root])))]
        colour[root] = GREY
        while stack:
            name, edges = stack[-1]
            advanced = False
            for target in edges:
                if target not in states:
                    continue
                if colour[target] == GREY:
                    return False
                if colour[target] == WHITE:
                    colour[target] = GREY
                    stack.append(
                        (target, iter(successors(states[target])))
                    )
                    advanced = True
                    break
            if not advanced:
                colour[name] = BLACK
                stack.pop()
    return True


def _generate_parser(program: P4Program, honor_reject: bool):
    """Generate ``parse(wire, metadata)`` as specialized source.

    Returns ``(packet, payload, accepted)`` with exactly the
    interpreter's semantics, including the deviant-target behaviour
    when ``honor_reject`` is False (reject/verify failures record
    ``parser_error`` but the packet continues as if accepted). An
    expression the model cannot compile raises its typed error here,
    at compile time.
    """
    env = program.env
    states = list(program.parser.states.values())
    index_of = {state.name: k for k, state in enumerate(states)}
    cont = repr(not honor_reject)  # verdict for rejected/errored parses
    track_duplicates = not _parser_acyclic_unique_extracts(program)

    namespace: dict = {
        "_Packet": Packet,
        "_fast_header": _fast_header,
        "_PacketError": PacketError,
        "_P4ValidationError": P4ValidationError,
    }
    def goto(target: str, indent: str) -> list[str]:
        if target == ACCEPT:
            return [f"{indent}return packet, wire[offset:], True"]
        if target == REJECT:
            return [
                f"{indent}metadata['parser_error'] = "
                f"{PARSER_ERROR_REJECT!r}",
                f"{indent}return packet, wire[offset:], {cont}",
            ]
        if target in index_of:
            return [
                f"{indent}state = {index_of[target]}",
                f"{indent}continue",
            ]
        message = f"unknown parser state {target!r}"
        return [f"{indent}raise _P4ValidationError({message!r})"]

    lines = [
        "def parse(wire, metadata):",
        "    packet = _Packet()",
        "    headers = packet.headers",
    ]
    if track_duplicates:
        lines.append("    seen = set()")
    lines += [
        "    size = len(wire)",
        "    offset = 0",
        "    steps = 0",
    ]
    start = program.parser.start
    if start in index_of:
        lines.append(f"    state = {index_of[start]}")
    else:
        # Starting in accept/reject or an unknown state ends the parse
        # before the first step (the loop below is then unreachable).
        lines += goto(start, "    ")
    lines += [
        "    while True:",
        "        steps += 1",
        f"        if steps > {MAX_PARSER_STEPS}:",
        f"            metadata['parser_error'] = "
        f"{PARSER_ERROR_DEPTH_EXCEEDED!r}",
        f"            return packet, wire[offset:], {cont}",
    ]

    for k, state in enumerate(states):
        branch = "if" if k == 0 else "elif"
        lines.append(f"        {branch} state == {k}:")
        body: list[str] = []
        pad = "            "
        local_headers: dict[str, str] = {}
        for name in state.extracts:
            spec = env.header(name)
            byte_width = spec.byte_width
            var = f"v_{k}_{len(local_headers)}"
            spec_var = f"_spec_{name}"
            namespace[spec_var] = spec
            fields = ", ".join(
                f"{fname!r}: (w >> {shift}) & {field_mask}"
                if shift
                else f"{fname!r}: w & {field_mask}"
                for fname, shift, field_mask in _field_layout(spec)
            )
            dup = (
                f"duplicate header {name!r}; header stacks of the "
                "same type are not supported by this model"
            )
            body += [
                f"{pad}if size - offset < {byte_width}:",
                f"{pad}    metadata['parser_error'] = "
                f"{PARSER_ERROR_HEADER_TOO_SHORT!r}",
                f"{pad}    return packet, wire[offset:], {cont}",
            ]
            if track_duplicates:
                body += [
                    f"{pad}if {name!r} in seen:",
                    f"{pad}    raise _PacketError({dup!r})",
                    f"{pad}seen.add({name!r})",
                ]
            body += [
                f"{pad}w = int.from_bytes("
                f"wire[offset:offset + {byte_width}], 'big')",
                f"{pad}{var} = {{{fields}}}",
                f"{pad}headers.append(_fast_header({spec_var}, {var}))",
                f"{pad}offset += {byte_width}",
            ]
            local_headers[name] = var
        if state.verify is not None:
            cond, code = state.verify
            code = code or PARSER_ERROR_VERIFY_FAILED
            source = _expr_source(cond, env, local_headers)
            if source is None:
                verify_var = f"_verify_{k}"
                namespace[verify_var] = compile_expr(cond, env)
                source = f"{verify_var}(packet, metadata, ())"
            body.append(f"{pad}if not {source}:")
            body.append(
                f"{pad}    metadata['parser_error'] = {code!r}"
            )
            if honor_reject:
                body.append(
                    f"{pad}    return packet, wire[offset:], False"
                )
            # Deviant target: keep parsing as if verify passed.
        transition = state.transition
        if transition.is_select:
            key_vars = []
            for j, key_expr in enumerate(transition.keys):
                source = _expr_source(key_expr, env, local_headers)
                if source is None:
                    key_var = f"_key_{k}_{j}"
                    namespace[key_var] = compile_expr(key_expr, env)
                    source = f"{key_var}(packet, metadata, ())"
                var = f"k_{j}"
                body.append(f"{pad}{var} = {source}")
                key_vars.append(var)
            for case in transition.cases:
                terms = []
                for var, (value, key_mask) in zip(key_vars, case.patterns):
                    if key_mask == -1:
                        terms.append(f"{var} == {value}")
                    else:
                        terms.append(
                            f"({var} & {key_mask}) == {value & key_mask}"
                        )
                cond_src = " and ".join(terms) if terms else "True"
                body.append(f"{pad}if {cond_src}:")
                body += goto(case.next_state, pad + "    ")
            body += goto(transition.default, pad)
        else:
            body += goto(transition.default, pad)
        lines += body

    exec(compile("\n".join(lines) + "\n", "<parser>", "exec"), namespace)
    return namespace["parse"]


def _generate_deparser(program: P4Program, field_budget: int | None):
    """Generate ``deparse(packet) -> Packet`` specialized to the emit
    order: the headers are indexed once and the budgeted prefix (a
    deviant field budget restricts emission to it;
    ``Deparser.emit_prefix`` is the one definition of that semantics) is
    emitted with direct attribute reads."""
    emit_order = program.deparser.emit_prefix(program.env, field_budget)
    namespace: dict = {"_Packet": Packet, "_new": Packet.__new__}
    lines = [
        "def deparse(packet):",
        "    by_name = {}",
        "    for header in packet.headers:",
        "        name = header.spec.name",
        "        if name not in by_name:",
        "            by_name[name] = header",
        "    emitted = []",
        "    append = emitted.append",
        "    get = by_name.get",
    ]
    # The emitted headers are NOT copied: the output packet shares its
    # Header objects with the parsed input packet. Only taps and faults
    # at the deparser/output stages see both, and the fault hook writes
    # each shared header once (see repro.target.batch). Sharing skips a
    # dict copy plus a Header allocation per emitted header.
    for name in emit_order:
        lines += [
            f"    header = get({name!r})",
            "    if header is not None and header.valid:",
            "        append(header)",
        ]
    lines += [
        "    out = _new(_Packet)",
        "    out.headers = emitted",
        "    out.payload = packet.payload",
        "    out.metadata = dict(packet.metadata)",
        "    return out",
    ]
    exec(compile("\n".join(lines) + "\n", "<deparser>", "exec"), namespace)
    return namespace["deparse"]


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

    def run_action(state, args):
        for fn in body:
            fn(state, args)

    return run_action


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

    Shared by the batch kernel's stage compiler and the pipeline's
    stage names, so their stage lists never drift out of index
    alignment.
    """
    body = control.body
    if isinstance(body, Seq):
        return list(body.body)
    return [body] if body is not None else []

