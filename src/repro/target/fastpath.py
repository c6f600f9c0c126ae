"""Lower a loaded program once into generated source, for line-rate
execution.

The spec-faithful interpreter (:mod:`repro.p4.interpreter`) walks the
expression/statement trees for every packet, dispatching on node types
and recording the path it took as it goes. That is the right tool for
defining semantics; it is the wrong
tool for driving line-rate experiments. :func:`generate_kernel` lowers a
program **once** into one Python module — generated source, ``exec``'d
with a single ``compile()`` per artifact — which the batch kernel's
constructor (:class:`repro.target.batch.BatchProgram`) calls. The
module holds:

* **the parser** (``parse``) — one big-endian integer read per
  extracted header, constant shift/mask pairs per field, select cases as
  chained comparisons on locals;
* **one function per action** a table can invoke — the primitive bodies
  inlined, widths and masks as constants, parameters read from the
  entry's action data;
* **one function per control stage** — the statement tree inlined (an
  ``If`` is a Python ``if``, a ``Seq`` and a direct ``Call`` are inlined
  bodies) inside the per-lane loop that carries the block bookkeeping
  (exit, per-lane error capture, drop origin). A table apply evaluates
  its keys and matches installed entries with exactly the interpreter's
  selection semantics (longest prefix first, then priority); an
  all-``EXACT`` table looks its key up in a dict built once per stage
  call instead (highest priority wins, first installed wins ties);
* **the deparser** (``deparse``) — the (budgeted) emit order with one
  lookup per header;
* **no path record** — the kernel returns results only. Taps and
  checkers observe packets between stages (:mod:`repro.target.pipeline`),
  so nothing is lost.

Every expression — select keys, verify conditions, branch conditions,
table keys and primitive operands — goes through the one expression
lowering, :class:`repro.p4.expr.Lowering`, which ``compile_expr`` also
uses. The lowering also records what the batch kernel's schedule needs:
the metadata fields the code reads and the stages that touch each
register. A :class:`~repro.target.limits.DeviationModel` selects the
target's datapath semantics, including its silent deviations.
Equivalence with tree-walking interpretation is pinned by
``tests/test_target_fastpath_differential.py``,
``tests/test_generated_programs.py`` and, for the oracle's predictions,
``tests/test_compiled_oracle.py``.
"""

from __future__ import annotations

import zlib
from typing import Callable, NamedTuple

from ..bitutils import mask, quantize_range, quantize_ternary_mask
from ..exceptions import P4RuntimeError, P4ValidationError, PacketError
from ..p4.actions import (
    AddHeader,
    CountPacket,
    Drop,
    Exit,
    Forward,
    HashField,
    NoOp,
    RegisterRead,
    RegisterWrite,
    RemoveHeader,
    SetField,
    SetMeta,
)
from ..p4.control import ApplyTable, Call, Control, If, IfHit, Seq, Stmt
from ..p4.expr import LOWERING_GLOBALS, Lowering
from ..p4.interpreter import MAX_PARSER_STEPS, ExitPipeline
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
from .limits import DeviationModel

__all__ = ["GeneratedKernel", "control_stages", "generate_kernel"]

#: Signature of every generated stage function: the block's parallel
#: lane arrays, then the run's stateful objects and fault sets.
STAGE_PARAMS = (
    "packets, metas, live, exited, errors, drop_stage, "
    "counters, registers, stuck, frozen"
)
#: Signature of every generated action function.
ACTION_PARAMS = "packet, metadata, args, counters, registers, frozen"


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


def _exact_index(table: Table) -> dict:
    """An all-EXACT table's installed entries by key value (a tuple for
    several keys): the highest priority wins and the first installed
    wins ties, the scan's ``rank > best_rank`` selection. Read from the
    live entry list, so control-plane updates between blocks stay
    visible."""
    single = len(table.keys) == 1
    index: dict = {}
    for entry in table.entries:
        patterns = entry.patterns
        key = (
            patterns[0].value if single
            else tuple(pattern.value for pattern in patterns)
        )
        prev = index.get(key)
        if prev is None or entry.priority > prev.priority:
            index[key] = entry
    return index


def _out_of_range(kind: str, name: str, index: int, size: int):
    return P4RuntimeError(
        f"{kind} {name!r} index {index} out of range [0, {size})"
    )


def _tuple(items) -> str:
    """Source for a tuple of the given element sources (any length)."""
    return "(" + "".join(f"{item}, " for item in items) + ")"


def _is_empty(stmt: Stmt | None) -> bool:
    """True for a statement that lowers to nothing at all."""
    if stmt is None:
        return True
    return isinstance(stmt, Seq) and all(map(_is_empty, stmt.body))


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


class _KernelSource:
    """Builds the artifact's one generated module.

    Each function is generated into its own line buffer (the lowering
    writes wherever ``self.lower.lines`` points) and appended to
    ``module`` when complete, so a table apply met while generating a
    stage can generate its action functions on the side.
    """

    def __init__(self, program: P4Program, quantize_tcam: bool):
        self.env = program.env
        self.registers = program.registers
        self.quantize = quantize_tcam
        self.module: list[str] = []
        self.lower = Lowering(program.env)
        self.namespace: dict = dict(
            LOWERING_GLOBALS,
            _Packet=Packet,
            _new=Packet.__new__,
            _Header=Header,
            _fast_header=_fast_header,
            _setattr=object.__setattr__,
            _PacketError=PacketError,
            _P4ValidationError=P4ValidationError,
            _ExitPipeline=ExitPipeline,
            _crc32=zlib.crc32,
            _exact_index=_exact_index,
            _out_of_range=_out_of_range,
            _qmask=quantize_ternary_mask,
            _qrange=quantize_range,
        )
        self._constants: dict[int, str] = {}
        # id -> (name, registers touched), for code generated once and
        # reached from any number of stages.
        self._actions: dict[int, tuple[str, set]] = {}
        self._action_maps: dict[int, tuple[str, set]] = {}
        self._stages = 0
        #: Registers the code being generated touches.
        self.touched: set[str] = set()
        #: Register name -> the stage functions that touch it.
        self.register_stages: dict[str, set[str]] = {}

    # -- plumbing --------------------------------------------------------
    def emit(self, line: str) -> None:
        self.lower.lines.append(line)

    def constant(self, obj) -> str:
        """A module global bound to ``obj`` (one per object)."""
        name = self._constants.get(id(obj))
        if name is None:
            name = self._constants[id(obj)] = f"_k{len(self._constants)}"
            self.namespace[name] = obj
        return name

    def function(self, header: str, body) -> None:
        """Generate ``header`` plus ``body()``'s lines as one module
        function (``pass`` if the body emitted nothing)."""
        saved = self.lower.lines
        lines = self.lower.lines = [header]
        body()
        if len(lines) == 1:
            lines.append("    pass")
        self.lower.lines = saved
        self.module += lines

    def shared(self, cache: dict, obj, generate) -> str:
        """The module global ``generate()`` defines for ``obj``, generated
        once; the registers its code touches are charged to every stage
        that reaches it, not only to the first."""
        hit = cache.get(id(obj))
        if hit is None:
            outer, self.touched = self.touched, set()
            hit = cache[id(obj)] = (generate(), self.touched)
            self.touched = outer
        self.touched |= hit[1]
        return hit[0]

    def local(self, source: str, pad: str) -> str:
        """A local name holding ``source``'s value (itself if it is one)."""
        if source.isidentifier():
            return source
        var = self.lower.temp()
        self.emit(f"{pad}{var} = {source}")
        return var

    def block(self, emit_body, pad: str) -> None:
        """``emit_body()`` as an indented block, ``pass`` if empty."""
        mark = len(self.lower.lines)
        emit_body()
        if len(self.lower.lines) == mark:
            self.emit(f"{pad}pass")

    def text(self) -> str:
        return "\n".join(self.module) + "\n"

    # -- parser and deparser ---------------------------------------------
    def parser(self, program: P4Program, honor_reject: bool) -> None:
        """``parse(wire, metadata) -> (packet, payload, accepted)`` with
        exactly the interpreter's semantics, including the deviant
        behaviour when the model does not honor ``reject`` (reject/verify
        failures record ``parser_error`` but the packet continues as if
        accepted)."""
        env = program.env
        states = list(program.parser.states.values())
        index_of = {state.name: k for k, state in enumerate(states)}
        cont = repr(not honor_reject)  # verdict for rejected/errored parses
        track_duplicates = not _parser_acyclic_unique_extracts(program)
        emit = self.emit

        def goto(target: str, pad: str) -> None:
            if target == ACCEPT:
                emit(f"{pad}return packet, wire[offset:], True")
            elif target == REJECT:
                emit(f"{pad}metadata['parser_error'] = "
                     f"{PARSER_ERROR_REJECT!r}")
                emit(f"{pad}return packet, wire[offset:], {cont}")
            elif target in index_of:
                emit(f"{pad}state = {index_of[target]}")
                emit(f"{pad}continue")
            else:
                message = f"unknown parser state {target!r}"
                emit(f"{pad}raise _P4ValidationError({message!r})")

        def body() -> None:
            emit("    packet = _Packet()")
            emit("    headers = packet.headers")
            if track_duplicates:
                emit("    seen = set()")
            emit("    size = len(wire)")
            emit("    offset = 0")
            emit("    steps = 0")
            start = program.parser.start
            if start in index_of:
                emit(f"    state = {index_of[start]}")
            else:
                # Starting in accept/reject or an unknown state ends the
                # parse before the first step (the loop is unreachable).
                goto(start, "    ")
            emit("    while True:")
            emit("        steps += 1")
            emit(f"        if steps > {MAX_PARSER_STEPS}:")
            emit(f"            metadata['parser_error'] = "
                 f"{PARSER_ERROR_DEPTH_EXCEEDED!r}")
            emit(f"            return packet, wire[offset:], {cont}")
            pad = "            "
            for k, state in enumerate(states):
                emit(f"        {'if' if k == 0 else 'elif'} state == {k}:")
                local_headers: dict[str, str] = {}
                for name in state.extracts:
                    spec = env.header(name)
                    byte_width = spec.byte_width
                    var = f"v_{k}_{len(local_headers)}"
                    fields = ", ".join(
                        f"{fname!r}: (w >> {shift}) & {field_mask}"
                        if shift
                        else f"{fname!r}: w & {field_mask}"
                        for fname, shift, field_mask in _field_layout(spec)
                    )
                    emit(f"{pad}if size - offset < {byte_width}:")
                    emit(f"{pad}    metadata['parser_error'] = "
                         f"{PARSER_ERROR_HEADER_TOO_SHORT!r}")
                    emit(f"{pad}    return packet, wire[offset:], {cont}")
                    if track_duplicates:
                        dup = f"packet already has header {name!r}"
                        emit(f"{pad}if {name!r} in seen:")
                        emit(f"{pad}    raise _PacketError({dup!r})")
                        emit(f"{pad}seen.add({name!r})")
                    emit(f"{pad}w = int.from_bytes("
                         f"wire[offset:offset + {byte_width}], 'big')")
                    emit(f"{pad}{var} = {{{fields}}}")
                    emit(f"{pad}headers.append(_fast_header("
                         f"{self.constant(spec)}, {var}))")
                    emit(f"{pad}offset += {byte_width}")
                    local_headers[name] = var
                if state.verify is not None:
                    cond, code = state.verify
                    code = code or PARSER_ERROR_VERIFY_FAILED
                    source = self.lower.expr(cond, pad, None, local_headers)
                    emit(f"{pad}if not {source}:")
                    emit(f"{pad}    metadata['parser_error'] = {code!r}")
                    # A deviant target keeps parsing as if verify passed.
                    if honor_reject:
                        emit(f"{pad}    return packet, wire[offset:], False")
                transition = state.transition
                if transition.is_select:
                    key_vars = []
                    for j, key_expr in enumerate(transition.keys):
                        source = self.lower.expr(
                            key_expr, pad, None, local_headers
                        )
                        emit(f"{pad}k_{j} = {source}")
                        key_vars.append(f"k_{j}")
                    for case in transition.cases:
                        terms = []
                        for var, (value, key_mask) in zip(
                            key_vars, case.patterns
                        ):
                            if key_mask == -1:
                                terms.append(f"{var} == {value}")
                            else:
                                terms.append(
                                    f"({var} & {key_mask}) == "
                                    f"{value & key_mask}"
                                )
                        emit(f"{pad}if {' and '.join(terms) or 'True'}:")
                        goto(case.next_state, pad + "    ")
                goto(transition.default, pad)

        self.function("def parse(wire, metadata):", body)

    def deparser(self, program: P4Program, field_budget: int | None) -> None:
        """``deparse(packet) -> Packet`` specialized to the emit order:
        the headers are indexed once and the budgeted prefix (a deviant
        field budget restricts emission to it; ``Deparser.emit_prefix``
        is the one definition of that semantics) is emitted with direct
        attribute reads."""
        emit_order = program.deparser.emit_prefix(program.env, field_budget)

        def body() -> None:
            emit = self.emit
            emit("    by_name = {}")
            emit("    for header in packet.headers:")
            emit("        name = header.spec.name")
            emit("        if name not in by_name:")
            emit("            by_name[name] = header")
            emit("    emitted = []")
            emit("    append = emitted.append")
            emit("    get = by_name.get")
            # The emitted headers are NOT copied: the output packet
            # shares its Header objects with the parsed input packet.
            # Only taps and faults at the deparser/output stages see
            # both, and the fault hook writes each shared header once
            # (see repro.target.batch). Sharing skips a dict copy plus a
            # Header allocation per emitted header.
            for name in emit_order:
                emit(f"    header = get({name!r})")
                emit("    if header is not None and header.valid:")
                emit("        append(header)")
            emit("    out = _new(_Packet)")
            emit("    out.headers = emitted")
            emit("    out.payload = packet.payload")
            emit("    out.metadata = dict(packet.metadata)")
            emit("    return out")

        self.function("def deparse(packet):", body)

    # -- controls --------------------------------------------------------
    def control(self, control: Control) -> list[str | None]:
        """One stage function per top-level statement, index-aligned
        with the pipeline's stage names; ``None`` for an empty one."""
        names: list[str | None] = []
        for index, stmt in enumerate(control_stages(control)):
            if _is_empty(stmt):
                names.append(None)
                continue
            name = f"stage_{self._stages}"
            self._stages += 1
            self.stage(control, stmt, name, f"{control.name}.{index}")
            names.append(name)
        return names

    def stage(self, control, stmt, name: str, stage_name: str) -> None:
        """The stage's per-lane loop around its inlined statement: lanes
        that exited or raised are skipped, ``ExitPipeline`` marks the
        lane exited (drop tracking still runs for that stage), any other
        exception parks the lane, and the drop-origin tracker records
        the stage that set a still-set drop flag (a later statement may
        clear it again). Per-call set-up (EXACT indexes, stuck flags)
        runs once before the loop."""
        prologue: dict[str, str] = {}
        self.touched = set()

        def body() -> None:
            lower = self.lower
            saved, lower.lines = lower.lines, []
            self.stmt(control, stmt, " " * 12, prologue)
            inner, lower.lines = lower.lines, saved
            lower.lines += [
                *(f"    {var} = {value}" for var, value in prologue.items()),
                "    for i in live:",
                "        if exited[i] or errors[i] is not None:",
                "            continue",
                "        packet = packets[i]",
                "        metadata = metas[i]",
                "        try:",
                *(inner or ["            pass"]),
                "        except _ExitPipeline:",
                "            exited[i] = True",
                "        except Exception as exc:",
                "            errors[i] = exc",
                "            continue",
                "        if metadata['drop']:",
                "            if drop_stage[i] is None:",
                f"                drop_stage[i] = {stage_name!r}",
                "        else:",
                "            drop_stage[i] = None",
            ]

        self.function(f"def {name}({STAGE_PARAMS}):", body)
        for register in self.touched:
            self.register_stages.setdefault(register, set()).add(name)

    def stmt(self, control, stmt, pad: str, prologue) -> None:
        if stmt is None:
            return
        inner = pad + "    "
        if isinstance(stmt, Seq):
            for child in stmt.body:
                self.stmt(control, child, pad, prologue)
        elif isinstance(stmt, If):
            cond = self.lower.expr(stmt.cond, pad)
            self.emit(f"{pad}if {cond}:")
            self.block(
                lambda: self.stmt(control, stmt.then, inner, prologue), inner
            )
            if not _is_empty(stmt.otherwise):
                self.emit(f"{pad}else:")
                self.block(lambda: self.stmt(
                    control, stmt.otherwise, inner, prologue
                ), inner)
        elif isinstance(stmt, ApplyTable):
            self.apply(control.table(stmt.table), pad, prologue)
        elif isinstance(stmt, IfHit):
            best = self.apply(control.table(stmt.table), pad, prologue)
            self.emit(f"{pad}if {best} is not None:")
            self.block(
                lambda: self.stmt(control, stmt.then, inner, prologue), inner
            )
            if not _is_empty(stmt.otherwise):
                self.emit(f"{pad}else:")
                self.block(lambda: self.stmt(
                    control, stmt.otherwise, inner, prologue
                ), inner)
        elif isinstance(stmt, Call):
            action = control.action(stmt.action)
            action.bind(stmt.args)  # arity check once, at compile time
            self.body(action, pad, {
                name: repr(value)
                for name, value in zip(action.param_names, stmt.args)
            })
        else:
            raise P4RuntimeError(
                f"unknown statement type {type(stmt).__name__}"
            )

    # -- tables ----------------------------------------------------------
    def apply(self, table: Table, pad: str, prologue) -> str:
        """``table.apply()`` at ``pad``; returns the local naming the
        winning entry (``None`` on a miss)."""
        lower, emit = self.lower, self.emit
        inner = pad + "    "
        best = lower.temp()
        exact = all(key.kind is MatchKind.EXACT for key in table.keys)
        tbl = self.constant(table)
        stuck = f"{table.name!r} in stuck"
        if exact:
            # Built once per stage call, not per packet.
            index = f"_x{tbl}"
            prologue[index] = f"None if {stuck} else _exact_index({tbl})"
            emit(f"{pad}if {index} is None:")
            emit(f"{inner}{best} = None")
            emit(f"{pad}else:")
        else:
            index = f"_s{tbl}"
            prologue[index] = stuck
            emit(f"{pad}{best} = None")
            emit(f"{pad}if not {index}:")
        keys = [
            self.local(lower.expr(key.expr, inner), inner)
            for key in table.keys
        ]
        if exact:
            key = keys[0] if len(keys) == 1 else _tuple(keys)
            emit(f"{inner}{best} = {index}.get({key})")
        else:
            self.scan(table, tbl, keys, best, inner)
        actions = self.action_map(table)
        emit(f"{pad}if {best} is None:")
        emit(f"{inner}{actions}[{tbl}.default_action](packet, metadata, "
             f"{tbl}.default_action_data, counters, registers, frozen)")
        emit(f"{pad}else:")
        emit(f"{inner}{actions}[{best}.action](packet, metadata, "
             f"{best}.action_data, counters, registers, frozen)")
        return best

    def scan(self, table: Table, tbl: str, keys, best: str, pad: str) -> None:
        """Match every installed entry, read live: the best rank wins,
        rank being (total LPM prefix length, priority) — longest prefix
        first, then priority, the first installed winning ties.
        A quantizing model quantizes ternary masks and range bounds at
        match time, mirroring ``Table.lookup(..., quantize=True)``."""
        env, emit = self.env, self.emit
        inner, body = pad + "    ", pad + "        "
        prefixes = []
        emit(f"{pad}_br = (-1, -1)")
        emit(f"{pad}for _e in {tbl}.entries:")
        emit(f"{inner}_p = _e.patterns")
        for i, (key, var) in enumerate(zip(table.keys, keys)):
            width = key.expr.width(env)
            emit(f"{inner}_q = _p[{i}]")
            kind = key.kind
            if kind is MatchKind.EXACT:
                emit(f"{inner}if {var} != _q.value:")
            elif kind is MatchKind.LPM:
                length = f"_l{i}"
                prefixes.append(length)
                missing = "LPM pattern missing prefix_len"
                shift = f"({width} - {length})"
                emit(f"{inner}{length} = _q.prefix_len")
                emit(f"{inner}if {length} is None:")
                emit(f"{body}raise _P4RuntimeError({missing!r})")
                emit(f"{inner}if {length} and ({var} >> {shift}) != "
                     f"(_q.value >> {shift}):")
            elif kind is MatchKind.TERNARY:
                missing = "ternary pattern missing mask"
                emit(f"{inner}_m = _q.mask")
                emit(f"{inner}if _m is None:")
                emit(f"{body}raise _P4RuntimeError({missing!r})")
                if self.quantize:
                    emit(f"{inner}_m = _qmask(_m, {width})")
                emit(f"{inner}if ({var} & _m) != (_q.value & _m):")
            else:
                missing = "range pattern missing high bound"
                emit(f"{inner}_hi = _q.high")
                emit(f"{inner}if _hi is None:")
                emit(f"{body}raise _P4RuntimeError({missing!r})")
                emit(f"{inner}_lo = _q.value")
                if self.quantize:
                    emit(f"{inner}_lo, _hi = _qrange(_lo, _hi, {width})")
                emit(f"{inner}if not _lo <= {var} <= _hi:")
            emit(f"{body}continue")
        emit(f"{inner}_r = ({' + '.join(prefixes) or '0'}, _e.priority)")
        emit(f"{inner}if _r > _br:")
        emit(f"{body}{best} = _e")
        emit(f"{body}_br = _r")

    def action_map(self, table: Table) -> str:
        """A module global mapping the table's action names to their
        generated functions."""
        def generate() -> str:
            name = f"_actions{len(self._action_maps)}"
            functions = {
                action_name: self.action(action)
                for action_name, action in table.actions.items()
            }
            self.module.append(f"{name} = {{" + ", ".join(
                f"{key!r}: {fn}" for key, fn in functions.items()
            ) + "}")
            return name

        return self.shared(self._action_maps, table, generate)

    # -- actions and primitives ------------------------------------------
    def action(self, action) -> str:
        """The action's generated function, called with the entry's
        action data as ``args``."""
        def generate() -> str:
            name = f"action_{len(self._actions)}"
            params = {
                param: f"args[{i}]"
                for i, param in enumerate(action.param_names)
            }
            self.function(
                f"def {name}({ACTION_PARAMS}):",
                lambda: self.body(action, "    ", params),
            )
            return name

        return self.shared(self._actions, action, generate)

    def body(self, action, pad: str, params: dict[str, str]) -> None:
        for primitive in action.body:
            self.primitive(primitive, pad, params)

    def primitive(self, primitive, pad: str, params) -> None:
        env, lower, emit = self.env, self.lower, self.emit
        inner = pad + "    "

        def value(expr) -> str:
            return lower.expr(expr, pad, params)

        def index(expr, kind: str, name: str, pad: str = pad) -> str:
            var = self.local(lower.expr(expr, pad, params), pad)
            emit(f"{pad}if not 0 <= {var} < len(_c):")
            emit(f"{pad}    raise _out_of_range({kind!r}, {name!r}, "
                 f"{var}, len(_c))")
            return var

        def cells(kind: str, name: str, source: str, pad: str = pad):
            undeclared = f"undeclared {kind} {name!r}"
            emit(f"{pad}_c = {source}.get({name!r})")
            emit(f"{pad}if _c is None:")
            emit(f"{pad}    raise _P4RuntimeError({undeclared!r})")

        if isinstance(primitive, NoOp):
            return
        if isinstance(primitive, SetField):
            # The value is evaluated before the header is checked: the
            # right-hand side first, as in P4 and the interpreter.
            source = self.local(value(primitive.value), pad)
            header = lower.temp()
            invalid = f"write to field of invalid header {primitive.header!r}"
            lower.find_header(pad, header, primitive.header)
            emit(f"{pad}if not {header}.valid:")
            emit(f"{inner}raise _P4RuntimeError({invalid!r})")
            width_mask = mask(env.field_width(primitive.header,
                                              primitive.field))
            emit(f"{pad}{header}._values[{primitive.field!r}] = "
                 f"{source} & {width_mask}")
        elif isinstance(primitive, SetMeta):
            source = value(primitive.value)
            width_mask = mask(env.metadata_width(primitive.name))
            emit(f"{pad}metadata[{primitive.name!r}] = "
                 f"{source} & {width_mask}")
        elif isinstance(primitive, AddHeader):
            spec = self.constant(env.header(primitive.header))
            emit(f"{pad}for _h in packet.headers:")
            emit(f"{inner}if _h.spec.name == {primitive.header!r}:")
            emit(f"{inner}    _setattr(_h, 'valid', True)")
            emit(f"{inner}    break")
            emit(f"{pad}else:")
            emit(f"{inner}packet.push(_Header({spec}), "
                 f"after={primitive.after!r})")
        elif isinstance(primitive, RemoveHeader):
            emit(f"{pad}for _h in packet.headers:")
            emit(f"{inner}if _h.spec.name == {primitive.header!r}:")
            emit(f"{inner}    _setattr(_h, 'valid', False)")
            emit(f"{inner}    break")
        elif isinstance(primitive, Drop):
            emit(f"{pad}metadata['drop'] = 1")
        elif isinstance(primitive, Forward):
            emit(f"{pad}metadata['egress_spec'] = "
                 f"{value(primitive.port)} & 511")
            emit(f"{pad}metadata['drop'] = 0")
        elif isinstance(primitive, CountPacket):
            emit(f"{pad}if {primitive.name!r} not in frozen:")
            cells("counter", primitive.name, "counters", inner)
            slot = index(primitive.index, "counter", primitive.name, inner)
            emit(f"{inner}_c[{slot}] += 1")
        elif isinstance(primitive, RegisterWrite):
            self.touched.add(primitive.name)
            cells("register", primitive.name, "registers")
            slot = index(primitive.index, "register", primitive.name)
            source = value(primitive.value)
            decl = self.registers.get(primitive.name)
            width_mask = mask(decl.width) if decl is not None else 0
            emit(f"{pad}_c[{slot}] = {source} & {width_mask}")
        elif isinstance(primitive, RegisterRead):
            self.touched.add(primitive.name)
            cells("register", primitive.name, "registers")
            slot = index(primitive.index, "register", primitive.name)
            width_mask = mask(env.metadata_width(primitive.into))
            emit(f"{pad}metadata[{primitive.into!r}] = "
                 f"_c[{slot}] & {width_mask}")
        elif isinstance(primitive, HashField):
            # ``stable_hash`` inlined: each input in its minimal
            # big-endian byte length (one byte for zero).
            inputs = [self.local(value(e), pad) for e in primitive.inputs]
            blobs = [
                f"{var}.to_bytes(({var}.bit_length() + 7) // 8 or 1, 'big')"
                for var in inputs
            ]
            width_mask = mask(env.metadata_width(primitive.into))
            emit(f"{pad}metadata[{primitive.into!r}] = (_crc32(b''.join("
                 f"{_tuple(blobs)})) % {primitive.modulo!r}) & {width_mask}")
        elif isinstance(primitive, Exit):
            emit(f"{pad}raise _ExitPipeline()")
        else:
            raise P4RuntimeError(
                f"unknown primitive {type(primitive).__name__}"
            )


class GeneratedKernel(NamedTuple):
    """A program lowered by :func:`generate_kernel`."""

    #: The generated module's text.
    source: str
    parse: Callable
    deparse: Callable
    #: Per control, the stage functions index-aligned with
    #: :func:`control_stages` (``None`` for an empty statement).
    ingress: list
    egress: list
    #: Every metadata field the generated code reads.
    metadata_reads: frozenset
    #: Register name -> the stage functions (``stage_0``, … across
    #: both controls) whose code touches it, through any action the
    #: stage can reach.
    register_stages: dict


def generate_kernel(
    program: P4Program, model: DeviationModel
) -> GeneratedKernel:
    """Lower ``program`` into one generated module, compiled once, with
    ``model``'s datapath semantics.

    An expression, slice or statement the lowering cannot handle raises
    its typed error here, at compile time.
    """
    source = _KernelSource(program, model.quantize_tcam)
    source.parser(program, model.honor_reject)
    source.deparser(program, model.deparse_field_budget)
    ingress = source.control(program.ingress)
    egress = source.control(program.egress)
    text = source.text()
    namespace = source.namespace
    exec(compile(text, f"<kernel {program.name}>", "exec"), namespace)
    return GeneratedKernel(
        text,
        namespace["parse"],
        namespace["deparse"],
        [namespace[name] if name else None for name in ingress],
        [namespace[name] if name else None for name in egress],
        frozenset(source.lower.metadata_reads),
        {name: frozenset(stages)
         for name, stages in source.register_stages.items()},
    )


def control_stages(control: Control) -> list[Stmt]:
    """The control body's top-level statements — one pipeline stage each.

    Shared by the batch kernel's stage generator and the pipeline's
    stage names, so their stage lists never drift out of index
    alignment.
    """
    body = control.body
    if isinstance(body, Seq):
        return list(body.body)
    return [body] if body is not None else []
