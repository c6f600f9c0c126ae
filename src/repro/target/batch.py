"""Batch-compiled vectorized execution — the block fast path.

The per-packet closures (:mod:`repro.target.fastpath`) already avoid
tree walking, but they still pay the full staged-pipeline machinery once per
packet: stage-tuple unpacking, barrier checks, tap and fault probes,
trace allocation, traversal bookkeeping. For a campaign shard of ~800
packets that is ~10k Python-level iterations whose control flow is
identical for every packet.

This module compiles each program **once more**, into a **batch
kernel** that processes a struct-of-arrays packet block:

* per-packet control state lives in parallel arrays (``exited``,
  ``errors``, ``drop_stage``, word costs, timestamps) instead of being
  rediscovered inside a per-packet stage loop;
* the parser partitions the block once into accepted / rejected /
  raised lanes — the per-stage loops only ever visit live lanes;
* an all-``EXACT`` table apply is specialized into a dict-get over a
  key column: entries are snapshotted into a hash map once per block
  (highest priority wins, first installed wins ties — exactly the
  closures' ``rank > best_rank`` selection) and each packet
  costs one dict lookup instead of a scan over the entry list;
* verdicts, egress, latency and deparse are emitted column-wise with
  the cycle model evaluated *analytically* per death class rather than
  accumulated stage by stage.

The kernel reuses the closures' compiled parser, stage and
deparse closures, so expression semantics cannot drift; everything the
staged pipeline does *between* closures (drop barriers, exit handling,
cycle accounting, traversal and death attribution) is reimplemented
here block-wise and pinned byte-for-byte against the per-packet
pipeline by ``tests/test_target_batch_differential.py``.

Execution modes
---------------

``run_block`` picks between two schedules:

* **stage-major (columnar)** — every live packet runs stage ``k``
  before any packet runs stage ``k+1``. Valid only when packets cannot
  couple: the program must be register-free (counter increments
  commute; register read/write order does not) and the block must not
  need mid-block clock feedback — either every packet's timestamp is
  supplied up front, or the program provably never reads
  ``ingress_global_timestamp`` (checked by walking the IR for
  ``MetaRef`` nodes), in which case timestamps are backfilled from the
  running clock after the block completes.
* **packet-major (sequential)** — a degenerate block of one packet at
  a time, with the device clock advanced between packets. Used for
  register-coupled or timestamp-coupled untimed blocks; same code
  path, so identical semantics, just no cross-packet amortization.

Faults and taps are *not* modelled here: the device only routes blocks
through the kernel when no taps are attached and the fault injector is
idle, falling back to the per-packet pipeline otherwise.

Error semantics: the per-packet pipeline *raises* out of ``process`` on
runtime errors (invalid-header access on a deviant target, unknown
parser state, …) and the differential harnesses catch per packet. The
kernel therefore captures each packet's exception in its lane — the
packet commits exactly the mutations made before the raise and is
excluded from later stages, which is what a caller catching-and-
continuing per packet would observe.
"""

from __future__ import annotations

import dataclasses

from ..bitutils import mask
from ..exceptions import P4ValidationError, PacketError
from ..p4.control import ApplyTable
from ..p4.expr import (
    BinOp,
    Const,
    FieldRef,
    MetaRef,
    Slice,
    UnOp,
    compile_expr,
)
from ..p4.interpreter import (
    ExitPipeline,
    MAX_PARSER_STEPS,
    PipelineResult,
    Trace,
    Verdict,
)
from ..p4.parser import ACCEPT, REJECT
from ..p4.table import MatchKind
from ..p4.types import (
    PARSER_ERROR_DEPTH_EXCEEDED,
    PARSER_ERROR_HEADER_TOO_SHORT,
    PARSER_ERROR_REJECT,
    PARSER_ERROR_VERIFY_FAILED,
    standard_metadata_defaults,
)
from ..packet.packet import Packet
from .compiler import CompiledProgram
from .fastpath import (
    ExecState,
    _compile_action,
    _fast_header,
    _field_layout,
    control_stages,
)
from .limits import ArchLimits
from .pipeline import TargetRun

__all__ = ["BatchProgram", "build_batch_program", "get_batch_program"]

_EMPTY_SET: frozenset = frozenset()

#: Cycle cost of one match-action stage (mirrors StagedPipeline).
_STMT_CYCLES = 12

_TS_MASK = 0xFFFFFFFFFFFF


def _reads_metadata(root, name: str) -> bool:
    """Walk the IR for a ``MetaRef(name)`` read, generically.

    Every IR node is a dataclass; containers are dicts/tuples/lists.
    Anything else (ints, strings, enums, callables) is a leaf.
    """
    seen: set[int] = set()
    stack = [root]
    while stack:
        node = stack.pop()
        if isinstance(node, MetaRef):
            if node.name == name:
                return True
            continue
        if dataclasses.is_dataclass(node) and not isinstance(node, type):
            if id(node) in seen:
                continue
            seen.add(id(node))
            for f in dataclasses.fields(node):
                stack.append(getattr(node, f.name))
        elif isinstance(node, dict):
            stack.extend(node.keys())
            stack.extend(node.values())
        elif isinstance(node, (list, tuple, set, frozenset)):
            stack.extend(node)
    return False


# ----------------------------------------------------------------------
# Source-specialized parser and deparser
# ----------------------------------------------------------------------
# The closure parser is already interpretation-free, but it still pays
# a per-packet *interpretive* walk over the state table: tuple
# unpacking per state, a loop over the extract list, a dict
# comprehension per header and a closure call per select key. The
# batch compiler goes one step further and generates straight-line
# Python source per program — extraction as dict literals with
# constant shifts/masks, select cases as chained comparisons on local
# variables — and ``exec``s it once. Semantics are pinned against the
# closure parser by the differential suite; any construct the
# generator does not handle falls back to the closure parser wholesale.

def _expr_source(expr, env, local_headers: dict[str, str]) -> str | None:
    """Python source for ``expr``, mirroring ``compile_expr`` bit for
    bit, or ``None`` when the node (or a referenced header that is not
    a just-extracted local) needs the closure fallback."""
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
            return None  # compile_expr raises; let the fallback do it
        return (
            f"(({operand} >> {expr.low}) & "
            f"{mask(expr.high - expr.low + 1)})"
        )
    return None


def _parser_acyclic_unique_extracts(program) -> bool:
    """True when no parse can ever extract the same header twice.

    The generated parser's duplicate bookkeeping (a ``seen`` set with a
    membership probe and an insert per extracted header) mirrors the
    closure parser's header-stack rejection. When the parser FSM is
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


def _compile_block_parser(program, honor_reject: bool):
    """Generate ``parse(wire, metadata)`` as specialized source.

    Returns ``None`` when any parser construct resists generation —
    the caller then uses the closure parser, which handles everything.
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
        f"    state = {index_of[program.parser.start]}",
        "    while True:",
        "        steps += 1",
        f"        if steps > {MAX_PARSER_STEPS}:",
        f"            metadata['parser_error'] = "
        f"{PARSER_ERROR_DEPTH_EXCEEDED!r}",
        f"            return packet, wire[offset:], {cont}",
    ]

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
        # Mirrors the closure parser's unknown-state failure.
        message = f"unknown parser state {target!r}"
        return [f"{indent}raise _P4ValidationError({message!r})"]

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
                try:
                    namespace[verify_var] = compile_expr(cond, env)
                except Exception:
                    return None
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
                    try:
                        namespace[key_var] = compile_expr(key_expr, env)
                    except Exception:
                        return None
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

    source_text = "\n".join(lines) + "\n"
    try:
        exec(compile(source_text, "<batch-parser>", "exec"), namespace)
    except SyntaxError:  # pragma: no cover - generator bug guard
        return None
    return namespace["parse"]


def _compile_block_deparser(program, fast_deparse, field_budget):
    """Generate a single-pass deparser specialized to the emit order.

    The closure deparser scans ``packet.headers`` once per emitted
    name (quadratic in header count, with a property access per
    probe); the generated form indexes the headers once and emits the
    budgeted prefix with direct attribute reads.
    """
    emit_order = program.deparser.emit_prefix(program.env, field_budget)
    namespace: dict = {
        "_Packet": Packet,
        "_fast_header": _fast_header,
        "_new": Packet.__new__,
    }
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
    # Unlike the closure deparser, the emitted headers are NOT copied:
    # the kernel's input packets are never observable after deparse (the
    # lane's PipelineResult carries only the output packet), so sharing
    # the header objects is invisible — and skips a dict copy plus a
    # Header allocation per emitted header.
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
    try:
        exec(compile("\n".join(lines) + "\n", "<batch-deparser>", "exec"),
             namespace)
    except SyntaxError:  # pragma: no cover - generator bug guard
        return fast_deparse
    return namespace["deparse"]


# ----------------------------------------------------------------------
# Block-wise stage compilation
# ----------------------------------------------------------------------
def _generic_stage(stage_name: str, fast_fn):
    """Wrap one compiled closure stage for block execution.

    Replicates the staged pipeline's per-stage bookkeeping: ExitPipeline
    marks the lane exited (drop tracking still runs for that stage, as
    in the pipeline), any other exception parks the lane, and the
    drop-origin tracker mirrors ``drop_stage`` exactly.
    """

    def run(states, live, exited, errors, drop_stage, stuck):
        for i in live:
            if exited[i] or errors[i] is not None:
                continue
            state = states[i]
            try:
                fast_fn(state)
            except ExitPipeline:
                exited[i] = True
            except Exception as exc:  # captured per lane, see module doc
                errors[i] = exc
                continue
            if state.metadata["drop"]:
                if drop_stage[i] is None:
                    drop_stage[i] = stage_name
            else:
                drop_stage[i] = None

    return run


def _exact_table_stage(program, table, stage_name: str):
    """Specialize an all-EXACT ``table.apply()`` into a dict-get column.

    Entries are snapshotted into ``{key-column value: entry}`` once per
    block; a later entry replaces an earlier one only on strictly
    higher priority, reproducing the per-packet closures'
    ``rank > best_rank`` selection (rank is ``(0, priority)`` for
    EXACT-only tables, so first-installed wins ties). Control-plane
    updates between blocks stay visible because the snapshot reads the
    live entry list.
    """
    env = program.env
    key_fns = tuple(compile_expr(key.expr, env) for key in table.keys)
    action_fns = {
        name: _compile_action(program, action)
        for name, action in table.actions.items()
    }
    table_name = table.name
    single = len(key_fns) == 1
    first_key = key_fns[0] if single else None

    def run(states, live, exited, errors, drop_stage, stuck):
        stuck_miss = table_name in stuck
        lookup: dict = {}
        if not stuck_miss:
            for entry in table.entries:
                patterns = entry.patterns
                key = (
                    patterns[0].value
                    if single
                    else tuple(p.value for p in patterns)
                )
                prev = lookup.get(key)
                if prev is None or entry.priority > prev.priority:
                    lookup[key] = entry
        get = lookup.get
        default_fn = action_fns[table.default_action]
        default_data = table.default_action_data
        for i in live:
            if exited[i] or errors[i] is not None:
                continue
            state = states[i]
            packet, metadata = state.packet, state.metadata
            try:
                if stuck_miss:
                    entry = None
                else:
                    key = (
                        first_key(packet, metadata, ())
                        if single
                        else tuple(
                            fn(packet, metadata, ()) for fn in key_fns
                        )
                    )
                    entry = get(key)
                if entry is None:
                    default_fn(state, default_data)
                else:
                    action_fns[entry.action](state, entry.action_data)
            except ExitPipeline:
                exited[i] = True
            except Exception as exc:
                errors[i] = exc
                continue
            if metadata["drop"]:
                if drop_stage[i] is None:
                    drop_stage[i] = stage_name
            else:
                drop_stage[i] = None

    return run


def _compile_control_block(program, control, fast_stages):
    """Block-wise stage functions for one control, index-aligned with
    the staged pipeline's stage list (``None`` entries are elided: an
    empty stage cannot change the drop flag, so skipping it preserves
    the drop-origin invariant)."""
    fns = []
    for index, stmt in enumerate(control_stages(control)):
        name = f"{control.name}.{index}"
        if (
            isinstance(stmt, ApplyTable)
            and all(
                key.kind is MatchKind.EXACT
                for key in control.table(stmt.table).keys
            )
        ):
            # EXACT matching is unaffected by TCAM quantization, so the
            # specialization is valid on every target.
            fns.append(
                _exact_table_stage(
                    program, control.table(stmt.table), name
                )
            )
        elif fast_stages[index] is not None:
            fns.append(_generic_stage(name, fast_stages[index]))
    return fns


class BatchProgram:
    """A program compiled for block execution on one target."""

    __slots__ = (
        "program",
        "fast",
        "parse",
        "deparse",
        "bus_bytes",
        "columnar",
        "timestamp_free",
        "_template",
        "_ingress_fns",
        "_egress_fns",
        "n_ingress",
        "n_egress",
        "_stmt_cycles_total",
        "_names_forwarded",
        "_names_egress_barrier",
        "_names_deparse_barrier",
        "_names_rejected",
        "_null_trace",
        "_last_before_egress",
        "_last_before_deparse",
    )

    def __init__(self, compiled: CompiledProgram, limits: ArchLimits):
        fast = compiled.fast
        if fast is None:
            raise ValueError(
                "batch compilation requires the closure fast path; "
                "rebuild the artifact with TargetCompiler.compile"
            )
        program = compiled.program
        self.program = program
        self.fast = fast
        self.bus_bytes = limits.bus_bytes
        # Source-specialized parser/deparser; the closure forms are the
        # fallback for constructs the generator does not handle.
        self.parse = (
            _compile_block_parser(program, fast.honor_reject)
            or fast.parse
        )
        self.deparse = _compile_block_deparser(
            program, fast.deparse, fast.deparse_field_budget
        )

        template = standard_metadata_defaults()
        for name in program.env.metadata:
            template.setdefault(name, 0)
        self._template = template

        ingress_stmts = control_stages(program.ingress)
        egress_stmts = control_stages(program.egress)
        self.n_ingress = len(ingress_stmts)
        self.n_egress = len(egress_stmts)
        self._ingress_fns = _compile_control_block(
            program, program.ingress, fast.ingress_stages
        )
        self._egress_fns = _compile_control_block(
            program, program.egress, fast.egress_stages
        )
        self._stmt_cycles_total = _STMT_CYCLES * (
            self.n_ingress + self.n_egress
        )

        ing_names = [
            f"{program.ingress.name}.{i}" for i in range(self.n_ingress)
        ]
        eg_names = [
            f"{program.egress.name}.{i}" for i in range(self.n_egress)
        ]
        self._names_egress_barrier = ["input", "parser"] + ing_names
        self._names_deparse_barrier = (
            self._names_egress_barrier + eg_names
        )
        self._names_forwarded = (
            self._names_deparse_barrier + ["deparser", "output"]
        )
        self._names_rejected = ["input", "parser"]
        # Batch runs never trace (the null-trace fast path), and no
        # consumer mutates a TargetRun's trace or traversal list, so one
        # shared instance per kernel replaces a per-packet allocation.
        self._null_trace = Trace()
        self._last_before_egress = (
            ing_names[-1] if ing_names else "parser"
        )
        self._last_before_deparse = (
            eg_names[-1] if eg_names else self._last_before_egress
        )

        # Stage-major execution is valid only when packets cannot couple
        # through shared state: registers serialize (read/write order
        # across packets is observable); counter increments commute.
        self.columnar = not program.registers
        self.timestamp_free = not _reads_metadata(
            (program.parser, program.ingress, program.egress),
            "ingress_global_timestamp",
        )

    # ------------------------------------------------------------------
    # Block execution
    # ------------------------------------------------------------------
    def run_block(
        self,
        wires,
        clock: int = 0,
        timestamps=None,
        ingress_port: int = 0,
        ingress_ports=None,
        counters=None,
        registers=None,
        stuck=_EMPTY_SET,
        frozen=_EMPTY_SET,
    ):
        """Run one block; returns ``(timestamp, run, error)`` per lane.

        Exactly one of ``run`` / ``error`` is non-None per lane.
        ``timestamps`` may be None (derive from the running ``clock``,
        as the per-packet injection path would) or a per-packet list;
        a short list covers a prefix, the rest falls back to the clock.
        ``ingress_ports`` likewise pins per-lane ingress ports, with
        lanes beyond the list falling back to the scalar
        ``ingress_port``. Lane order equals arrival order on every
        schedule — the packet-major path (taken by all register-bearing
        programs) additionally feeds each lane's state to the next, so
        stateful oracles tracking the same sequence stay in sync.
        """
        wires = list(wires)
        n = len(wires)
        if counters is None:
            counters = {}
        if registers is None:
            registers = {}
        ports_covered = (
            len(ingress_ports) if ingress_ports is not None else 0
        )
        ports = [
            ingress_ports[i] if i < ports_covered else ingress_port
            for i in range(n)
        ]
        ts_full = timestamps is not None and len(timestamps) >= n
        if self.columnar and ts_full:
            return self._run_columnar(
                wires, list(timestamps[:n]), ports,
                counters, registers, stuck, frozen,
            )
        if self.columnar and timestamps is None and self.timestamp_free:
            outs = self._run_columnar(
                wires, [0] * n, ports,
                counters, registers, stuck, frozen,
            )
            # Backfill the running clock: packet i is stamped with the
            # clock after all earlier non-errored packets accounted, and
            # the program provably never read the zero placeholder.
            clk = clock
            for i, (_, run, error) in enumerate(outs):
                if error is not None:
                    outs[i] = (clk, None, error)
                else:
                    run.result.metadata["ingress_global_timestamp"] = (
                        clk & _TS_MASK
                    )
                    outs[i] = (clk, run, None)
                    clk += run.latency_cycles
            return outs
        # Packet-major: degenerate blocks of one, clock fed back.
        outs = []
        clk = clock
        covered = len(timestamps) if timestamps is not None else 0
        for i, wire in enumerate(wires):
            ts = timestamps[i] if i < covered else clk
            out = self._run_columnar(
                [wire], [ts], [ports[i]],
                counters, registers, stuck, frozen,
            )[0]
            outs.append(out)
            if out[1] is not None:
                clk += out[1].latency_cycles
        return outs

    def _run_columnar(
        self, wires, ts_list, ports, counters, registers, stuck, frozen
    ):
        n = len(wires)
        parse = self.parse
        template = self._template
        null_trace = self._null_trace
        bus = self.bus_bytes

        states = [None] * n
        word = [0] * n
        errors = [None] * n
        exited = [False] * n
        drop_stage = [None] * n
        outs = [None] * n
        live = []

        # Parser pass: partition the block into accepted / rejected /
        # raised lanes once; later loops only visit live lanes.
        for i in range(n):
            wire = wires[i]
            size = len(wire)
            w = 4 + -(-max(1, size) // bus)
            word[i] = w
            metadata = dict(template)
            metadata["ingress_port"] = ports[i]
            metadata["packet_length"] = size & 0xFFFF
            metadata["ingress_global_timestamp"] = ts_list[i] & _TS_MASK
            try:
                packet, payload, accepted = parse(wire, metadata)
            except Exception as exc:
                outs[i] = (ts_list[i], None, exc)
                continue
            if not accepted:
                outs[i] = (
                    ts_list[i],
                    TargetRun(
                        PipelineResult(
                            Verdict.PARSER_REJECTED, None, metadata,
                            null_trace,
                        ),
                        self._names_rejected,
                        "parser",
                        1 + w,
                    ),
                    None,
                )
                continue
            packet.payload = payload
            states[i] = ExecState(
                packet, metadata, counters, registers, stuck, frozen
            )
            live.append(i)

        for fn in self._ingress_fns:
            fn(states, live, exited, errors, drop_stage, stuck)

        # Egress drop barrier (exists only when egress has stages).
        if self.n_egress:
            kept = []
            drop_cycles = 1 + _STMT_CYCLES * self.n_ingress
            names = self._names_egress_barrier
            last = self._last_before_egress
            for i in live:
                if errors[i] is not None:
                    outs[i] = (ts_list[i], None, errors[i])
                elif states[i].metadata["drop"]:
                    outs[i] = (
                        ts_list[i],
                        TargetRun(
                            PipelineResult(
                                Verdict.DROPPED, None,
                                states[i].metadata, null_trace,
                            ),
                            names,
                            drop_stage[i] or last,
                            drop_cycles + word[i],
                        ),
                        None,
                    )
                else:
                    kept.append(i)
            live = kept

            for fn in self._egress_fns:
                fn(states, live, exited, errors, drop_stage, stuck)

        # Deparser drop barrier.
        kept = []
        drop_cycles = 1 + self._stmt_cycles_total
        names = self._names_deparse_barrier
        last = self._last_before_deparse
        for i in live:
            if errors[i] is not None:
                outs[i] = (ts_list[i], None, errors[i])
            elif states[i].metadata["drop"]:
                outs[i] = (
                    ts_list[i],
                    TargetRun(
                        PipelineResult(
                            Verdict.DROPPED, None,
                            states[i].metadata, null_trace,
                        ),
                        names,
                        drop_stage[i] or last,
                        drop_cycles + word[i],
                    ),
                    None,
                )
            else:
                kept.append(i)
        live = kept

        # Deparse + forward column.
        deparse = self.deparse
        names = self._names_forwarded
        base_cycles = 2 + self._stmt_cycles_total
        for i in live:
            state = states[i]
            metadata = state.metadata
            try:
                out_packet = deparse(state.packet)
            except Exception as exc:
                outs[i] = (ts_list[i], None, exc)
                continue
            metadata["egress_port"] = metadata["egress_spec"]
            outs[i] = (
                ts_list[i],
                TargetRun(
                    PipelineResult(
                        Verdict.FORWARDED, out_packet, metadata,
                        null_trace,
                    ),
                    names,
                    None,
                    base_cycles + 2 * word[i],
                ),
                None,
            )
        return outs


def build_batch_program(
    compiled: CompiledProgram, limits: ArchLimits
) -> BatchProgram:
    """Compile ``compiled`` for block execution (no caching)."""
    return BatchProgram(compiled, limits)


def get_batch_program(
    compiled: CompiledProgram, limits: ArchLimits
) -> BatchProgram:
    """Batch kernel for ``compiled``, built once per artifact."""
    batch = compiled.batch
    if batch is None:
        batch = BatchProgram(compiled, limits)
        compiled.batch = batch
    return batch
