"""The batch kernel — the one execution driver.

A :class:`BatchProgram` is what a compiled artifact runs: it is built
with the artifact (``CompiledProgram.kernel``, see
:mod:`repro.target.compiler`) from the program, the target's limits and
its deviation model, and every packet a device runs, and every
prediction the reference oracle makes, goes through one. The
construction compiles the program once — the generated parser and
deparser and one closure per control stage
(:mod:`repro.target.fastpath`), each stage compiled exactly once — and
``run_block`` drives those parts over a struct-of-arrays packet block:

* per-packet control state lives in parallel arrays (``exited``,
  ``errors``, ``drop_stage``, word costs, timestamps) instead of being
  rediscovered inside a per-packet stage loop;
* the parser partitions the block once into accepted / rejected /
  raised lanes — the per-stage loops only ever visit live lanes;
* an all-``EXACT`` table apply is specialized into a dict-get over a
  key column: entries are snapshotted into a hash map once per block
  (highest priority wins, first installed wins ties — exactly the
  table closures' ``rank > best_rank`` selection) and each packet
  costs one dict lookup instead of a scan over the entry list;
* verdicts, egress, latency and deparse are emitted column-wise with
  the cycle model evaluated *analytically* per death class rather than
  accumulated stage by stage.

The kernel also holds the one cycle model (``_TAP_CYCLES``,
``_STMT_CYCLES`` and :func:`_frame_cycles` for the parser and deparser,
read per stage by :meth:`BatchProgram.stage_cycles`): the hooked
schedule accumulates it stage by stage, the columnar schedule sums it
per death class, and the device reports it.

What happens *between* closures is written once, in the stage
functions (:func:`_generic_stage`, :func:`_exact_table_stage`: exit,
drop-origin tracking, per-lane error capture), and in the two drop
barriers, entering egress and entering the deparser, which discard a
packet whose drop flag survived the preceding control — the
interpreter's "skip egress, don't deparse" semantics.

Schedules
---------

``run_block`` picks one of three schedules:

* **stage-major (columnar)** — every live packet runs stage ``k``
  before any packet runs stage ``k+1``. Valid only when packets cannot
  couple: the program must be register-free (counter increments
  commute; register read/write order does not) and the block must not
  need mid-block clock feedback — either every packet's timestamp is
  supplied up front, or the program provably never reads
  ``ingress_global_timestamp`` (checked by walking the IR for
  ``MetaRef`` nodes), in which case timestamps are backfilled from the
  running clock after the block completes.
* **packet-major** — blocks of one, with the device clock advanced
  between packets. Used for register-coupled or timestamp-coupled
  untimed blocks; same stage functions, so identical semantics, just
  no cross-packet amortization. A single injected packet and a single
  oracle prediction are blocks of one.
* **packet-major with hooks** — the packet-major schedule with
  between-stage hooks (:class:`~repro.target.pipeline.StageHooks`,
  built by :meth:`~repro.target.device.NetworkDevice.hooks`): attached
  taps receive :class:`~repro.target.pipeline.PacketSnapshot`
  s, armed faults (:mod:`repro.target.faults`) act on the packet, and
  the packet may enter at any stage (``inject_at``). It visits every
  stage name, empty statements included, so taps and faults may target
  any of them, and keeps a running cycle count for the taps'
  ``_cycles_elapsed``. It runs only when hooks are given, so the two
  hook-free schedules carry no per-stage hook check.

Error semantics: the kernel captures each packet's runtime error
(invalid-header access on a deviant target, unknown parser state, …)
in its lane — the packet commits exactly the mutations made before the
raise and is excluded from later stages. Callers choose: the device's
per-packet entry points re-raise it, ``inject_block`` can hand it back
per frame.
"""

from __future__ import annotations

import dataclasses

from ..bitutils import mask
from ..exceptions import TargetError
from ..p4.control import ApplyTable
from ..p4.expr import MetaRef, compile_expr
from ..p4.interpreter import ExitPipeline, PipelineResult, Trace, Verdict
from ..p4.program import P4Program
from ..p4.table import MatchKind
from ..p4.types import standard_metadata_defaults
from .fastpath import (
    ExecState,
    _compile_action,
    _compile_stmt,
    _generate_deparser,
    _generate_parser,
    control_stages,
)
from .faults import FaultKind
from .limits import ArchLimits, DeviationModel
from .pipeline import PacketSnapshot, StageHooks, TargetRun, stage_names

__all__ = ["BatchProgram"]

_EMPTY_SET: frozenset = frozenset()

# ----------------------------------------------------------------------
# The cycle model
# ----------------------------------------------------------------------
#: Cycle cost of a tap point (``input``, ``output``).
_TAP_CYCLES = 1
#: Cycle cost of one match-action stage, empty statements included.
_STMT_CYCLES = 12


def _frame_cycles(frame_bytes: int, bus_bytes: int) -> int:
    """Cycle cost of the parser or the deparser for one frame: 4 plus
    one per bus word (an empty frame still occupies one word)."""
    return 4 + -(-max(1, frame_bytes) // bus_bytes)


def _traversal(rows) -> tuple[list[str], int, int]:
    """A traversal over the hooked schedule's stage rows as
    ``(names, fixed cycles, frame-sized stages)``: the traversal costs
    ``fixed + frame-sized stages * _frame_cycles(size, bus)``."""
    return (
        [row[0] for row in rows],
        sum(row[3] for row in rows if row[3] is not None),
        sum(1 for row in rows if row[3] is None),
    )


_TS_MASK = 0xFFFFFFFFFFFF

#: Stage kinds of the hooked schedule's stage table.
_INPUT, _PARSER, _STMT, _DEPARSER, _OUTPUT = range(5)


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
# Block-wise stage compilation
# ----------------------------------------------------------------------
def _generic_stage(stage_name: str, stage_fn):
    """Wrap one compiled closure stage for block execution.

    This is the one definition of a match-action stage's per-packet
    bookkeeping, on every schedule: lanes that exited or raised are
    skipped, ExitPipeline marks the lane exited (drop tracking still
    runs for that stage), any other exception parks the lane, and the
    drop-origin tracker records the stage that set a still-set drop
    flag (a later statement may clear it again).
    """

    def run(states, live, exited, errors, drop_stage, stuck):
        for i in live:
            if exited[i] or errors[i] is not None:
                continue
            state = states[i]
            try:
                stage_fn(state)
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
    higher priority, reproducing the table closures'
    ``rank > best_rank`` selection (rank is ``(0, priority)`` for
    EXACT-only tables, so first-installed wins ties). Control-plane
    updates between blocks stay visible because the snapshot reads the
    live entry list. Lane bookkeeping is :func:`_generic_stage`'s.
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


def _compile_control(program, control, quantize_tcam: bool):
    """Block-wise stage function per control statement, index-aligned
    with the pipeline's stage names; ``None`` for an empty statement.
    Each statement is compiled once: an all-EXACT table apply into its
    dict-get column, anything else into a closure."""
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
            continue
        fn = _compile_stmt(program, control, stmt, quantize_tcam)
        fns.append(None if fn is None else _generic_stage(name, fn))
    return fns


def _corrupt_field(fault, *packets) -> None:
    """Apply a CORRUPT_FIELD fault to each distinct header it names in
    ``packets`` (no-op where absent). The deparsed output shares Header
    objects with the parsed input, and a shared header flips once."""
    if fault.header is None or fault.field is None:
        return
    flipped: list = []
    for packet in packets:
        header = packet.get_or_none(fault.header)
        if (
            header is None
            or not header.valid
            or not header.spec.has_field(fault.field)
            or any(header is done for done in flipped)
        ):
            continue
        flipped.append(header)
        width = header.spec.field(fault.field).width
        header._values[fault.field] = (
            header._values[fault.field] ^ fault.mask
        ) & mask(width)


class BatchProgram:
    """A program compiled for block execution on one target.

    Built from the program, the target's :class:`ArchLimits` (the bus
    width the cycle model charges per word) and its
    :class:`DeviationModel` (the datapath semantics, silent deviations
    included). Read-only once built: all mutable state (counters,
    registers, metadata) comes in per run, so one kernel serves every
    device installing its artifact.
    """

    __slots__ = (
        "program",
        "parse",
        "deparse",
        "bus_bytes",
        "columnar",
        "timestamp_free",
        "stage_names",
        "_template",
        "_ingress_fns",
        "_egress_fns",
        "_stages",
        "_stage_costs",
        "n_egress",
        "_rejected",
        "_egress_barrier",
        "_deparse_barrier",
        "_forwarded",
        "_null_trace",
    )

    def __init__(
        self,
        program: P4Program,
        limits: ArchLimits,
        model: DeviationModel,
    ):
        self.program = program
        self.bus_bytes = limits.bus_bytes
        self.parse = _generate_parser(program, model.honor_reject)
        self.deparse = _generate_deparser(
            program, model.deparse_field_budget
        )
        # Standard + program metadata, all zero, copied per packet.
        template = standard_metadata_defaults()
        for name in program.env.metadata:
            template.setdefault(name, 0)
        self._template = template

        ingress = _compile_control(
            program, program.ingress, model.quantize_tcam
        )
        egress = _compile_control(
            program, program.egress, model.quantize_tcam
        )
        n_ing = len(ingress)
        n_eg = self.n_egress = len(egress)
        # The hook-free schedules elide empty stages: an empty stage
        # cannot change the drop flag, so skipping it preserves the
        # drop-origin invariant.
        self._ingress_fns = [fn for fn in ingress if fn is not None]
        self._egress_fns = [fn for fn in egress if fn is not None]

        # The stage table, one row per stage name: (name, kind, stage
        # fn, fixed cycle cost or None for the frame-sized
        # parser/deparser, drop barrier). The barriers sit at egress.0
        # and at the deparser. The hooked schedule walks it; the cycle
        # model and the columnar death classes are read off it.
        names = self.stage_names = stage_names(program)
        kinds = (
            [_INPUT, _PARSER] + [_STMT] * (n_ing + n_eg)
            + [_DEPARSER, _OUTPUT]
        )
        fns = [None, None] + ingress + egress + [None, None]
        costs = (
            [_TAP_CYCLES, None] + [_STMT_CYCLES] * (n_ing + n_eg)
            + [None, _TAP_CYCLES]
        )
        egress_0, deparser = 2 + n_ing, 2 + n_ing + n_eg
        stages = self._stages = tuple(
            (name, kind, fn, cost,
             index == deparser or (index == egress_0 and n_eg > 0))
            for index, (name, kind, fn, cost) in enumerate(
                zip(names, kinds, fns, costs)
            )
        )
        self._stage_costs = dict(zip(names, costs))

        # The hook-free schedules' death classes, each a traversal with
        # its cost: one shared name list per class, as no consumer
        # mutates a TargetRun's traversal list. A drop no stage claimed
        # dies at the last stage before its barrier.
        self._rejected = _traversal(stages[:2])
        self._egress_barrier = _traversal(stages[:egress_0])
        self._deparse_barrier = _traversal(stages[:deparser])
        self._forwarded = _traversal(stages)
        # Kernel runs never trace (the null-trace fast path), and no
        # consumer mutates a TargetRun's trace, so one shared instance
        # per kernel replaces a per-packet allocation.
        self._null_trace = Trace()

        # Stage-major execution is valid only when packets cannot couple
        # through shared state: registers serialize (read/write order
        # across packets is observable); counter increments commute.
        self.columnar = not program.registers
        self.timestamp_free = not _reads_metadata(
            (program.parser, program.ingress, program.egress),
            "ingress_global_timestamp",
        )

    def stage_cycles(self, stage: str, frame_bytes: int) -> int:
        """The cycle model: what ``stage`` costs one frame of
        ``frame_bytes`` bytes. A run's ``latency_cycles`` is the sum
        over its ``stages_traversed``, plus any EXTRA_LATENCY fault."""
        try:
            cost = self._stage_costs[stage]
        except KeyError:
            raise TargetError(f"no pipeline stage {stage!r}") from None
        if cost is None:
            return _frame_cycles(frame_bytes, self.bus_bytes)
        return cost

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
        hooks: StageHooks | None = None,
    ):
        """Run one block; returns ``(timestamp, run, error)`` per lane.

        Exactly one of ``run`` / ``error`` is non-None per lane.
        ``timestamps`` may be None (derive from the running ``clock``,
        as a packet-by-packet injection would) or a per-packet list;
        a short list covers a prefix, the rest falls back to the clock.
        ``ingress_ports`` likewise pins per-lane ingress ports, with
        lanes beyond the list falling back to the scalar
        ``ingress_port``. ``hooks`` selects the packet-major schedule
        with hooks (see the module docstring). Lane order equals
        arrival order on every schedule — the packet-major paths
        additionally feed each lane's state to the next, so stateful
        oracles tracking the same sequence stay in sync.
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
        if hooks is None and self.columnar:
            if timestamps is not None and len(timestamps) >= n:
                return self._run_columnar(
                    wires, list(timestamps[:n]), ports, counters, registers
                )
            if timestamps is None and self.timestamp_free:
                outs = self._run_columnar(
                    wires, [0] * n, ports, counters, registers
                )
                # Backfill the running clock: packet i is stamped with
                # the clock after all earlier non-errored packets
                # accounted, and the program provably never read the
                # zero placeholder.
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
        # Packet-major: blocks of one, clock fed back.
        outs = []
        clk = clock
        covered = len(timestamps) if timestamps is not None else 0
        for i, wire in enumerate(wires):
            ts = timestamps[i] if i < covered else clk
            if hooks is None:
                out = self._run_columnar(
                    [wire], [ts], [ports[i]], counters, registers
                )[0]
            else:
                try:
                    out = (
                        ts,
                        self._run_hooked(
                            wire, ts, ports[i], counters, registers, hooks
                        ),
                        None,
                    )
                except Exception as exc:  # captured per lane
                    out = (ts, None, exc)
            outs.append(out)
            if out[1] is not None:
                clk += out[1].latency_cycles
        return outs

    def _run_columnar(self, wires, ts_list, ports, counters, registers):
        n = len(wires)
        parse = self.parse
        template = self._template
        null_trace = self._null_trace
        bus = self.bus_bytes
        rejected_names, rejected_fixed, rejected_words = self._rejected

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
            w = _frame_cycles(size, bus)
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
                        rejected_names,
                        "parser",
                        rejected_fixed + rejected_words * w,
                    ),
                    None,
                )
                continue
            packet.payload = payload
            states[i] = ExecState(
                packet, metadata, counters, registers, _EMPTY_SET, _EMPTY_SET
            )
            live.append(i)

        for fn in self._ingress_fns:
            fn(states, live, exited, errors, drop_stage, _EMPTY_SET)

        # Egress drop barrier (exists only when egress has stages).
        if self.n_egress:
            kept = []
            names, fixed, words = self._egress_barrier
            last = names[-1]
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
                            fixed + words * word[i],
                        ),
                        None,
                    )
                else:
                    kept.append(i)
            live = kept

            for fn in self._egress_fns:
                fn(states, live, exited, errors, drop_stage, _EMPTY_SET)

        # Deparser drop barrier.
        kept = []
        names, fixed, words = self._deparse_barrier
        last = names[-1]
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
                        fixed + words * word[i],
                    ),
                    None,
                )
            else:
                kept.append(i)
        live = kept

        # Deparse + forward column.
        deparse = self.deparse
        names, fixed, words = self._forwarded
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
                    fixed + words * word[i],
                ),
                None,
            )
        return outs

    def _run_hooked(self, wire, ts, port, counters, registers, hooks):
        """One packet on the packet-major schedule with hooks; raises
        the packet's error instead of capturing it.

        Walks every stage from ``hooks.start``, running the same parser,
        stage functions and deparser as the hook-free schedules. After
        each stage the faults armed there act and its taps see a
        snapshot. The frame is always parsed (a mid-pipeline injection
        still needs the parsed representation, and a spec-honouring
        target still rejects malformed input); stages upstream of the
        injection point are not traversed, so their faults and taps
        never see the packet.
        """
        start = hooks.start
        injected_at = self._stages[start][0]
        injector = hooks.injector
        faulty = injector is not None and bool(injector._active)
        if faulty:
            stuck = injector.stuck_tables()
            frozen = injector.frozen_counters()
        else:
            stuck = frozen = _EMPTY_SET
        null_trace = self._null_trace
        size = len(wire)
        w = _frame_cycles(size, self.bus_bytes)
        metadata = dict(self._template)
        metadata["ingress_port"] = port
        metadata["packet_length"] = size & 0xFFFF
        metadata["ingress_global_timestamp"] = ts & _TS_MASK
        packet, payload, accepted = self.parse(wire, metadata)
        if accepted:
            packet.payload = payload
        elif start > _PARSER:
            # Malformed frame injected downstream of the parser: the
            # parsed representation does not exist, so the run ends as
            # a parser rejection without traversing anything.
            return TargetRun(
                PipelineResult(
                    Verdict.PARSER_REJECTED, None, metadata, null_trace
                ),
                [], "parser", w, injected_at,
            )

        # A block of one for the stage functions.
        lane = [ExecState(packet, metadata, counters, registers, stuck,
                          frozen)]
        live, exited, errors, drop_stage = [0], [False], [None], [None]
        taps = hooks.taps
        deparse = self.deparse
        cycles = 0
        traversed: list[str] = []
        verdict: Verdict | None = None  # None while the packet lives
        hint = ""
        died_at: str | None = None
        out_packet = None
        output_wire = None
        for name, kind, fn, cost, barrier in self._stages[start:]:
            if barrier and metadata["drop"]:
                verdict = Verdict.DROPPED
                died_at = drop_stage[0] or traversed[-1]
                break
            traversed.append(name)
            cycles += w if cost is None else cost
            if kind == _STMT:
                if fn is not None:
                    fn(lane, live, exited, errors, drop_stage, stuck)
                    if errors[0] is not None:
                        raise errors[0]
            elif kind == _PARSER:
                if not accepted:
                    verdict = Verdict.PARSER_REJECTED
                    hint = "parser_reject"
            elif kind == _DEPARSER or (kind == _OUTPUT and out_packet is None):
                # Injected past the deparser: still serialize.
                out_packet = deparse(packet)
                metadata["egress_port"] = metadata["egress_spec"]

            if faulty:
                for fault in injector.faults_at(name):
                    fault_kind = fault.kind
                    subject = out_packet if out_packet is not None else packet
                    if fault_kind is FaultKind.BLACKHOLE:
                        if verdict is None and (
                            fault.predicate is None
                            or fault.predicate(subject)
                        ):
                            verdict = Verdict.DROPPED
                            hint = "blackhole"
                    elif fault_kind is FaultKind.CORRUPT_FIELD:
                        _corrupt_field(fault, subject, packet)
                    elif fault_kind is FaultKind.MISROUTE:
                        if fault.port is not None:
                            metadata["egress_spec"] = fault.port & 0x1FF
                            metadata["egress_port"] = metadata["egress_spec"]
                    elif fault_kind is FaultKind.TRUNCATE_PAYLOAD:
                        if fault.length is not None:
                            subject.payload = subject.payload[:fault.length]
                            packet.payload = packet.payload[:fault.length]
                    elif fault_kind is FaultKind.EXTRA_LATENCY:
                        cycles += fault.extra_cycles
                    # TABLE_STUCK_MISS / COUNTER_FREEZE act during stage
                    # execution via the stuck/frozen sets.

            callbacks = taps[name]
            if callbacks:
                metadata["_cycles_elapsed"] = cycles
                # A drop-marked packet is still in flight (a later
                # statement may clear the flag), but taps report it as
                # dead-in-this-stage so passive localization points at
                # the stage that commanded the drop.
                if verdict is None and metadata["drop"]:
                    alive, snapshot_hint = False, "drop"
                else:
                    alive, snapshot_hint = verdict is None, hint
                if kind == _OUTPUT:
                    if verdict is None:
                        output_wire = out_packet.pack()
                    snapshot = PacketSnapshot(
                        name, output_wire, out_packet, metadata,
                        alive, snapshot_hint,
                    )
                else:
                    snapshot = PacketSnapshot(
                        name, wire, packet, metadata, alive, snapshot_hint,
                    )
                for callback in list(callbacks):
                    callback(snapshot)

            if verdict is not None:
                died_at = name
                break

        if verdict is None:
            result = PipelineResult(
                Verdict.FORWARDED, out_packet, metadata, null_trace
            )
        else:
            result = PipelineResult(verdict, None, metadata, null_trace)
        return TargetRun(
            result, traversed, died_at, cycles, injected_at, output_wire
        )

