"""The batch kernel — the one execution driver.

A :class:`BatchProgram` is what a compiled artifact runs: it is built
with the artifact (``CompiledProgram.kernel``, see
:mod:`repro.target.compiler`) from the program, the target's limits and
its deviation model, and every packet a device runs, and every
prediction the reference oracle makes, goes through one. The
construction lowers the program once into one generated module
(:func:`repro.target.fastpath.generate_kernel`: parser, deparser, one
function per action and per control stage, compiled with one
``compile()`` call; the text stays on the kernel as ``source``) and
``run_block`` drives those parts over a struct-of-arrays packet block:

* per-packet control state lives in parallel arrays (``exited``,
  ``errors``, ``drop_stage``, word costs, timestamps) instead of being
  rediscovered inside a per-packet stage loop;
* the parser partitions the block once into accepted / rejected /
  raised lanes — the per-stage loops only ever visit live lanes;
* an all-``EXACT`` table apply, nested or not, is a dict lookup:
  entries are indexed into a hash map once per stage call (highest
  priority wins, first installed wins ties — exactly the scan's
  ``rank > best_rank`` selection) and each packet costs one dict
  lookup instead of a scan over the entry list;
* verdicts, egress, latency and deparse are emitted column-wise with
  the cycle model evaluated *analytically* per death class rather than
  accumulated stage by stage.

The kernel also holds the one cycle model (``_TAP_CYCLES``,
``_STMT_CYCLES`` and :func:`_frame_cycles` for the parser and deparser,
read per stage by :meth:`BatchProgram.stage_cycles`): the hooked
schedule accumulates it stage by stage, the columnar schedule sums it
per death class, and the device reports it.

What happens *between* statements is written once, in the generated
stage functions' per-lane loop (exit, drop-origin tracking, per-lane
error capture), and in the two drop barriers, entering egress and
entering the deparser, which discard a packet whose drop flag survived
the preceding control — the interpreter's "skip egress, don't deparse"
semantics.

Schedules
---------

``run_block`` picks one of three schedules:

* **stage-major (columnar)** — every live packet runs stage ``k``
  before any packet runs stage ``k+1``. Valid only when the schedule
  cannot show: no register is touched from two stages (ingress and
  egress stages differ; the lowering records the stages that touch
  each register, through every action a stage reaches) — a stage
  function runs each lane's whole statement before the next lane's,
  so such a register sees the same reads and writes in the same order;
  counter increments commute — and the block needs no mid-block clock
  feedback: either every packet's timestamp is supplied up front, or
  the program provably never reads ``ingress_global_timestamp`` (the
  lowering records every metadata field the generated code reads), in
  which case timestamps are backfilled from the running clock after
  the block completes.
* **packet-major** — blocks of one, with the device clock advanced
  between packets. Used for blocks that couple across stages through
  a register, or through the clock when untimed; same stage functions,
  so identical semantics, just no cross-packet amortization. A single
  injected packet is a block of one.
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

from ..bitutils import mask
from ..exceptions import TargetError
from ..p4.interpreter import PipelineResult, Verdict
from ..p4.program import P4Program
from ..p4.types import standard_metadata_defaults
from .fastpath import generate_kernel
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
        "source",
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
    )

    def __init__(
        self,
        program: P4Program,
        limits: ArchLimits,
        model: DeviationModel,
    ):
        self.program = program
        self.bus_bytes = limits.bus_bytes
        code = generate_kernel(program, model)
        self.source, self.parse, self.deparse = (
            code.source, code.parse, code.deparse
        )
        ingress, egress = code.ingress, code.egress
        # Standard + program metadata, all zero, copied per packet.
        template = standard_metadata_defaults()
        for name in program.env.metadata:
            template.setdefault(name, 0)
        self._template = template

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

        # Stage-major execution is valid only when no register couples
        # two stages (see the module docstring).
        self.columnar = all(
            len(stages) == 1 for stages in code.register_stages.values()
        )
        self.timestamp_free = (
            "ingress_global_timestamp" not in code.metadata_reads
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
        arrival order on every schedule, and so is the order in which
        lanes read and write each register, so stateful oracles
        tracking the same sequence stay in sync.
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
        bus = self.bus_bytes
        rejected_names, rejected_fixed, rejected_words = self._rejected

        packets = [None] * n
        metas = [None] * n
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
                            Verdict.PARSER_REJECTED, None, metadata
                        ),
                        rejected_names,
                        "parser",
                        rejected_fixed + rejected_words * w,
                    ),
                    None,
                )
                continue
            packet.payload = payload
            packets[i] = packet
            metas[i] = metadata
            live.append(i)

        for fn in self._ingress_fns:
            fn(packets, metas, live, exited, errors, drop_stage,
               counters, registers, _EMPTY_SET, _EMPTY_SET)

        # Egress drop barrier (exists only when egress has stages).
        if self.n_egress:
            kept = []
            names, fixed, words = self._egress_barrier
            last = names[-1]
            for i in live:
                if errors[i] is not None:
                    outs[i] = (ts_list[i], None, errors[i])
                elif metas[i]["drop"]:
                    outs[i] = (
                        ts_list[i],
                        TargetRun(
                            PipelineResult(Verdict.DROPPED, None, metas[i]),
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
                fn(packets, metas, live, exited, errors, drop_stage,
                   counters, registers, _EMPTY_SET, _EMPTY_SET)

        # Deparser drop barrier.
        kept = []
        names, fixed, words = self._deparse_barrier
        last = names[-1]
        for i in live:
            if errors[i] is not None:
                outs[i] = (ts_list[i], None, errors[i])
            elif metas[i]["drop"]:
                outs[i] = (
                    ts_list[i],
                    TargetRun(
                        PipelineResult(Verdict.DROPPED, None, metas[i]),
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
            metadata = metas[i]
            try:
                out_packet = deparse(packets[i])
            except Exception as exc:
                outs[i] = (ts_list[i], None, exc)
                continue
            metadata["egress_port"] = metadata["egress_spec"]
            outs[i] = (
                ts_list[i],
                TargetRun(
                    PipelineResult(Verdict.FORWARDED, out_packet, metadata),
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
                PipelineResult(Verdict.PARSER_REJECTED, None, metadata),
                [], "parser", w, injected_at,
            )

        # A block of one for the stage functions.
        lane_packets, lane_metas = [packet], [metadata]
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
                    fn(lane_packets, lane_metas, live, exited, errors,
                       drop_stage, counters, registers, stuck, frozen)
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
            result = PipelineResult(Verdict.FORWARDED, out_packet, metadata)
        else:
            result = PipelineResult(verdict, None, metadata)
        return TargetRun(
            result, traversed, died_at, cycles, injected_at, output_wire
        )

