"""Coverage-guided packet generation: one witness per feasible path.

Seeded random batches waste most packets re-exercising the same parser
and table paths; this module replaces the statistical coverage claim
with a provable one. The shared symbolic walker
(:class:`repro.baselines.paths.PathEnumerator`) enumerates every
(parser path × table hit/miss per installed entry) behaviour class
under a **target's deviation model** — quantized TCAM masks and
ignored reject states change which paths are feasible — and
:func:`covering_set` materializes one concrete witness frame per
class, replaying each witness on a tracing interpreter so the
:class:`CoverageMap` records the path each packet *actually* covers
and why every pruned combination was infeasible. The idea follows
Control Plane Compression (Beckett et al., SIGCOMM 2018): collapse a
huge behaviour space into a small representative set with a
machine-checkable map of what each representative stands for.

The map is ground truth, not intent: witnesses for over-approximated
symbolic paths may land on another behaviour class, and the replay
dedups them there (the ``merged`` counter), so "all feasible paths
exercised" means every behaviour class reachable by *any* enumerated
candidate has exactly one witness in the set. :func:`verify_coverage`
re-replays an arbitrary wire set against a map and names the classes
left unexercised — the check the differential harness and the CI gate
run.

The ``coverage`` entry registered in
:data:`repro.sim.traffic.WORKLOADS` derives its packets from the cell
under test via :class:`~repro.sim.traffic.WorkloadContext` (campaign
shards pass their provisioned artifact; standalone callers get a
throwaway device built from the scenario axes). Packet sets are
deterministic per program × target × seed: witness field values are
symbolic minima, the seed drives only the payload bytes.

CLI::

    python -m repro.netdebug.coverage [--programs CSV] [--targets CSV]
        [--setup NAME] [--seed N] [--out report.json]

Exit 1 when any feasible path is left unexercised.
"""

from __future__ import annotations

import argparse
import json
import random
import sys
from dataclasses import dataclass, field as dc_field
from pathlib import Path

from ..baselines.paths import (
    MAX_CANDIDATES,
    SPEC_MODEL,
    DeviationModel,
    PathEnumerator,
)
from ..baselines.symbolic import Infeasible
from ..bitutils import stable_hash64
from ..exceptions import NetDebugError, P4RuntimeError, SimulationError
from ..p4.interpreter import Interpreter, PipelineResult
from ..p4.program import P4Program
from ..sim.traffic import (
    WORKLOADS,
    FlowSpec,
    WorkloadBundle,
    WorkloadContext,
)

__all__ = [
    "TracingInterpreter",
    "CoveredPath",
    "PrunedPath",
    "CoverageMap",
    "covering_set",
    "verify_coverage",
    "verify_report_coverage",
    "main",
]

#: Payload bytes per witness packet (seed-randomized, path-neutral for
#: every stdlib parser: none selects on payload bytes).
WITNESS_PAYLOAD_LEN = 16

#: Trace-event kinds that identify a parser path. ``parser_state``
#: contributes the state name; the rest contribute fixed markers at
#: their position in the walk.
_PARSER_MARKERS = {
    "parser_verify_fail": "!verify",
    "parser_reject": "!reject",
    "parser_reject_ignored": "!reject_ignored",
}


class TracingInterpreter(Interpreter):
    """An interpreter that records which table entry won each lookup.

    The base trace says only hit/miss; the coverage signature needs
    *which* installed entry matched, so ``apply_table`` pre-runs the
    (pure) lookup to learn the winning entry's index before delegating
    to the base implementation. ``table_choices`` accumulates
    ``(table_name, entry_index)`` per packet — ``None`` for a miss —
    and resets on every :meth:`process` call.
    """

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self.table_choices: list[tuple[str, int | None]] = []

    def process(self, wire, ingress_port=0, timestamp=0):
        self.table_choices = []
        return super().process(
            wire, ingress_port=ingress_port, timestamp=timestamp
        )

    def apply_table(self, control, table_name, ctx, trace):
        table = control.table(table_name)
        result = table.lookup(
            ctx, self.program.env, quantize=self.quantize_tcam
        )
        index = None
        if result.entry is not None:
            for position, entry in enumerate(table.entries):
                if entry is result.entry:
                    index = position
                    break
        self.table_choices.append((table_name, index))
        return super().apply_table(control, table_name, ctx, trace)


def _signature(
    result: PipelineResult, choices: list[tuple[str, int | None]]
) -> str:
    """The behaviour-class identity of one replayed packet.

    Parser walk (state names plus verify/reject markers, in trace
    order) | final verdict | per-table winning entry. Two packets with
    the same signature took the same feasible path.
    """
    tokens: list[str] = []
    for event in result.trace.events:
        if event.kind == "parser_state":
            tokens.append(event.detail)
        elif event.kind in _PARSER_MARKERS:
            tokens.append(_PARSER_MARKERS[event.kind])
    branches = ",".join(
        f"{name}={'miss' if index is None else index}"
        for name, index in choices
    )
    return "|".join((">".join(tokens), result.verdict.value, branches))


def _replay(
    program: P4Program, model: DeviationModel, wire: bytes
) -> str:
    """One fresh-state replay of ``wire`` under ``model`` → signature.

    Every replay starts from clean registers/counters: the coverage
    claim is per-packet path identity, not a stateful trajectory.
    Runtime errors get their own signature class so error-raising
    paths are identifiable (and excludable) rather than crashes.
    """
    interp = TracingInterpreter(
        program,
        honor_reject=model.honor_reject,
        quantize_tcam=model.quantize_tcam,
        deparse_field_budget=model.deparse_field_budget,
    )
    try:
        result = interp.process(wire)
    except P4RuntimeError as exc:
        return f"!error|{exc}"
    return _signature(result, interp.table_choices)


@dataclass
class CoveredPath:
    """One exercised behaviour class and its witness packet."""

    signature: str
    packet: str  # wire hex
    #: Additional enumerated candidates whose witnesses collapsed onto
    #: this class (over-approximate symbolic paths landing together).
    merged: int = 0

    def to_dict(self) -> dict:
        return {
            "signature": self.signature,
            "packet": self.packet,
            "merged": self.merged,
        }

    @classmethod
    def from_dict(cls, data: dict) -> "CoveredPath":
        return cls(
            signature=data["signature"],
            packet=data["packet"],
            merged=data.get("merged", 0),
        )


@dataclass(frozen=True)
class PrunedPath:
    """One infeasible (or unemittable) combination and why."""

    path: str
    reason: str

    def to_dict(self) -> dict:
        return {"path": self.path, "reason": self.reason}

    @classmethod
    def from_dict(cls, data: dict) -> "PrunedPath":
        return cls(path=data["path"], reason=data["reason"])


@dataclass
class CoverageMap:
    """Which path each emitted packet covers, and what was pruned.

    The artifact the ``coverage`` workload attaches to its bundle; it
    rides :class:`~repro.netdebug.campaign.ScenarioResult` into the
    canonical campaign JSON, so the committed ``baselines/coverage.json``
    golden pins witness bytes, signatures and prune reasons together.
    """

    program: str
    target: str
    seed: int
    covered: list[CoveredPath] = dc_field(default_factory=list)
    pruned: list[PrunedPath] = dc_field(default_factory=list)

    @property
    def merged(self) -> int:
        return sum(path.merged for path in self.covered)

    def signatures(self) -> set[str]:
        return {path.signature for path in self.covered}

    def summary(self) -> dict:
        return {
            "feasible": len(self.covered),
            "packets": len(self.covered),
            "pruned": len(self.pruned),
            "merged": self.merged,
        }

    def to_dict(self) -> dict:
        return {
            "program": self.program,
            "target": self.target,
            "seed": self.seed,
            "feasible": len(self.covered),
            "merged": self.merged,
            "covered": [path.to_dict() for path in self.covered],
            "pruned": [path.to_dict() for path in self.pruned],
        }

    @classmethod
    def from_dict(cls, data: dict) -> "CoverageMap":
        return cls(
            program=data["program"],
            target=data["target"],
            seed=data["seed"],
            covered=[
                CoveredPath.from_dict(c) for c in data.get("covered", [])
            ],
            pruned=[
                PrunedPath.from_dict(p) for p in data.get("pruned", [])
            ],
        )


def covering_set(
    program: P4Program,
    model: DeviationModel = SPEC_MODEL,
    seed: int = 0,
    target: str = "",
) -> tuple[tuple[bytes, ...], CoverageMap]:
    """One witness frame per feasible behaviour class of ``program``,
    as wire bytes in the map's ``covered`` order.

    Deterministic per program × target model × seed: the enumeration
    order is fixed, witness header fields are the symbolic domain's
    minima, and the seed drives only the payload bytes — so two runs
    (or two hosts) always emit byte-identical packet sets. Candidates
    whose witness replay raises a runtime error are recorded as pruned
    (with the error) rather than emitted, keeping the set safe to
    inject through sessions.
    """
    enumerator = PathEnumerator(program, model)
    rng = random.Random(
        stable_hash64(f"coverage:{program.name}:{target}:{seed}")
        % (1 << 53)
    )
    covered: dict[str, CoveredPath] = {}
    wires: list[bytes] = []
    pruned: list[PrunedPath] = []
    examined = 0
    for spec in enumerator.candidate_specs():
        if examined >= MAX_CANDIDATES:
            pruned.append(
                PrunedPath(
                    "<remaining combinations>",
                    f"enumeration capped at {MAX_CANDIDATES} candidates",
                )
            )
            break
        examined += 1
        if not spec.feasible:
            pruned.append(PrunedPath(spec.describe(), spec.reason))
            continue
        payload = bytes(
            rng.randrange(256) for _ in range(WITNESS_PAYLOAD_LEN)
        )
        try:
            packet = enumerator.build_packet_object(
                spec.path, spec.sym, payload
            )
        except Infeasible as exc:
            pruned.append(
                PrunedPath(
                    spec.describe(), f"witness construction: {exc}"
                )
            )
            continue
        wire = packet.pack()
        signature = _replay(program, model, wire)
        if signature.startswith("!error|"):
            pruned.append(
                PrunedPath(
                    spec.describe(),
                    f"witness replay raised: "
                    f"{signature.removeprefix('!error|')}",
                )
            )
            continue
        if signature in covered:
            covered[signature].merged += 1
            continue
        covered[signature] = CoveredPath(signature, wire.hex())
        wires.append(wire)
    cmap = CoverageMap(
        program=program.name,
        target=target,
        seed=seed,
        covered=list(covered.values()),
        pruned=pruned,
    )
    return tuple(wires), cmap


def verify_coverage(
    program: P4Program,
    model: DeviationModel,
    wires,
    cmap: CoverageMap,
) -> list[str]:
    """Signatures the map claims covered but ``wires`` never exercise.

    The machine-checkable half of the all-paths-exercised claim: replay
    every wire under the model and subtract the achieved signatures
    from the map's. An empty list means every recorded behaviour class
    has a live witness in ``wires``.
    """
    achieved = {_replay(program, model, wire) for wire in wires}
    return sorted(cmap.signatures() - achieved)


# ---------------------------------------------------------------------------
# Scenario-axis resolution (shared by the workload and the verifiers)
# ---------------------------------------------------------------------------

def _materialize_context(
    context: WorkloadContext,
) -> tuple[P4Program, DeviationModel]:
    """The provisioned program and deviation model for a cell.

    Campaign shards hand over their already-provisioned compiled
    artifact (``context.compiled``); everyone else gets a throwaway
    device built and provisioned from the scenario axes, so feasibility
    is always judged against the exact table state the cell runs.
    """
    compiled = context.compiled
    if compiled is None:
        # Deferred: sim.traffic must stay importable without netdebug.
        from ..p4.stdlib import PROGRAMS
        from .campaign import (
            PROVISIONERS,
            TARGETS,
            require_known_program,
            require_known_target,
        )

        require_known_program(context.program, "coverage workload")
        require_known_target(context.target, "coverage workload")
        if context.setup and context.setup not in PROVISIONERS:
            raise SimulationError(
                f"coverage workload: unknown setup {context.setup!r}"
            )
        device = TARGETS[context.target](
            f"coverage-{context.target}-{context.program}"
        )
        compiled = device.load(PROGRAMS[context.program]())
        if context.setup:
            PROVISIONERS[context.setup](device)
    return compiled.program, DeviationModel.from_compiled(compiled)


def _coverage_workload(
    flow: FlowSpec,
    count: int,
    seed: int,
    rate_pps: float,
    context: WorkloadContext | None = None,
) -> WorkloadBundle:
    """The ``coverage`` workload: path witnesses, not random packets.

    ``flow`` and ``rate_pps`` are accepted for registry-signature
    compatibility but unused — the packets derive entirely from the
    program × target × seed. ``count`` is a *floor check*, not a size:
    the bundle always carries the full covering set, and a count too
    small to hold it is refused loudly rather than silently weakening
    the all-paths-exercised claim.
    """
    if count == 0:
        # The campaign manifest probe (count=0) must stay cheap and
        # context-free; an empty bundle carries no times/ports anyway.
        return WorkloadBundle("coverage", ())
    if context is None:
        raise SimulationError(
            "workload 'coverage' derives its packets from the program "
            "under test; pass context=WorkloadContext(program, target, "
            "setup) to build_workload"
        )
    program, model = _materialize_context(context)
    frames, cmap = covering_set(
        program, model, seed=seed, target=context.target
    )
    if count < len(frames):
        raise SimulationError(
            f"workload 'coverage': {context.program!r} on "
            f"{context.target!r} needs {len(frames)} witness packets "
            f"to exercise every feasible path; count={count} would "
            "silently weaken the all-paths-exercised claim — raise the "
            "scenario count"
        )
    return WorkloadBundle("coverage", frames, coverage=cmap)


#: Registered at import time so spawn-started pool/cluster workers —
#: which import the campaign module, which imports this one — all see
#: the same registry.
WORKLOADS["coverage"] = _coverage_workload


def verify_report_coverage(report) -> dict[str, list[str]]:
    """Unexercised signatures per scenario key of a campaign report.

    For every scenario result carrying a coverage map, rebuild the
    cell's provisioned program and deviation model from the scenario
    axes and re-replay the map's witness packets. An empty dict is the
    all-paths-exercised verdict the baseline writer and the CI gate
    require.
    """
    unexercised: dict[str, list[str]] = {}
    for result in report.results:
        cmap = getattr(result, "coverage", None)
        if cmap is None:
            continue
        scenario = result.scenario
        program, model = _materialize_context(
            WorkloadContext(
                scenario.program, scenario.target, scenario.setup
            )
        )
        wires = [bytes.fromhex(path.packet) for path in cmap.covered]
        missing = verify_coverage(program, model, wires, cmap)
        if missing:
            unexercised[scenario.key] = missing
    return unexercised


# ---------------------------------------------------------------------------
# CLI: the all-programs × all-targets sweep the CI smoke job runs
# ---------------------------------------------------------------------------

def main(argv: list[str] | None = None) -> int:
    from ..p4.stdlib import PROGRAMS
    from .campaign import TARGETS

    parser = argparse.ArgumentParser(
        prog="python -m repro.netdebug.coverage",
        description=(
            "Build covering packet sets for program × target cells and "
            "verify every feasible path is exercised."
        ),
    )
    parser.add_argument(
        "--programs", default="",
        help="comma-separated stdlib programs (default: all)",
    )
    parser.add_argument(
        "--targets", default="",
        help="comma-separated targets (default: all registered)",
    )
    parser.add_argument(
        "--setup", default="",
        help="provisioner applied to every cell (default: none)",
    )
    parser.add_argument("--seed", type=int, default=2018)
    parser.add_argument(
        "--out", default="",
        help="write the per-cell coverage maps as JSON here",
    )
    args = parser.parse_args(argv)

    programs = (
        [name for name in args.programs.split(",") if name]
        or sorted(PROGRAMS)
    )
    targets = (
        [name for name in args.targets.split(",") if name]
        or list(TARGETS)
    )
    maps: list[dict] = []
    failures = 0
    for program_name in programs:
        for target_name in targets:
            try:
                program, model = _materialize_context(
                    WorkloadContext(program_name, target_name, args.setup)
                )
            except (NetDebugError, SimulationError) as exc:
                print(f"error: {exc}", file=sys.stderr)
                return 2
            wires, cmap = covering_set(
                program, model, seed=args.seed, target=target_name
            )
            missing = verify_coverage(program, model, wires, cmap)
            summary = cmap.summary()
            status = (
                "OK" if not missing else f"UNEXERCISED={len(missing)}"
            )
            print(
                f"{program_name:<20} {target_name:<10} "
                f"paths={summary['feasible']:<4} "
                f"pruned={summary['pruned']:<4} "
                f"merged={summary['merged']:<4} {status}"
            )
            for signature in missing:
                print(f"    unexercised: {signature}")
            failures += len(missing)
            maps.append(
                {**cmap.to_dict(), "unexercised": missing}
            )
    if args.out:
        Path(args.out).write_text(
            json.dumps(maps, sort_keys=True, indent=2) + "\n"
        )
    total = sum(len(m["covered"]) for m in maps)
    print(
        f"{len(maps)} cells, {total} witness packets, "
        f"{failures} unexercised paths"
    )
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
