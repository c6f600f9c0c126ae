"""Scenario-matrix compression: representatives plus an equivalence map.

Campaign matrices grow multiplicatively (programs × targets × faults ×
workloads) but many cells are behaviorally equivalent: a fault aimed at
a stage the device doesn't have, a sibling target whose deviation model
never fires on this workload's packets. Following Control Plane
Compression (Beckett et al., SIGCOMM 2018), :func:`compress_matrix`
collapses the expanded matrix into one representative per behaviour
bucket plus an :class:`EquivalenceMap` recording exactly which pruned
cells each representative stands for and why — and the claim is
*machine-checked*, not heuristic: :func:`run_pruned_cell` re-runs any
pruned cell's configuration on its representative's identity-derived
traffic and :mod:`repro.netdebug.diffing`'s ``verify_equivalence``
byte-diffs the result against the representative's stored
:class:`~repro.netdebug.campaign.ScenarioResult` (modulo cell
identity).

The signature a bucket keys on is cheap and static — no scenario is
executed end-to-end to compress the matrix:

* **program / setup / workload / count / oracle** — the axes that pick
  traffic and prediction semantics. Workload is always a component:
  two workloads may drive identical path classes and still differ in
  wire bytes, so merging across them would be unsound.
* **reachable faults** — the cell's fault set with inert faults
  normalized away (a ``TABLE_STUCK_MISS`` on a table the program
  doesn't define, a stage fault on a stage the device doesn't have).
  Cells whose fault sets differ only by inert faults merge.
* **behaviour fingerprint** — every workload packet replayed through
  the coverage replay (:func:`repro.netdebug.coverage._replay`: a
  fresh :class:`~repro.p4.interpreter.Interpreter` and the path it
  records) twice, under the spec model and under the target's
  :class:`~repro.target.limits.DeviationModel`, recording path
  signature, egress port and output bytes. Two cells with identical
  fingerprints drive identical behaviour classes *and* identical
  observable deviations (the output-bytes flag is what separates a
  deparse-budget truncation from a path-identical pass-through).

Cells the static signature cannot soundly judge are **pinned** to
themselves (singleton buckets, recorded in ``pins`` with the reason):
register-bearing programs, stateful oracles, SLA-graded cells, timed
or directional or path-guided workloads, and timestamp-reading
programs — anywhere behaviour couples packets through state or time
that a fresh-state per-packet replay doesn't model.

``run_campaign(compress=True)`` executes representatives only and
re-expands the report: every pruned cell's result is synthesized from
its representative (identity rewritten, ``represented_by`` recorded),
so the re-expanded :class:`~repro.netdebug.campaign.CampaignReport`
has the full matrix shape and canonical bytes stay stable.
``compress=False`` (the default) is byte-identical to the
pre-compression engine.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import random
import sys
from dataclasses import dataclass, field as dc_field
from pathlib import Path

from ..bitutils import stable_hash64
from ..exceptions import NetDebugError
from ..p4.program import P4Program
from ..p4.stdlib import PROGRAMS
from ..sim.traffic import WorkloadContext, build_workload, default_flow
from ..target.faults import Fault, FaultKind
from ..target.limits import SPEC_MODEL, DeviationModel
from .campaign import (
    PROVISIONERS,
    TARGETS,
    Scenario,
    ScenarioMatrix,
    ScenarioResult,
    _run_shard,
    fault_to_dict,
    matrix_from_dict,
    matrix_to_dict,
)
from .coverage import _replay
from .report import CanonicalJsonReport, SessionReport

__all__ = [
    "EquivalenceEntry",
    "CompressedMatrix",
    "compress_matrix",
    "expand_results",
    "synthesize_result",
    "run_pruned_cell",
    "equivalence_view",
    "baseline_compression_matrix",
    "main",
]


# ---------------------------------------------------------------------------
# Static per-cell signatures
# ---------------------------------------------------------------------------

@dataclass
class _CellContext:
    """Compile-once facts about one (program, target, setup) triple."""

    program: P4Program
    compiled: object
    model: DeviationModel
    stages: frozenset[str]
    tables: frozenset[str]
    counters: frozenset[str]
    has_registers: bool
    reads_timestamp: bool


def _cell_context(program: str, target: str, setup: str) -> _CellContext:
    device = TARGETS[target](f"compress-{target}-{program}")
    compiled = device.load(PROGRAMS[program]())  # type: ignore[operator]
    if setup:
        PROVISIONERS[setup](device)
    prog = device.program
    return _CellContext(
        program=prog,
        compiled=compiled,
        model=compiled.model,
        stages=frozenset(device.stage_names()),
        tables=frozenset(prog.all_tables()),
        counters=frozenset(prog.counters),
        has_registers=bool(prog.registers),
        reads_timestamp=not compiled.kernel.timestamp_free,
    )


def _fault_reachable(fault: Fault, ctx: _CellContext) -> bool:
    """Whether ``fault`` can observably fire on this cell's device.

    :class:`~repro.target.faults.Fault` carries no validation — ghost
    faults (a stage the pipeline doesn't have, a table the program
    doesn't define) inject fine and change nothing. Normalizing them
    away is what merges the fault axis.
    """
    if fault.kind is FaultKind.TABLE_STUCK_MISS:
        return bool(fault.table) and fault.table in ctx.tables
    if fault.kind is FaultKind.COUNTER_FREEZE:
        return bool(fault.counter) and fault.counter in ctx.counters
    return fault.stage in ctx.stages


def _probe(
    program: P4Program, model: DeviationModel, wire: bytes
) -> tuple[str, int | None, str | None]:
    """(path signature, egress port, output hex) of one replay
    (:func:`~repro.netdebug.coverage._replay`)."""
    signature, result = _replay(program, model, wire)
    if result is None:
        return (signature, None, None)
    out = result.packet.pack().hex() if result.packet is not None else None
    return (signature, result.egress_port, out)


def _behavior_fingerprint(wires: list[bytes], ctx: _CellContext) -> str:
    """Per-packet spec-vs-target behaviour classes, in arrival order.

    The trailing ``=``/``!`` flag compares observable output (egress
    port + wire bytes) between the spec and target replays: path
    signatures alone miss deviations that keep the path but change the
    bytes (the tofino deparse budget truncating a header).
    """
    items = []
    for wire in wires:
        spec = _probe(ctx.program, SPEC_MODEL, wire)
        tgt = _probe(ctx.program, ctx.model, wire)
        flag = "=" if spec[1:] == tgt[1:] else "!"
        items.append(f"{spec[0]}>>{tgt[0]}>>{flag}")
    return "\n".join(items)


def _static_pin(scenario: Scenario, ctx: _CellContext) -> str | None:
    """Pin reasons decidable before any traffic is built."""
    if ctx.has_registers:
        return "register-bearing program"
    if scenario.oracle != "stateless":
        return f"stateful oracle {scenario.oracle!r}"
    if scenario.sla_p99_cycles is not None:
        return "sla-graded cell"
    if ctx.reads_timestamp:
        return "timestamp-reading program"
    return None


def _bundle_pin(bundle) -> str | None:
    """Pin reasons visible only on the built workload bundle."""
    if bundle.coverage is not None:
        return "path-guided workload"
    if bundle.times_ns is not None:
        return "timed workload"
    if bundle.ingress_ports is not None:
        return "directional workload"
    return None


def _digest(components: dict[str, str]) -> str:
    blob = json.dumps(components, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode()).hexdigest()[:16]


def _cell_signature(
    scenario: Scenario,
    faults: tuple[Fault, ...],
    ctx: _CellContext,
) -> tuple[dict[str, str], str | None]:
    """(signature components, pin reason) for one cell."""
    pin = _static_pin(scenario, ctx)
    bundle = None
    if pin is None:
        bundle = build_workload(
            scenario.workload,
            default_flow(stable_hash64(scenario.key) % 8),
            scenario.count,
            seed=scenario.seed,
            context=WorkloadContext(
                scenario.program,
                scenario.target,
                scenario.setup,
                compiled=ctx.compiled,
            ),
        )
        pin = _bundle_pin(bundle)
    if pin is not None:
        # Singleton bucket: the key itself is the signature, so the
        # cell can only ever represent itself.
        return {"pinned": scenario.key, "pin_reason": pin}, pin
    reachable = sorted(
        (
            json.dumps(
                fault_to_dict(f), sort_keys=True, separators=(",", ":")
            )
            for f in faults
            if _fault_reachable(f, ctx)
        ),
    )
    components = {
        "program": scenario.program,
        "setup": scenario.setup,
        "workload": scenario.workload,
        "count": str(scenario.count),
        "oracle": scenario.oracle,
        "faults": "[" + ",".join(reachable) + "]",
        "behavior": _behavior_fingerprint(
            list(bundle.frames), ctx
        ),
    }
    return components, None


# ---------------------------------------------------------------------------
# The compressed artifact
# ---------------------------------------------------------------------------

@dataclass
class EquivalenceEntry:
    """One bucket: a representative and the cells it stands for."""

    representative: str
    #: Pruned scenario keys, in matrix order (empty for singletons).
    represented: list[str] = dc_field(default_factory=list)
    #: The signature components that matched — the *why* of the merge.
    components: list[str] = dc_field(default_factory=list)
    digest: str = ""

    def to_dict(self) -> dict:
        return {
            "representative": self.representative,
            "represented": list(self.represented),
            "components": list(self.components),
            "digest": self.digest,
        }

    @classmethod
    def from_dict(cls, data: dict) -> "EquivalenceEntry":
        return cls(
            representative=data["representative"],
            represented=list(data["represented"]),
            components=list(data["components"]),
            digest=data.get("digest", ""),
        )


# The matrix codec lives with the matrix now
# (:func:`repro.netdebug.campaign.matrix_to_dict`); these aliases keep
# compression's historical internal names working.
_matrix_to_dict = matrix_to_dict
_matrix_from_dict = matrix_from_dict


def _matrix_digest(payload: dict) -> str:
    """Short content digest of a serialized matrix, for error messages."""
    blob = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode()).hexdigest()[:16]


@dataclass
class CompressedMatrix(CanonicalJsonReport):
    """A matrix, its bucketing, and the machine-checkable why.

    ``to_json`` is canonical (sorted keys, fixed separators), so
    ``baselines/compression.json`` pins the bucketing byte-for-byte:
    any change to signature semantics, fault normalization or pin
    guards shows up as a golden diff, never as a silent re-bucket.
    """

    name: str = "compression"
    matrix: ScenarioMatrix = dc_field(default_factory=ScenarioMatrix)
    #: scenario key -> signature digest (every expanded cell).
    signatures: dict[str, str] = dc_field(default_factory=dict)
    #: scenario key -> pin reason (cells forced into singletons).
    pins: dict[str, str] = dc_field(default_factory=dict)
    #: One entry per bucket, in representative matrix order.
    entries: list[EquivalenceEntry] = dc_field(default_factory=list)

    @property
    def expanded_cells(self) -> int:
        return len(self.signatures)

    @property
    def representative_keys(self) -> list[str]:
        return [entry.representative for entry in self.entries]

    @property
    def pruned_keys(self) -> list[str]:
        return [
            key for entry in self.entries for key in entry.represented
        ]

    @property
    def representative_for(self) -> dict[str, str]:
        """pruned key -> the representative that stands for it."""
        return {
            key: entry.representative
            for entry in self.entries
            for key in entry.represented
        }

    @property
    def ratio(self) -> float:
        """Executed cells over expanded cells (1.0 = no compression)."""
        if not self.signatures:
            return 1.0
        return len(self.entries) / len(self.signatures)

    def ensure_matches(self, matrix: ScenarioMatrix) -> None:
        """Refuse to apply this map to a matrix it wasn't built from.

        The error names both content digests and the first matrix axis
        that differs, so a stale map is diagnosable from the message
        alone (which of count/seed/faults/... drifted), not just
        detectable.
        """
        ours = matrix_to_dict(self.matrix)
        offered = matrix_to_dict(matrix)
        if ours == offered:
            return
        axis = next(
            key
            for key in (*ours, *(k for k in offered if k not in ours))
            if ours.get(key) != offered.get(key)
        )
        raise NetDebugError(
            f"compressed matrix {self.name!r} was built from a "
            "different scenario matrix: map digest "
            f"{_matrix_digest(ours)} vs offered matrix digest "
            f"{_matrix_digest(offered)}, first differing axis "
            f"{axis!r} ({ours.get(axis)!r} vs {offered.get(axis)!r}); "
            "recompress instead of reusing a stale equivalence map"
        )

    def to_dict(self) -> dict:
        return {
            "name": self.name,
            "matrix": _matrix_to_dict(self.matrix),
            "expanded": self.expanded_cells,
            "representatives": len(self.entries),
            "ratio": round(self.ratio, 6),
            "signatures": dict(self.signatures),
            "pins": dict(self.pins),
            "equivalence": [entry.to_dict() for entry in self.entries],
        }

    @classmethod
    def from_dict(cls, data: dict) -> "CompressedMatrix":
        return cls(
            name=data["name"],
            matrix=_matrix_from_dict(data["matrix"]),
            signatures=dict(data["signatures"]),
            pins=dict(data.get("pins", {})),
            entries=[
                EquivalenceEntry.from_dict(e) for e in data["equivalence"]
            ],
        )


def compress_matrix(
    matrix: ScenarioMatrix, name: str = "compression"
) -> CompressedMatrix:
    """Bucket ``matrix``'s cells by static behaviour signature.

    Deterministic: the same matrix always produces the same buckets
    and the same representatives (the first cell of each bucket in
    matrix expansion order — which keeps fault-free ``baseline`` cells
    representative wherever fault labels merge, since matrices
    conventionally list the baseline label first).
    """
    scenarios = matrix.expand()
    _matrix_to_dict(matrix)  # reject predicate-carrying fault sets
    contexts: dict[tuple[str, str, str], _CellContext] = {}
    signatures: dict[str, str] = {}
    pins: dict[str, str] = {}
    buckets: dict[str, EquivalenceEntry] = {}
    order: list[str] = []
    for scenario in scenarios:
        ckey = (scenario.program, scenario.target, scenario.setup)
        ctx = contexts.get(ckey)
        if ctx is None:
            ctx = contexts[ckey] = _cell_context(*ckey)
        components, pin = _cell_signature(
            scenario, matrix.faults[scenario.fault], ctx
        )
        digest = _digest(components)
        signatures[scenario.key] = digest
        if pin is not None:
            pins[scenario.key] = pin
        entry = buckets.get(digest)
        if entry is None:
            buckets[digest] = EquivalenceEntry(
                representative=scenario.key,
                components=sorted(components),
                digest=digest,
            )
            order.append(digest)
        else:
            entry.represented.append(scenario.key)
    return CompressedMatrix(
        name=name,
        matrix=matrix,
        signatures=signatures,
        pins=pins,
        entries=[buckets[digest] for digest in order],
    )


# ---------------------------------------------------------------------------
# Report re-expansion
# ---------------------------------------------------------------------------

def synthesize_result(
    rep: ScenarioResult, pruned: Scenario
) -> ScenarioResult:
    """The pruned cell's result, synthesized from its representative.

    A deep copy of the representative's session report with the cell
    identity rewritten: session name, device name, and the scenario
    key embedded in finding/check messages. Everything else — verdict,
    findings, latency, measurements — is the representative's, which
    is exactly the equivalence claim ``verify_equivalence`` audits.
    """
    payload = json.loads(json.dumps(rep.report.to_dict()))
    payload["session"] = f"campaign/{pruned.index:04d}/{pruned.key}"
    payload["device"] = f"{pruned.target}-{pruned.program}"
    rep_key = rep.scenario.key
    for finding in payload.get("findings", ()):
        finding["message"] = finding["message"].replace(
            rep_key, pruned.key
        )
    for check in payload.get("checks", ()):
        first = check.get("first_failure")
        if isinstance(first, str):
            check["first_failure"] = first.replace(rep_key, pruned.key)
    return ScenarioResult(
        scenario=pruned,
        report=SessionReport.from_dict(payload),
        represented_by=rep_key,
    )


def expand_results(
    compressed: CompressedMatrix,
    scenarios: list[Scenario],
    rep_results: list[ScenarioResult],
) -> list[ScenarioResult]:
    """Representative results -> the full matrix's result list."""
    by_key = {result.scenario.key: result for result in rep_results}
    rep_for = compressed.representative_for
    results = list(rep_results)
    for scenario in scenarios:
        if scenario.key in by_key:
            continue
        rep_key = rep_for.get(scenario.key)
        if rep_key is None or rep_key not in by_key:
            raise NetDebugError(
                f"compressed run is missing a result for "
                f"{scenario.key!r} (representative {rep_key!r}); the "
                "equivalence map does not cover this matrix"
            )
        results.append(synthesize_result(by_key[rep_key], scenario))
    return results


# ---------------------------------------------------------------------------
# The machine check
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class _TrafficPinnedScenario(Scenario):
    """A scenario whose traffic identity is pinned to another cell.

    ``key`` drives flow selection, seed-derived workload bytes and
    session labels inside the shard runner; overriding it replays the
    *representative's* exact traffic under the *pruned* cell's
    program/target/fault configuration — the hybrid run the
    equivalence audit needs.
    """

    pinned_key: str = ""

    @property
    def key(self) -> str:
        return self.pinned_key or Scenario.key.fget(self)  # type: ignore[attr-defined]


def run_pruned_cell(
    compressed: CompressedMatrix,
    pruned_key: str,
) -> ScenarioResult:
    """Genuinely execute one pruned cell on its representative's traffic.

    Runs the pruned cell's configuration (program, target, fault set,
    setup, oracle) against the representative's identity-derived
    traffic (workload, seed, flow, session labels), through the same
    shard runner campaigns use.
    """
    rep_for = compressed.representative_for
    rep_key = rep_for.get(pruned_key)
    if rep_key is None:
        raise NetDebugError(
            f"{pruned_key!r} is not a pruned cell of compressed matrix "
            f"{compressed.name!r}"
        )
    by_key = {s.key: s for s in compressed.matrix.expand()}
    pruned = by_key[pruned_key]
    rep = by_key[rep_key]
    hybrid = _TrafficPinnedScenario(
        index=rep.index,
        program=pruned.program,
        target=pruned.target,
        fault=pruned.fault,
        workload=rep.workload,
        count=rep.count,
        seed=rep.seed,
        setup=pruned.setup,
        sla_p99_cycles=pruned.sla_p99_cycles,
        oracle=pruned.oracle,
        pinned_key=rep_key,
    )
    return _run_shard((hybrid, compressed.matrix.faults[pruned.fault], False))


def equivalence_view(payload: dict, include_timing: bool = True) -> dict:
    """A ``ScenarioResult`` dict modulo cell identity.

    Drops the scenario block and provenance marker, blanks the session
    and device names; with ``include_timing=False`` (cross-target
    buckets) also
    drops clock-cycle measurements and latency samples — targets model
    different per-stage cycle costs, and the equivalence claim is
    functional, not temporal, across targets. Within one target timing
    is part of the claim.
    """
    view = json.loads(json.dumps(payload))
    view.pop("scenario", None)
    view.pop("represented_by", None)
    report = view["report"]
    report["session"] = ""
    report["device"] = ""
    if not include_timing:
        report["measurements"] = {
            key: value
            for key, value in report["measurements"].items()
            if key not in ("clock_cycles", "cycles_per_packet")
        }
        report["latency"] = {}
    return view


def _cell_target(key: str) -> str:
    return key.split("/")[1]


def audit_cell(
    compressed: CompressedMatrix,
    rep_result: ScenarioResult,
    pruned_key: str,
) -> str | None:
    """One equivalence check: re-run ``pruned_key``, byte-diff.

    Returns ``None`` when the hybrid run reproduces the
    representative's stored result under :func:`equivalence_view`, or
    a failure description when the equivalence claim is violated.
    """
    rep_key = rep_result.scenario.key
    hybrid = run_pruned_cell(compressed, pruned_key)
    include_timing = _cell_target(pruned_key) == _cell_target(rep_key)
    got = equivalence_view(hybrid.to_dict(), include_timing)
    want = equivalence_view(rep_result.to_dict(), include_timing)
    if got == want:
        return None
    fields = sorted(
        k
        for k in set(got) | set(want)
        if got.get(k) != want.get(k)
    )
    return (
        f"{pruned_key}: re-run differs from representative {rep_key} "
        f"in {', '.join(fields)}"
    )


# ---------------------------------------------------------------------------
# Seeded baseline + CLI
# ---------------------------------------------------------------------------

def baseline_compression_matrix() -> ScenarioMatrix:
    """The seeded matrix ``baselines/compression.json`` pins.

    A strict superset of the campaign baseline matrix (same programs,
    targets, seed, count, setup, plus ghost-fault labels and the imix
    workload): key-derived seeds keep the shared cells' traffic
    byte-identical, so the re-expanded compressed report diffs clean
    against ``baselines/campaign.json`` — shared cells compare equal,
    the extra cells surface as informational additions.
    """
    # Import here: diffing imports this module for verify_equivalence.
    from .diffing import (
        BASELINE_CAMPAIGN_COUNT,
        BASELINE_SEED,
    )

    return ScenarioMatrix(
        programs=["strict_parser", "acl_firewall"],
        targets=["reference", "sdnet", "tofino"],
        faults={
            "baseline": (),
            # Ghost faults: real fault objects aimed at structure no
            # stdlib device/program has — exactly the inert cells the
            # fault normalization should collapse into the baseline.
            "ghost_stage": (
                Fault(FaultKind.BLACKHOLE, stage="egress.9"),
            ),
            "ghost_table": (
                Fault(FaultKind.TABLE_STUCK_MISS, table="no_such_table"),
            ),
        },
        workloads=["udp", "malformed", "imix"],
        count=BASELINE_CAMPAIGN_COUNT,
        seed=BASELINE_SEED,
        setup="acl_gate",
    )


def _append_summary(path: Path, compressed: CompressedMatrix) -> None:
    lines = [
        "## Matrix compression",
        "",
        f"- expanded cells: {compressed.expanded_cells}",
        f"- representatives: {len(compressed.entries)}",
        f"- pruned: {len(compressed.pruned_keys)}",
        f"- pinned singletons: {len(compressed.pins)}",
        f"- compression ratio: {compressed.ratio:.3f}",
        "",
    ]
    with path.open("a") as handle:
        handle.write("\n".join(lines))


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.netdebug.compression",
        description=(
            "Compress the seeded baseline matrix, optionally run its "
            "representatives and audit the equivalence claim."
        ),
    )
    parser.add_argument(
        "--map",
        metavar="PATH",
        help="write the CompressedMatrix artifact to PATH",
    )
    parser.add_argument(
        "--run",
        action="store_true",
        help="execute representatives and re-expand the report",
    )
    parser.add_argument(
        "--out",
        metavar="PATH",
        help="write the re-expanded CampaignReport to PATH (with --run)",
    )
    parser.add_argument(
        "--workers", type=int, default=1, help="worker processes"
    )
    parser.add_argument(
        "--audit",
        type=int,
        default=0,
        metavar="N",
        help="verify N seeded-random pruned cells (with --run)",
    )
    parser.add_argument(
        "--audit-all",
        action="store_true",
        help="verify every pruned cell (with --run)",
    )
    parser.add_argument(
        "--audit-seed",
        type=int,
        default=0,
        help="seed for sampling audited cells (e.g. the CI run id)",
    )
    parser.add_argument(
        "--summary",
        metavar="PATH",
        help="append a markdown compression summary to PATH",
    )
    args = parser.parse_args(argv)
    if (args.audit or args.audit_all or args.out) and not args.run:
        parser.error("--audit/--audit-all/--out require --run")

    matrix = baseline_compression_matrix()
    compressed = compress_matrix(matrix)
    print(
        f"compressed {compressed.expanded_cells} cells -> "
        f"{len(compressed.entries)} representatives "
        f"(ratio {compressed.ratio:.3f}, {len(compressed.pins)} pinned)"
    )
    if args.map:
        compressed.save(args.map)
        print(f"equivalence map written to {args.map}")
    if args.summary:
        _append_summary(Path(args.summary), compressed)

    if not args.run:
        return 0

    # Deferred: run_campaign lazily imports this module.
    from .campaign import run_campaign

    report = run_campaign(
        matrix,
        workers=args.workers,
        compress=compressed,
    )
    print(report.summary())
    if args.out:
        report.save(args.out)
        print(f"re-expanded report written to {args.out}")

    pruned = compressed.pruned_keys
    if args.audit_all:
        audited = list(pruned)
    elif args.audit:
        rng = random.Random(args.audit_seed)
        audited = sorted(
            rng.sample(sorted(pruned), min(args.audit, len(pruned)))
        )
    else:
        audited = []
    if audited:
        by_key = {r.scenario.key: r for r in report.results}
        rep_for = compressed.representative_for
        failures = []
        for key in audited:
            failure = audit_cell(compressed, by_key[rep_for[key]], key)
            status = "FAIL" if failure else "ok"
            print(f"audit {key}: {status}")
            if failure:
                failures.append(failure)
        if failures:
            for failure in failures:
                print(failure, file=sys.stderr)
            return 1
        print(f"equivalence audit passed for {len(audited)} pruned cells")
    return 0


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
