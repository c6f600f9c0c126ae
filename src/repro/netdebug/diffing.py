"""Cross-version campaign diffing: the regression workflow at matrix scale.

The paper's single-session workflow catches one build deviating from one
spec; this module lifts it across *versions*. Two canonical
:class:`~repro.netdebug.campaign.CampaignReport` JSONs (and, optionally,
two :class:`~repro.netdebug.differential.DifferentialReport` matrix
JSONs) are compared scenario by scenario into a structured
:class:`CampaignDiff`:

* **verdict flips** — pass→fail and fail→pass per scenario key, each
  annotated with its finding-kind churn (which finding kinds appeared or
  disappeared, and how many);
* **matrix deltas** — per-cell ``diffs_by_tag`` count changes,
  deviation-tag declarations appearing/disappearing, unexplained-diff
  and model-mismatch growth from the differential harness;
* **latency shifts** — campaign-level cycles-per-packet distribution
  movement (mean/p50/p99) plus probe-sample counts;
* **disjoint handling** — scenarios or matrix cells present on only one
  side are *reported* as added/removed, never a crash.

The verdict that matters is :attr:`CampaignDiff.is_regression`: a flip
is **explained** only when the differential matrix shows the same
(program × target) cell *declared* a deviation-tag change between the
two versions — a vendor shipping a documented behavioural change. Any
other flip is unexplained and fatal, as is any growth in unexplained
differential diffs or model mismatches. Latency movement and
added/removed scenarios are informational.

The module is also the keeper of the repo's **golden baselines**: the
:data:`BASELINES` registry maps each kind to how its seeded artifact
is produced and the claim it must meet before it is saved. The
artifacts are committed as ``baselines/<kind>.json`` and regenerated
with ``python -m repro.netdebug.diffing --write-baseline``. CI
regenerates every registered kind, ``cmp``s it against the committed
file and diffs each report here; exit status 1 means an unexplained
flip slipped in.

CLI::

    python -m repro.netdebug.diffing old.json new.json \
        [--differential OLD_MATRIX NEW_MATRIX] \
        [--format text|json|markdown] [--out report.md]
    python -m repro.netdebug.diffing --write-baseline \
        [--dir baselines] [--only campaign] [--only compression] ...

Exit codes: 0 = no regression, 1 = regression, 2 = usage/load error.
"""

from __future__ import annotations

import argparse
import json
import sys
from dataclasses import dataclass, field as dc_field
from pathlib import Path
from typing import Callable, NamedTuple

from ..exceptions import NetDebugError
from .campaign import (
    CampaignReport,
    ScenarioMatrix,
    provision_acl_gate,
    run_campaign,
)
from .differential import (
    DifferentialCase,
    DifferentialReport,
    DifferentialRunner,
)

__all__ = [
    "BASELINE_SEED",
    "BASELINE_CAMPAIGN_COUNT",
    "BASELINE_DIFFERENTIAL_COUNT",
    "BASELINE_COVERAGE_COUNT",
    "baseline_matrix",
    "baseline_stateful_matrix",
    "baseline_coverage_matrix",
    "baseline_cases",
    "Baseline",
    "BASELINES",
    "write_baselines",
    "verify_equivalence",
    "ScenarioDelta",
    "CellDelta",
    "MatrixDiff",
    "CampaignDiff",
    "diff_campaigns",
    "diff_differentials",
    "inject_unexplained_flip",
    "load_report",
    "main",
]

#: The one seed every golden baseline derives from (the paper's year).
BASELINE_SEED = 2018
#: Packets per campaign scenario in the committed baseline.
BASELINE_CAMPAIGN_COUNT = 10
#: Packets per differential cell in the committed baseline.
BASELINE_DIFFERENTIAL_COUNT = 16
#: Upper bound on covering-set size per coverage scenario — an upper
#: bound, not a batch size: the covering set is exactly as large as the
#: program's feasible-path count under each target's deviation model.
BASELINE_COVERAGE_COUNT = 64


# ---------------------------------------------------------------------------
# Golden-baseline definitions (fixed seeded matrices)
# ---------------------------------------------------------------------------

def baseline_matrix(
    count: int = BASELINE_CAMPAIGN_COUNT, seed: int = BASELINE_SEED
) -> ScenarioMatrix:
    """The committed campaign baseline: the full three-way sweep.

    Both deviant backends are exercised on both workload classes, so the
    baseline pins every known verdict split — reference clean, sdnet
    failing the malformed reject-leak cells, tofino failing via deparse
    truncation and quantized-TCAM denial.
    """
    return ScenarioMatrix(
        programs=["strict_parser", "acl_firewall"],
        targets=["reference", "sdnet", "tofino"],
        faults={"baseline": ()},
        workloads=["udp", "malformed"],
        count=count,
        seed=seed,
        setup="acl_gate",
    )


def baseline_stateful_matrix(
    count: int = BASELINE_CAMPAIGN_COUNT, seed: int = BASELINE_SEED
) -> ScenarioMatrix:
    """The committed *stateful* campaign baseline.

    A separate matrix (and a separate golden file,
    ``baselines/stateful.json``) rather than extra axes on
    :func:`baseline_matrix`: the oracle is a matrix-wide knob, and the
    stateless sweep must keep predicting with fresh per-packet state.
    ``stateful_firewall`` under the ``tcp_bidir`` workload is the cell
    where the oracles *disagree* — return-path packets of opened flows
    are forwarded only when register state threads across the sequence
    — so its golden entries pin the session-scoped prediction on every
    target.
    """
    return ScenarioMatrix(
        programs=["stateful_firewall"],
        targets=["reference", "sdnet", "tofino"],
        faults={"baseline": ()},
        workloads=["tcp_bidir"],
        count=count,
        seed=seed,
        oracle="stateful",
    )


def baseline_coverage_matrix(
    count: int = BASELINE_COVERAGE_COUNT, seed: int = BASELINE_SEED
) -> ScenarioMatrix:
    """The committed *coverage* campaign baseline.

    The same program × target sweep as :func:`baseline_matrix`, driven
    by the ``coverage`` workload: one witness packet per feasible path
    under each target's own deviation model, with the per-scenario
    :class:`~repro.netdebug.coverage.CoverageMap` serialized into the
    golden file. Its entries pin three things at once — the enumerated
    path sets (tofino's quantized-TCAM pruning included), the exact
    witness bytes per seed, and the all-paths-exercised claim, which
    its :data:`BASELINES` check re-verifies before the file is written.
    """
    return ScenarioMatrix(
        programs=["strict_parser", "acl_firewall"],
        targets=["reference", "sdnet", "tofino"],
        faults={"baseline": ()},
        workloads=["coverage"],
        count=count,
        seed=seed,
        setup="acl_gate",
    )


def baseline_cases() -> list[DifferentialCase]:
    """The committed differential baseline: one witness per deviation
    mechanism, the all-targets-agree control, and the register-stateful
    control (``stateful_firewall`` driven by bidirectional flow traffic
    through session-scoped deviant oracles)."""
    return [
        DifferentialCase("strict_parser"),
        DifferentialCase("l2_switch"),
        DifferentialCase("acl_firewall", provision=provision_acl_gate),
        DifferentialCase("stateful_firewall", bidirectional=True),
    ]


def _check_coverage(report: CampaignReport) -> None:
    """The coverage golden's claim: every scenario's covering set,
    re-replayed against the target's deviation model
    (:func:`~repro.netdebug.coverage.verify_report_coverage`), leaves no
    feasible path unexercised."""
    from .coverage import verify_report_coverage

    unexercised = verify_report_coverage(report)
    if unexercised:
        listing = "; ".join(
            f"{key}: {', '.join(signatures)}"
            for key, signatures in sorted(unexercised.items())
        )
        raise NetDebugError(
            "coverage baseline failed its own all-paths-exercised "
            f"claim — unexercised feasible paths: {listing}"
        )


def _compression(workers: int):
    """Bucket :func:`repro.netdebug.compression.baseline_compression_matrix`
    (a superset of :func:`baseline_matrix`: same seed/count/setup, plus
    ghost-fault labels and the imix workload) without executing a cell,
    so ``workers`` is unused."""
    # Deferred: compression imports this module's baseline constants.
    from .compression import baseline_compression_matrix, compress_matrix

    return compress_matrix(baseline_compression_matrix())


class Baseline(NamedTuple):
    """One committed golden: how to produce its artifact for a worker
    count, and the claim check (if any) that must pass before it is
    saved."""

    produce: Callable[[int], object]
    check: Callable[[object], None] | None = None


def _campaign(matrix: Callable[[], ScenarioMatrix], name: str):
    return lambda workers: run_campaign(matrix(), workers=workers, name=name)


#: Every committed golden, in write order. Adding one is an entry here
#: plus its file ``baselines/<kind>.json``: the regeneration test and
#: the CI golden job both iterate over this registry or that directory.
BASELINES: dict[str, Baseline] = {
    "campaign": Baseline(_campaign(baseline_matrix, "baseline")),
    "stateful": Baseline(
        _campaign(baseline_stateful_matrix, "baseline-stateful")
    ),
    "coverage": Baseline(
        _campaign(baseline_coverage_matrix, "baseline-coverage"),
        check=_check_coverage,
    ),
    "differential": Baseline(
        lambda workers: DifferentialRunner(
            cases=baseline_cases(),
            count=BASELINE_DIFFERENTIAL_COUNT,
            seed=BASELINE_SEED,
        ).run()
    ),
    "compression": Baseline(_compression),
}


def write_baselines(
    directory: str | Path = "baselines",
    workers: int = 1,
    only: list[str] | None = None,
) -> dict[str, Path]:
    """Produce, check and save the :data:`BASELINES` into ``directory``.

    Used both to regenerate the committed golden files after an
    *intentional* behaviour change and, pointed at a scratch directory,
    to produce the fresh-build artifacts the CI golden job compares
    with them. ``only`` restricts generation to a subset of the kinds.
    """
    kinds = set(BASELINES) if only is None else set(only)
    unknown = sorted(kinds - set(BASELINES))
    if unknown:
        raise NetDebugError(
            f"unknown baseline kind {unknown[0]!r}; "
            f"choose from {', '.join(BASELINES)}"
        )
    directory = Path(directory)
    directory.mkdir(parents=True, exist_ok=True)
    paths: dict[str, Path] = {}
    for kind, baseline in BASELINES.items():
        if kind not in kinds:
            continue
        artifact = baseline.produce(workers)
        if baseline.check is not None:
            baseline.check(artifact)
        paths[kind] = artifact.save(directory / f"{kind}.json")
    return paths


# ---------------------------------------------------------------------------
# Diff structures
# ---------------------------------------------------------------------------

@dataclass
class ScenarioDelta:
    """One scenario whose outcome changed between the two versions."""

    key: str
    old_verdict: str
    new_verdict: str
    #: Finding-kind count deltas, new minus old; zero deltas omitted.
    kind_churn: dict[str, int] = dc_field(default_factory=dict)
    score_delta: float = 0.0
    #: Deviation tags whose declaration changed on this scenario's
    #: (program × target) cell — the only acceptable excuse for a flip.
    explained_by: tuple[str, ...] = ()
    #: When the *new* report is a re-expanded compressed run and this
    #: scenario was pruned: the representative whose result it carries.
    #: A delta here means the representative's behaviour changed (or
    #: the bucketing is wrong) — the cell to debug is the
    #: representative, so every rendering names it.
    represented_by: str | None = None

    @property
    def flipped(self) -> bool:
        return self.old_verdict != self.new_verdict

    @property
    def direction(self) -> str:
        return f"{self.old_verdict}->{self.new_verdict}"

    @property
    def explained(self) -> bool:
        return bool(self.explained_by)

    def to_dict(self) -> dict:
        payload = {
            "key": self.key,
            "old_verdict": self.old_verdict,
            "new_verdict": self.new_verdict,
            "flipped": self.flipped,
            "direction": self.direction,
            "kind_churn": dict(sorted(self.kind_churn.items())),
            "score_delta": round(self.score_delta, 6),
            "explained_by": list(self.explained_by),
            "explained": self.explained,
        }
        # Conditional: diffs of uncompressed reports keep their
        # pre-compression bytes.
        if self.represented_by is not None:
            payload["represented_by"] = self.represented_by
        return payload


@dataclass
class CellDelta:
    """One differential-matrix cell whose behaviour changed.

    ``program`` is the cell's case name; ``program_name`` (when set)
    is the underlying program identity a labeled case runs — what
    campaign flips are matched against.
    """

    program: str
    target: str
    program_name: str = ""
    old_tags: tuple[str, ...] = ()
    new_tags: tuple[str, ...] = ()
    #: tag -> [old_count, new_count] for tags whose explained-diff
    #: counts differ between the versions.
    tag_churn: dict[str, list[int]] = dc_field(default_factory=dict)
    unexplained_delta: int = 0
    model_mismatch_delta: int = 0
    #: Unexplained diffs present in the NEW cell whose identity
    #: (packet index + diff kinds) does not appear in the old cell —
    #: counts alone would let an equal-count identity swap (one bug
    #: fixed, a different one introduced) slip through the gate.
    new_unexplained: int = 0
    #: Same identity-aware accounting for model mismatches.
    new_model_mismatches: int = 0
    old_compile_rejected: str = ""
    new_compile_rejected: str = ""

    @property
    def key(self) -> str:
        return f"{self.program}/{self.target}"

    @property
    def tags_changed(self) -> bool:
        return set(self.old_tags) != set(self.new_tags)

    @property
    def regressed(self) -> bool:
        """Any NEW unexplained diff or model mismatch (by identity,
        not count), or a program that used to build now rejected —
        never excusable by declared tags."""
        return (
            self.new_unexplained > 0
            or self.new_model_mismatches > 0
            or bool(self.new_compile_rejected
                    and not self.old_compile_rejected)
        )

    @property
    def changed(self) -> bool:
        return (
            self.tags_changed
            or bool(self.tag_churn)
            or self.old_compile_rejected != self.new_compile_rejected
            or self.unexplained_delta != 0
            or self.model_mismatch_delta != 0
            or self.new_unexplained != 0
            or self.new_model_mismatches != 0
        )

    def to_dict(self) -> dict:
        return {
            "program": self.program,
            "target": self.target,
            "program_name": self.program_name,
            "old_tags": list(self.old_tags),
            "new_tags": list(self.new_tags),
            "tags_changed": self.tags_changed,
            "tag_churn": {
                tag: list(counts)
                for tag, counts in sorted(self.tag_churn.items())
            },
            "unexplained_delta": self.unexplained_delta,
            "model_mismatch_delta": self.model_mismatch_delta,
            "new_unexplained": self.new_unexplained,
            "new_model_mismatches": self.new_model_mismatches,
            "old_compile_rejected": self.old_compile_rejected,
            "new_compile_rejected": self.new_compile_rejected,
            "regressed": self.regressed,
        }


@dataclass
class MatrixDiff:
    """Cross-version delta of two differential-matrix reports."""

    cells: list[CellDelta] = dc_field(default_factory=list)
    added: list[str] = dc_field(default_factory=list)
    removed: list[str] = dc_field(default_factory=list)

    @property
    def regressed_cells(self) -> list[CellDelta]:
        return [cell for cell in self.cells if cell.regressed]

    @property
    def is_regression(self) -> bool:
        return bool(self.regressed_cells)

    def changed_tags(self) -> dict[tuple[str, str], tuple[str, ...]]:
        """(program, target) -> the deviation tags whose declaration
        changed — the lookup table campaign flips are excused against.
        Keyed on the cell's underlying *program name* (labeled cases
        carry it separately), since that is what campaign scenarios
        match on."""
        changed: dict[tuple[str, str], tuple[str, ...]] = {}
        for cell in self.cells:
            if not cell.tags_changed:
                continue
            key = (cell.program_name or cell.program, cell.target)
            changed[key] = tuple(
                sorted(
                    set(changed.get(key, ()))
                    | (set(cell.old_tags) ^ set(cell.new_tags))
                )
            )
        return changed

    def to_dict(self) -> dict:
        return {
            "cells": [cell.to_dict() for cell in self.cells],
            "added": list(self.added),
            "removed": list(self.removed),
            "regressed": len(self.regressed_cells),
            "is_regression": self.is_regression,
        }


def _md_cell(text: str) -> str:
    """Escape free-form text (e.g. compiler error lines) for embedding
    in a markdown table cell."""
    return text.replace("|", "\\|").replace("\n", " ")


def _scenario_churn_bits(delta: "ScenarioDelta") -> list[str]:
    """Why a scenario delta is listed — shared by text and markdown
    rendering so a cause can never be visible in one and not the other."""
    bits = [
        f"{kind}{count:+d}"
        for kind, count in sorted(delta.kind_churn.items())
    ]
    if abs(delta.score_delta) >= 1e-9:
        # A score-only delta must still show WHY it is listed.
        bits.append(f"score {delta.score_delta:+.3f}")
    return bits


def _scenario_provenance(delta: "ScenarioDelta") -> str:
    """Where to debug a delta on a synthesized cell — shared by text
    and markdown rendering: a flip in a pruned cell is really a flip
    in (or a bad bucketing with) its representative."""
    if delta.represented_by is None:
        return ""
    return f"pruned cell represented by {delta.represented_by}"


def _cell_change_bits(cell: "CellDelta") -> list[str]:
    """Every per-cell change cause except the tag declarations and the
    unexplained delta (rendered separately per format) — shared by text
    and markdown rendering."""
    bits = [
        f"{tag}: {before} -> {after}"
        for tag, (before, after) in sorted(cell.tag_churn.items())
    ]
    if cell.model_mismatch_delta:
        bits.append(f"model-mismatch {cell.model_mismatch_delta:+d}")
    if cell.new_unexplained:
        bits.append(f"new-unexplained {cell.new_unexplained}")
    if cell.new_model_mismatches:
        bits.append(f"new-model-mismatch {cell.new_model_mismatches}")
    if cell.old_compile_rejected != cell.new_compile_rejected:
        bits.append(
            f"compile: {cell.old_compile_rejected or 'ok'} -> "
            f"{cell.new_compile_rejected or 'ok'}"
        )
    return bits


@dataclass
class CampaignDiff:
    """Structured cross-version comparison of two campaign reports."""

    old_name: str
    new_name: str
    old_scenarios: int = 0
    new_scenarios: int = 0
    #: Scenario keys present on only one side (reported, never fatal).
    added: list[str] = dc_field(default_factory=list)
    removed: list[str] = dc_field(default_factory=list)
    #: Every shared scenario whose outcome changed (flips and churn).
    deltas: list[ScenarioDelta] = dc_field(default_factory=list)
    #: Campaign-level finding-kind count deltas (new minus old).
    kind_churn: dict[str, int] = dc_field(default_factory=dict)
    #: ``{"old": .., "new": .., "delta": ..}`` latency summaries.
    latency: dict[str, dict[str, float]] = dc_field(default_factory=dict)
    #: Present when two differential-matrix reports were supplied too.
    matrix: MatrixDiff | None = None

    @property
    def flips(self) -> list[ScenarioDelta]:
        return [delta for delta in self.deltas if delta.flipped]

    @property
    def unexplained_flips(self) -> list[ScenarioDelta]:
        return [flip for flip in self.flips if not flip.explained]

    @property
    def is_regression(self) -> bool:
        """Any unexplained verdict flip, or any differential-matrix
        regression (unexplained growth / model mismatch / lost build)."""
        if self.unexplained_flips:
            return True
        return self.matrix.is_regression if self.matrix else False

    # -- serialization ----------------------------------------------------

    def to_dict(self) -> dict:
        return {
            "old_name": self.old_name,
            "new_name": self.new_name,
            "scenarios": {
                "old": self.old_scenarios, "new": self.new_scenarios
            },
            "added": list(self.added),
            "removed": list(self.removed),
            "deltas": [delta.to_dict() for delta in self.deltas],
            "flips": len(self.flips),
            "unexplained_flips": len(self.unexplained_flips),
            "kind_churn": dict(sorted(self.kind_churn.items())),
            "latency": {
                side: {k: round(v, 6) for k, v in summary.items()}
                for side, summary in self.latency.items()
            },
            "matrix": self.matrix.to_dict() if self.matrix else None,
            "is_regression": self.is_regression,
        }

    def to_json(self) -> str:
        """Canonical byte-stable rendering: the same two inputs always
        produce the identical diff bytes (the CI gate's contract)."""
        return json.dumps(
            self.to_dict(), sort_keys=True, separators=(",", ":")
        )

    # -- rendering --------------------------------------------------------

    def _any_change(self) -> bool:
        """Anything at all to report — scenario deltas, set changes,
        matrix-cell deltas/additions/removals, or a latency shift."""
        return bool(
            self.deltas
            or self.added
            or self.removed
            or (
                self.matrix
                and (self.matrix.cells or self.matrix.added
                     or self.matrix.removed)
            )
            or self._latency_shifted()
        )

    def _latency_shifted(self) -> bool:
        return any(
            abs(value) >= 1e-9
            for value in self.latency.get("delta", {}).values()
        )

    def summary(self) -> str:
        """Human-readable diff, one section per changed dimension."""
        verdict = "REGRESSION" if self.is_regression else "no regression"
        lines = [
            f"Campaign diff: {self.old_name!r} "
            f"({self.old_scenarios} scenarios) -> {self.new_name!r} "
            f"({self.new_scenarios} scenarios)",
            f"  verdict: {verdict}",
        ]
        for label, keys in (("added", self.added),
                            ("removed", self.removed)):
            if keys:
                lines.append(f"  {label} scenarios: {', '.join(keys)}")
        for delta in self.deltas:
            churn = ", ".join(_scenario_churn_bits(delta))
            provenance = _scenario_provenance(delta)
            suffix = f"  [{provenance}]" if provenance else ""
            if delta.flipped:
                excuse = (
                    f"explained by declared tag change: "
                    f"{', '.join(delta.explained_by)}"
                    if delta.explained else "UNEXPLAINED"
                )
                lines.append(
                    f"  flip [{delta.direction}] {delta.key}"
                    f"{'  churn: ' + churn if churn else ''}  {excuse}"
                    f"{suffix}"
                )
            else:
                lines.append(
                    f"  churn [{delta.old_verdict}] {delta.key}  {churn}"
                    f"{suffix}"
                )
        if self.kind_churn:
            listing = ", ".join(
                f"{kind}{count:+d}"
                for kind, count in sorted(self.kind_churn.items())
            )
            lines.append(f"  finding-kind churn: {listing}")
        if self._latency_shifted():
            old, new = self.latency["old"], self.latency["new"]
            lines.append(
                "  latency cycles/pkt: "
                f"mean {old['cycles_per_packet_mean']:.1f} -> "
                f"{new['cycles_per_packet_mean']:.1f}, "
                f"p99 {old['cycles_per_packet_p99']:.1f} -> "
                f"{new['cycles_per_packet_p99']:.1f}"
            )
        if self.matrix:
            lines.append(
                f"  differential matrix: {len(self.matrix.cells)} changed "
                f"cells, {len(self.matrix.regressed_cells)} regressed"
                + (
                    f", added: {', '.join(self.matrix.added)}"
                    if self.matrix.added else ""
                )
                + (
                    f", removed: {', '.join(self.matrix.removed)}"
                    if self.matrix.removed else ""
                )
            )
            for cell in self.matrix.cells:
                bits = []
                if cell.tags_changed:
                    bits.append(
                        f"tags {sorted(cell.old_tags)} -> "
                        f"{sorted(cell.new_tags)}"
                    )
                bits.extend(_cell_change_bits(cell))
                if cell.unexplained_delta:
                    bits.append(
                        f"unexplained {cell.unexplained_delta:+d}"
                    )
                status = "REGRESSED" if cell.regressed else "explained"
                lines.append(
                    f"    {cell.key}: {'; '.join(bits)} [{status}]"
                )
        if not self._any_change():
            lines.append("  no behavioural changes")
        return "\n".join(lines)

    def to_markdown(self) -> str:
        """GitHub-flavoured report (CI job summaries and artifacts)."""
        ok = not self.is_regression
        lines = [
            f"# Campaign diff — `{self.old_name}` → `{self.new_name}`",
            "",
            f"**Verdict:** {'✅ no regression' if ok else '❌ REGRESSION'}"
            f" · {self.old_scenarios} → {self.new_scenarios} scenarios"
            f" · {len(self.flips)} flips"
            f" ({len(self.unexplained_flips)} unexplained)",
            "",
        ]
        if self.deltas:
            lines += [
                "## Scenario changes",
                "",
                "| scenario | old | new | finding churn | explanation |",
                "|---|---|---|---|---|",
            ]
            for delta in self.deltas:
                churn = ", ".join(_scenario_churn_bits(delta)) or "—"
                if not delta.flipped:
                    excuse = "no flip"
                elif delta.explained:
                    excuse = "tag change: " + ", ".join(delta.explained_by)
                else:
                    excuse = "**UNEXPLAINED**"
                if delta.represented_by is not None:
                    excuse += (
                        " · pruned cell represented by "
                        f"`{delta.represented_by}`"
                    )
                lines.append(
                    f"| `{delta.key}` | {delta.old_verdict} | "
                    f"{delta.new_verdict} | {churn} | {excuse} |"
                )
            lines.append("")
        if self.added or self.removed:
            lines += ["## Scenario-set changes", ""]
            for label, keys in (("Added", self.added),
                                ("Removed", self.removed)):
                if keys:
                    lines.append(
                        f"- {label}: "
                        + ", ".join(f"`{key}`" for key in keys)
                    )
            lines.append("")
        if self.kind_churn:
            lines += [
                "## Finding-kind churn",
                "",
                "| kind | Δ |",
                "|---|---|",
            ]
            for kind, count in sorted(self.kind_churn.items()):
                lines.append(f"| `{kind}` | {count:+d} |")
            lines.append("")
        if self._latency_shifted():
            old, new = self.latency["old"], self.latency["new"]
            lines += [
                "## Latency (cycles/packet)",
                "",
                "| metric | old | new | Δ |",
                "|---|---|---|---|",
            ]
            for metric in sorted(old):
                # probe_samples is a COUNT, not a cycles metric; it
                # gets its own line below instead of a table row.
                if not metric.startswith("cycles_per_packet_"):
                    continue
                delta = new.get(metric, 0.0) - old[metric]
                lines.append(
                    f"| {metric} | {old[metric]:.2f} | "
                    f"{new.get(metric, 0.0):.2f} | {delta:+.2f} |"
                )
            if old.get("probe_samples") != new.get("probe_samples"):
                lines.append(
                    f"\n- probe samples: "
                    f"{old.get('probe_samples', 0.0):.0f} → "
                    f"{new.get('probe_samples', 0.0):.0f}"
                )
            lines.append("")
        if self.matrix and (self.matrix.cells or self.matrix.added
                            or self.matrix.removed):
            lines += [
                "## Differential matrix",
                "",
                "| cell | tags | changes | unexplained Δ | status |",
                "|---|---|---|---|---|",
            ]
            for cell in self.matrix.cells:
                tags = (
                    f"{sorted(cell.old_tags)} → {sorted(cell.new_tags)}"
                    if cell.tags_changed
                    else ", ".join(sorted(cell.new_tags)) or "—"
                )
                # Every regression cause must be visible in this row —
                # the job summary is the primary CI surface.
                churn = _md_cell(
                    "; ".join(_cell_change_bits(cell)) or "—"
                )
                status = "**REGRESSED**" if cell.regressed else "explained"
                lines.append(
                    f"| `{cell.key}` | {tags} | {churn} | "
                    f"{cell.unexplained_delta:+d} | {status} |"
                )
            for label, keys in (("Added", self.matrix.added),
                                ("Removed", self.matrix.removed)):
                if keys:
                    lines.append(
                        f"- {label} cells: "
                        + ", ".join(f"`{key}`" for key in keys)
                    )
            lines.append("")
        if not self._any_change():
            lines.append("No behavioural changes.")
        return "\n".join(lines).rstrip() + "\n"


# ---------------------------------------------------------------------------
# The differs
# ---------------------------------------------------------------------------

def _finding_kinds(result) -> dict[str, int]:
    counts: dict[str, int] = {}
    for finding in result.report.findings:
        counts[finding.kind] = counts.get(finding.kind, 0) + 1
    return counts


def diff_differentials(
    old: DifferentialReport, new: DifferentialReport
) -> MatrixDiff:
    """Compare two differential-matrix reports cell by cell.

    Disjoint cell sets are reported as added/removed; shared cells
    contribute a :class:`CellDelta` only when something changed.
    """
    if old.count != new.count or old.seed != new.seed:
        raise NetDebugError(
            "differential reports are not comparable: "
            f"old ran seed={old.seed} count={old.count}, "
            f"new ran seed={new.seed} count={new.count}; "
            "re-run both sides with the same seeded configuration"
        )
    old_cells = {(c.program, c.target): c for c in old.cells}
    new_cells = {(c.program, c.target): c for c in new.cells}
    if len(old_cells) != len(old.cells) \
            or len(new_cells) != len(new.cells):
        # Mirrors the campaign-side duplicate-key rejection: a shadowed
        # duplicate cell could hide a regression behind its twin.
        raise NetDebugError(
            "differential report carries duplicate (program, target) "
            "cells; give duplicate cases distinct labels before diffing"
        )
    diff = MatrixDiff(
        added=sorted(
            f"{p}/{t}" for p, t in set(new_cells) - set(old_cells)
        ),
        removed=sorted(
            f"{p}/{t}" for p, t in set(old_cells) - set(new_cells)
        ),
    )
    for key in sorted(set(old_cells) & set(new_cells)):
        before, after = old_cells[key], new_cells[key]
        old_by_tag = before.diffs_by_tag()
        new_by_tag = after.diffs_by_tag()
        # Identity = the full observable fact (packet, diff kinds, what
        # the spec said, what the datapath did): an unexplained diff
        # whose *content* changes at the same index is a new bug too.
        old_unexplained = {
            (d.index, d.kinds, d.spec, d.observed)
            for d in before.unexplained
        }
        new_unexplained = {
            (d.index, d.kinds, d.spec, d.observed)
            for d in after.unexplained
        }
        delta = CellDelta(
            program=key[0],
            target=key[1],
            program_name=after.program_name or before.program_name,
            old_tags=tuple(before.deviation_tags),
            new_tags=tuple(after.deviation_tags),
            tag_churn={
                tag: [old_by_tag.get(tag, 0), new_by_tag.get(tag, 0)]
                for tag in sorted(set(old_by_tag) | set(new_by_tag))
                if old_by_tag.get(tag, 0) != new_by_tag.get(tag, 0)
            },
            unexplained_delta=(
                len(after.unexplained) - len(before.unexplained)
            ),
            model_mismatch_delta=(
                len(after.model_mismatches) - len(before.model_mismatches)
            ),
            new_unexplained=len(new_unexplained - old_unexplained),
            new_model_mismatches=len(
                set(after.model_mismatches)
                - set(before.model_mismatches)
            ),
            old_compile_rejected=before.compile_rejected,
            new_compile_rejected=after.compile_rejected,
        )
        if delta.changed:
            diff.cells.append(delta)
    return diff


def diff_campaigns(
    old: CampaignReport,
    new: CampaignReport,
    old_matrix: DifferentialReport | None = None,
    new_matrix: DifferentialReport | None = None,
) -> CampaignDiff:
    """Compare two campaign reports (plus optional differential matrices).

    Scenarios are matched on their stable key
    (``program/target/fault/workload``); a verdict flip on a shared key
    is excused only when the supplied differential matrices show a
    declared deviation-tag change on the same (program × target) cell.
    Without matrices, every flip is unexplained — the conservative
    default the CI gate wants.
    """
    matrix = (
        diff_differentials(old_matrix, new_matrix)
        if old_matrix is not None and new_matrix is not None
        else None
    )
    changed_tags = matrix.changed_tags() if matrix else {}

    old_by_key = {r.scenario.key: r for r in old.results}
    new_by_key = {r.scenario.key: r for r in new.results}
    if len(old_by_key) != len(old.results) \
            or len(new_by_key) != len(new.results):
        raise NetDebugError(
            "campaign report carries duplicate scenario keys; "
            "cross-version diffing needs key-unique matrices"
        )

    diff = CampaignDiff(
        old_name=old.name,
        new_name=new.name,
        old_scenarios=len(old.results),
        new_scenarios=len(new.results),
        added=sorted(set(new_by_key) - set(old_by_key)),
        removed=sorted(set(old_by_key) - set(new_by_key)),
        matrix=matrix,
    )

    total_churn: dict[str, int] = {}
    for key in sorted(set(old_by_key) & set(new_by_key)):
        before, after = old_by_key[key], new_by_key[key]
        if (before.scenario.count, before.scenario.seed,
                before.scenario.setup) != \
                (after.scenario.count, after.scenario.seed,
                 after.scenario.setup):
            # A verdict difference between a 4-packet and a 10-packet
            # run — or between differently provisioned devices — says
            # nothing about the build; refuse to fake one.
            raise NetDebugError(
                f"scenario {key!r} is not comparable across the two "
                f"reports: old ran count={before.scenario.count} "
                f"seed={before.scenario.seed} "
                f"setup={before.scenario.setup!r}, new ran "
                f"count={after.scenario.count} "
                f"seed={after.scenario.seed} "
                f"setup={after.scenario.setup!r}; re-run both sides "
                "with the same seeded matrix"
            )
        old_kinds = _finding_kinds(before)
        new_kinds = _finding_kinds(after)
        churn = {
            kind: new_kinds.get(kind, 0) - old_kinds.get(kind, 0)
            for kind in set(old_kinds) | set(new_kinds)
            if new_kinds.get(kind, 0) != old_kinds.get(kind, 0)
        }
        for kind, count in churn.items():
            total_churn[kind] = total_churn.get(kind, 0) + count
        score_delta = after.score - before.score
        if before.verdict == after.verdict and not churn \
                and abs(score_delta) < 1e-9:
            continue
        cell = (before.scenario.program, before.scenario.target)
        diff.deltas.append(
            ScenarioDelta(
                key=key,
                old_verdict=before.verdict,
                new_verdict=after.verdict,
                kind_churn=churn,
                score_delta=score_delta,
                explained_by=(
                    changed_tags.get(cell, ())
                    if before.verdict != after.verdict else ()
                ),
                # Either side being synthesized names the same
                # representative; prefer the new report's marker (the
                # build under test).
                represented_by=(
                    getattr(after, "represented_by", None)
                    or getattr(before, "represented_by", None)
                ),
            )
        )

    # Campaign-level churn sums the SHARED scenarios' deltas only —
    # findings that merely arrived with added scenarios (or left with
    # removed ones) belong to the added/removed listing, not here, so
    # pure matrix growth never reads as behavioural churn.
    diff.kind_churn = {
        kind: count for kind, count in total_churn.items() if count
    }
    old_latency = old.latency_summary()
    new_latency = new.latency_summary()
    diff.latency = {
        "old": old_latency,
        "new": new_latency,
        "delta": {
            metric: new_latency[metric] - old_latency[metric]
            for metric in old_latency
        },
    }
    return diff


def inject_unexplained_flip(
    payload: dict,
    kind: str = "unexpected_output",
    message: str = "injected deviation (gate drill)",
) -> dict:
    """Tamper a serialized campaign report so one passing scenario fails.

    The gate drill: appends one finding of ``kind`` to the first passing
    scenario, so the rebuilt report flips that verdict and the differ
    must report an unexplained pass→fail flip. The example, benchmark
    and tests all drill the gate through this one helper, keeping the
    tampered-finding shape in a single place. Mutates and returns
    ``payload``.
    """
    victim = next(
        (r for r in payload["results"] if r["verdict"] == "pass"), None
    )
    if victim is None:
        raise NetDebugError(
            "gate drill needs at least one passing scenario to tamper"
        )
    victim["report"]["findings"].append(
        {"kind": kind, "message": message, "stage": "", "stream_id": None}
    )
    return payload


def verify_equivalence(
    compressed,
    report: CampaignReport,
    keys: list[str] | None = None,
) -> list[str]:
    """Machine-check the compression claim on ``keys`` pruned cells.

    For each pruned cell: genuinely re-run its configuration (program,
    target, fault set, oracle) on its representative's identity-derived
    traffic (:func:`repro.netdebug.compression.run_pruned_cell`) and
    byte-diff the resulting :class:`ScenarioResult` against the
    representative's stored result in ``report``, modulo cell identity
    (and modulo timing for cross-target buckets — targets model
    different per-stage cycle costs). ``keys=None`` audits every pruned
    cell. Returns failure descriptions; an empty list is a pass.
    """
    from .compression import audit_cell

    rep_for = compressed.representative_for
    if keys is None:
        keys = list(compressed.pruned_keys)
    by_key = {result.scenario.key: result for result in report.results}
    failures = []
    for key in keys:
        rep_key = rep_for.get(key)
        if rep_key is None:
            failures.append(
                f"{key}: not a pruned cell of compressed matrix "
                f"{compressed.name!r}"
            )
            continue
        rep_result = by_key.get(rep_key)
        if rep_result is None:
            failures.append(
                f"{key}: representative {rep_key} has no result in "
                f"report {report.name!r}"
            )
            continue
        failure = audit_cell(compressed, rep_result, key)
        if failure is not None:
            failures.append(failure)
    return failures


def matrix_only_diff(
    old: DifferentialReport, new: DifferentialReport
) -> CampaignDiff:
    """Wrap a pure matrix-vs-matrix comparison in a CampaignDiff so the
    CLI has a single verdict/rendering path."""
    return CampaignDiff(
        old_name=f"differential seed={old.seed} count={old.count}",
        new_name=f"differential seed={new.seed} count={new.count}",
        matrix=diff_differentials(old, new),
    )


# ---------------------------------------------------------------------------
# CLI
# ---------------------------------------------------------------------------

def load_report(path: str | Path) -> CampaignReport | DifferentialReport:
    """Load a canonical report JSON, sniffing its flavour.

    Campaign reports carry ``results``; differential-matrix reports
    carry ``cells``. Anything else is rejected with the path named.
    """
    try:
        payload = json.loads(Path(path).read_text())
    except ValueError as exc:
        # Four files can be in flight on one gate invocation; the
        # operator needs to know WHICH one is truncated.
        raise NetDebugError(f"{path}: invalid JSON ({exc})") from exc
    if not isinstance(payload, dict):
        raise NetDebugError(f"{path}: not a report object")
    try:
        if "results" in payload:
            return CampaignReport.from_dict(payload)
        if "cells" in payload:
            return DifferentialReport.from_dict(payload)
    except (KeyError, TypeError, ValueError, AttributeError) as exc:
        # A truncated or hand-edited report must surface as a load
        # error (CLI exit 2), never as a traceback the CI gate would
        # misread as a regression verdict.
        raise NetDebugError(
            f"{path}: malformed report JSON ({exc!r})"
        ) from exc
    raise NetDebugError(
        f"{path}: neither a campaign report ('results') nor a "
        "differential-matrix report ('cells')"
    )


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.netdebug.diffing",
        description=(
            "Diff two canonical campaign (or differential-matrix) "
            "report JSONs and fail on unexplained verdict flips."
        ),
    )
    parser.add_argument("old", nargs="?",
                        help="baseline report JSON (campaign or matrix)")
    parser.add_argument("new", nargs="?",
                        help="candidate report JSON of the same flavour")
    parser.add_argument(
        "--differential", nargs=2, metavar=("OLD", "NEW"), default=None,
        help="differential-matrix JSON pair used to excuse campaign "
             "flips via declared deviation-tag changes",
    )
    parser.add_argument("--format", choices=("text", "json", "markdown"),
                        default="text")
    parser.add_argument("--out", default="",
                        help="also write the rendered diff here")
    parser.add_argument(
        "--write-baseline", action="store_true",
        help="regenerate the seeded golden baselines instead of diffing",
    )
    parser.add_argument("--dir", default=None,
                        help="baseline output directory "
                             "(--write-baseline only; default baselines)")
    parser.add_argument("--workers", type=int, default=None,
                        help="campaign worker processes "
                             "(--write-baseline only; default 1)")
    parser.add_argument(
        "--only", action="append", default=None,
        metavar="KIND",
        help="regenerate only this baseline (repeatable; "
             f"choices: {', '.join(BASELINES)}; "
             "--write-baseline only; default all)",
    )
    args = parser.parse_args(argv)

    if args.write_baseline:
        if args.old or args.new or args.differential or args.out \
                or args.format != "text":
            # A diff command with --write-baseline accidentally
            # appended would silently skip the regression check (and
            # could overwrite the committed golden files); refuse.
            print(
                "error: --write-baseline regenerates baselines and "
                "cannot be combined with diff arguments "
                "(reports, --differential, --format, --out)",
                file=sys.stderr,
            )
            return 2
        if args.dir == "":
            # An unset shell variable must not silently clobber the
            # committed golden directory.
            print("error: --dir must not be empty", file=sys.stderr)
            return 2
        if args.workers is not None and args.workers < 1:
            print("error: --workers must be >= 1", file=sys.stderr)
            return 2
        try:
            paths = write_baselines(
                args.dir if args.dir is not None else "baselines",
                workers=args.workers if args.workers is not None else 1,
                only=args.only,
            )
        except (OSError, NetDebugError) as exc:
            # An unwritable --dir is a usage error (exit 2), never a
            # fake regression verdict.
            print(f"error: {exc}", file=sys.stderr)
            return 2
        for label, path in paths.items():
            print(f"wrote {label} baseline: {path}")
        return 0

    if args.dir is not None or args.workers is not None \
            or args.only is not None:
        # The symmetric guard: --dir/--workers/--only only mean
        # something when regenerating; silently ignoring them would
        # mask a forgotten --write-baseline.
        print(
            "error: --dir/--workers/--only only apply with "
            "--write-baseline",
            file=sys.stderr,
        )
        return 2

    if not args.old or not args.new:
        parser.print_usage(sys.stderr)
        print(
            "error: old and new report paths are required "
            "(or pass --write-baseline)",
            file=sys.stderr,
        )
        return 2

    try:
        old = load_report(args.old)
        new = load_report(args.new)
        if type(old) is not type(new):
            raise NetDebugError(
                "cannot diff a campaign report against a "
                "differential-matrix report"
            )
        if isinstance(old, DifferentialReport):
            if args.differential:
                raise NetDebugError(
                    "--differential only applies when the positional "
                    "reports are campaign JSONs"
                )
            diff = matrix_only_diff(old, new)
        else:
            old_matrix = new_matrix = None
            if args.differential:
                old_matrix = load_report(args.differential[0])
                new_matrix = load_report(args.differential[1])
                if not isinstance(old_matrix, DifferentialReport) \
                        or not isinstance(new_matrix, DifferentialReport):
                    raise NetDebugError(
                        "--differential arguments must be "
                        "differential-matrix JSONs"
                    )
            diff = diff_campaigns(old, new, old_matrix, new_matrix)
    except (OSError, ValueError, NetDebugError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2

    rendered = {
        "text": diff.summary,
        "json": diff.to_json,
        "markdown": diff.to_markdown,
    }[args.format]().rstrip("\n")
    if args.out:
        try:
            Path(args.out).write_text(rendered + "\n")
        except OSError as exc:
            # An unwritable --out is a usage error (exit 2), never a
            # fake regression verdict; the diff still goes to stdout.
            print(rendered)
            print(
                f"error: cannot write --out {args.out}: {exc}",
                file=sys.stderr,
            )
            return 2
    print(rendered)
    return 1 if diff.is_regression else 0


if __name__ == "__main__":
    sys.exit(main())
