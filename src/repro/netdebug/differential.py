"""Cross-backend differential testing: three targets, one spec oracle.

The paper's core claim is that only differential testing against a
specification oracle exposes *silent* toolchain deviations — the ones
that compile cleanly and pass every self-test. With three registered
backends (:data:`repro.netdebug.campaign.TARGETS`) deviating in three
different ways, this module makes that claim executable:

* :class:`~repro.p4.interpreter.Interpreter` — the **tree-walking**
  oracle, built with a backend's behavioural model
  (:class:`~repro.target.limits.DeviationModel`). Devices execute
  generated code, so the oracle is an independent implementation
  of the same semantics — a genuine differential counterpart, not a
  tautology.
* :func:`seeded_batch` — deterministic randomized packet batches
  (valid UDP with randomized five-tuples and sizes, plus the §4
  malformed mixes) keyed entirely by one seed.
* :class:`DifferentialRunner` — executes each batch through every
  target's device, diffs the observations against the spec oracle, and
  classifies every divergence: a diff is **explained** when the
  target's declared deviation tags (``silent_deviations`` on the
  compiled artifact) reproduce it — each tag through its
  single-deviation model (:meth:`DeviationModel.only
  <repro.target.limits.DeviationModel.only>`), with the artifact's full
  model predicting exactly the observed behaviour — and **unexplained**
  otherwise. An unexplained diff is a real bug: either an undeclared
  deviation or a datapath divergence.

The resulting :class:`DifferentialReport` serializes canonically
(:meth:`DifferentialReport.to_json`), so byte-identical re-runs for the
same seed are a testable property, and **losslessly**
(:meth:`DifferentialReport.from_json` rebuilds a report whose
``to_json`` is byte-identical to its source) — the contract the
cross-version campaign differ (:mod:`repro.netdebug.diffing`) and the
committed golden baselines depend on.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field as dc_field
from typing import Callable

from ..bitutils import stable_hash64

from ..exceptions import CompileError, NetDebugError
from .report import CanonicalJsonReport
from ..p4.interpreter import Interpreter, Verdict
from ..p4.program import P4Program
from ..p4.stdlib import PROGRAMS
from ..packet.builder import ethernet_frame, udp_packet
from ..sim.traffic import (
    FlowSpec,
    build_workload,
    default_flow,
    pad_to_size,
)
from ..target.compiler import CompiledProgram
from ..target.device import NetworkDevice
from ..target.limits import SPEC_MODEL

__all__ = [
    "seeded_batch",
    "seeded_bidir_batch",
    "Observation",
    "PacketDiff",
    "DifferentialCase",
    "DifferentialCell",
    "DifferentialReport",
    "DifferentialRunner",
    "diagnose_report",
]


@dataclass(frozen=True)
class Observation:
    """What one datapath did with one frame: verdict, egress, output bytes."""

    verdict: str
    egress: int | None = None
    wire: str | None = None  # hex, None unless forwarded

    @classmethod
    def from_result(cls, result) -> "Observation":
        """Project a pipeline/interpreter result onto the observable
        surface — the single definition of what 'observable' means, used
        for oracle predictions and device runs alike."""
        if result.verdict is Verdict.FORWARDED:
            return cls(
                verdict=result.verdict.value,
                egress=result.metadata.get("egress_spec"),
                wire=result.packet.pack().hex(),
            )
        return cls(verdict=result.verdict.value)

    def diff_kinds(self, other: "Observation") -> tuple[str, ...]:
        """Which observable dimensions differ from ``other``."""
        kinds = []
        if self.verdict != other.verdict:
            kinds.append("verdict")
        elif self.verdict == "forwarded":
            if self.egress != other.egress:
                kinds.append("egress")
            if self.wire != other.wire:
                kinds.append("wire")
        return tuple(kinds)

    def to_dict(self) -> dict:
        return {
            "verdict": self.verdict,
            "egress": self.egress,
            "wire": self.wire,
        }

    @classmethod
    def from_dict(cls, data: dict) -> "Observation":
        return cls(
            verdict=data["verdict"],
            egress=data.get("egress"),
            wire=data.get("wire"),
        )


def seeded_batch(
    flow: FlowSpec, count: int, seed: int, malformed_fraction: float = 0.3
) -> list[bytes]:
    """A deterministic randomized batch of wire frames.

    Valid frames are UDP with five-tuples randomized around ``flow``
    (destination ports jitter ±8 so range/TCAM boundary entries get
    probed on both sides) and frame sizes across the IMIX spread;
    roughly ``malformed_fraction`` of the batch is the §4 adversarial
    mix (wrong IP version, bad IHL, unknown EtherType). Everything
    derives from ``seed`` — the same seed always yields the same bytes.
    """
    rng = random.Random(seed)
    frames: list[bytes] = []
    for index in range(count):
        if rng.random() < malformed_fraction:
            kind = rng.randrange(3)
            packet = udp_packet(
                flow.dst_ip,
                flow.src_ip + rng.randrange(16),
                flow.dst_port,
                flow.src_port,
                payload=rng.randbytes(8),
                eth_dst=flow.eth_dst,
                eth_src=flow.eth_src,
            )
            if kind == 0:
                packet.get("ipv4")["version"] = rng.choice((0, 5, 6, 15))
            elif kind == 1:
                packet.get("ipv4")["ihl"] = rng.randrange(0, 5)
            else:
                packet = ethernet_frame(
                    flow.eth_dst,
                    flow.eth_src,
                    rng.choice((0xBEEF, 0x1234, 0x86DD)),
                    payload=rng.randbytes(46),
                )
        else:
            packet = udp_packet(
                flow.dst_ip + rng.randrange(8),
                flow.src_ip + rng.randrange(16),
                flow.dst_port + rng.randrange(-8, 9),
                flow.src_port + rng.randrange(8),
                payload=index.to_bytes(4, "big") + rng.randbytes(4),
                eth_dst=flow.eth_dst,
                eth_src=flow.eth_src,
            )
            packet = pad_to_size(
                packet, rng.choice((64, 128, 256, 570, 1024))
            )
        frames.append(packet.pack())
    return frames


def seeded_bidir_batch(
    flow: FlowSpec, count: int, seed: int
) -> list[tuple[bytes, int]]:
    """A deterministic bidirectional batch: ``(wire, ingress_port)``
    pairs of the ``tcp_bidir`` workload
    (:func:`repro.sim.traffic.bidirectional_flows`) — TCP-like
    exchanges with seeded loss and reordering, outbound on the inside
    port, inbound on the outside port. The directional counterpart of
    :func:`seeded_batch` for register-stateful cases."""
    bundle = build_workload("tcp_bidir", flow, count, seed=seed)
    return list(zip(bundle.frames, bundle.ingress_ports))


@dataclass(frozen=True)
class PacketDiff:
    """One frame on which a target's datapath diverged from the spec."""

    index: int
    kinds: tuple[str, ...]
    spec: Observation
    observed: Observation
    explained_by: tuple[str, ...]

    @property
    def explained(self) -> bool:
        return bool(self.explained_by)

    def to_dict(self) -> dict:
        return {
            "index": self.index,
            "kinds": list(self.kinds),
            "spec": self.spec.to_dict(),
            "observed": self.observed.to_dict(),
            "explained_by": list(self.explained_by),
        }

    @classmethod
    def from_dict(cls, data: dict) -> "PacketDiff":
        return cls(
            index=data["index"],
            kinds=tuple(data["kinds"]),
            spec=Observation.from_dict(data["spec"]),
            observed=Observation.from_dict(data["observed"]),
            explained_by=tuple(data.get("explained_by", ())),
        )


@dataclass(frozen=True)
class DifferentialCase:
    """One program to push through the target matrix.

    ``program`` is a stdlib name or a factory returning a fresh
    :class:`P4Program`; ``provision`` (optional) installs identical
    table entries on every target's device — differential testing needs
    identical *configuration* so any divergence is the toolchain's.
    """

    program: str | Callable[[], P4Program]
    provision: Callable[[NetworkDevice], None] | None = None
    label: str = ""
    #: Drive the cell with :func:`seeded_bidir_batch` (directional
    #: TCP-like exchanges) instead of :func:`seeded_batch` — the
    #: workload register-stateful programs need for their return path
    #: to be exercised at all.
    bidirectional: bool = False
    #: Drive the cell with its **covering packet set**
    #: (:func:`repro.netdebug.coverage.covering_set`) instead of a
    #: seeded random batch: one witness per feasible path under each
    #: target's own deviation model, so the cell's divergence findings
    #: come with a provable all-paths-exercised claim (recorded on
    #: :attr:`DifferentialCell.coverage`). ``count`` becomes an upper
    #: bound, not a batch size. Mutually exclusive with
    #: ``bidirectional``.
    coverage: bool = False

    def __post_init__(self) -> None:
        if self.coverage and self.bidirectional:
            raise NetDebugError(
                f"differential case {self.name!r}: coverage witness "
                "sets are unidirectional; drop one of "
                "coverage/bidirectional"
            )

    @property
    def name(self) -> str:
        if self.label:
            return self.label
        return self.program_name

    @property
    def program_name(self) -> str:
        """The underlying program's identity, independent of ``label``
        — what campaign scenarios carry, so cross-version diffing can
        match a labeled cell back to the campaign cells it explains."""
        if isinstance(self.program, str):
            return self.program
        return self.program.__name__

    def build(self) -> P4Program:
        if isinstance(self.program, str):
            from .campaign import require_known_program

            require_known_program(self.program, "differential case")
            return PROGRAMS[self.program]()  # type: ignore[operator]
        return self.program()


@dataclass
class DifferentialCell:
    """One (program × target) cell of the differential matrix.

    ``program`` is the case *name* (label-aware, unique per case);
    ``program_name`` is the underlying program's identity — empty means
    the two coincide. The campaign differ excuses verdict flips against
    ``program_name``, so a labeled case still explains the program's
    campaign cells.
    """

    program: str
    target: str
    packets: int = 0
    compile_rejected: str = ""  # loud CompileError text, if any
    program_name: str = ""
    deviation_tags: tuple[str, ...] = ()
    diffs: list[PacketDiff] = dc_field(default_factory=list)
    #: Frames where the artifact's own deviant model failed to predict
    #: the datapath — datapath bugs, never acceptable.
    model_mismatches: list[int] = dc_field(default_factory=list)
    #: Coverage accounting when the cell ran a covering set (see
    #: :attr:`DifferentialCase.coverage`): the map summary plus
    #: ``unexercised`` — feasible paths the injected set failed to
    #: exercise, which :attr:`consistent` treats as fatal.
    coverage: dict | None = None

    @property
    def unexplained(self) -> list[PacketDiff]:
        return [diff for diff in self.diffs if not diff.explained]

    @property
    def consistent(self) -> bool:
        """Every divergence explained, every prediction honored — and,
        for coverage-driven cells, every feasible path exercised."""
        return (
            not self.unexplained
            and not self.model_mismatches
            and not (self.coverage or {}).get("unexercised", 0)
        )

    def diffs_by_tag(self) -> dict[str, int]:
        counts: dict[str, int] = {}
        for diff in self.diffs:
            for tag in diff.explained_by:
                counts[tag] = counts.get(tag, 0) + 1
        return dict(sorted(counts.items()))

    def to_dict(self) -> dict:
        """Lossless dump: the full diff list travels, so
        :meth:`from_dict` reconstructs a cell whose own ``to_dict`` is
        identical — the derived fields (``diffs_by_tag``,
        ``unexplained``, ``consistent``) are recomputed, not stored
        authoritatively."""
        payload = {
            "program": self.program,
            "target": self.target,
            "packets": self.packets,
            "compile_rejected": self.compile_rejected,
            "program_name": self.program_name,
            "deviation_tags": list(self.deviation_tags),
            "diffs": [diff.to_dict() for diff in self.diffs],
            "diffs_by_tag": self.diffs_by_tag(),
            "unexplained": len(self.unexplained),
            "model_mismatches": list(self.model_mismatches),
            "consistent": self.consistent,
        }
        # Conditional emission: pre-coverage matrix baselines keep
        # round-tripping byte-identically.
        if self.coverage is not None:
            payload["coverage"] = dict(self.coverage)
        return payload

    @classmethod
    def from_dict(cls, data: dict) -> "DifferentialCell":
        return cls(
            program=data["program"],
            target=data["target"],
            packets=data.get("packets", 0),
            compile_rejected=data.get("compile_rejected", ""),
            program_name=data.get("program_name", ""),
            deviation_tags=tuple(data.get("deviation_tags", ())),
            diffs=[
                PacketDiff.from_dict(d) for d in data.get("diffs", [])
            ],
            model_mismatches=list(data.get("model_mismatches", [])),
            coverage=data.get("coverage"),
        )


@dataclass
class DifferentialReport(CanonicalJsonReport):
    """The full (program × target) differential matrix outcome.

    Serializes canonically and losslessly via
    :class:`~repro.netdebug.report.CanonicalJsonReport` — the
    seed-determinism contract and the golden-baseline round trip."""

    seed: int
    count: int
    cells: list[DifferentialCell] = dc_field(default_factory=list)

    @property
    def consistent(self) -> bool:
        return all(cell.consistent for cell in self.cells)

    def cell(self, program: str, target: str) -> DifferentialCell:
        for cell in self.cells:
            if cell.program == program and cell.target == target:
                return cell
        raise NetDebugError(
            f"no differential cell for ({program!r}, {target!r})"
        )

    def deviant_cells(self) -> list[DifferentialCell]:
        return [cell for cell in self.cells if cell.diffs]

    def to_dict(self) -> dict:
        return {
            "seed": self.seed,
            "count": self.count,
            "consistent": self.consistent,
            "cells": [cell.to_dict() for cell in self.cells],
        }

    @classmethod
    def from_dict(cls, data: dict) -> "DifferentialReport":
        return cls(
            seed=data["seed"],
            count=data["count"],
            cells=[
                DifferentialCell.from_dict(c)
                for c in data.get("cells", [])
            ],
        )

    def summary(self) -> str:
        lines = [
            f"Differential matrix (seed={self.seed}, {self.count} "
            f"packets/cell): "
            f"{'CONSISTENT' if self.consistent else 'INCONSISTENT'}"
        ]
        for cell in self.cells:
            if cell.compile_rejected:
                status = "compile-rejected (loud)"
            elif not cell.diffs:
                status = "spec-identical"
            else:
                tags = ", ".join(
                    f"{tag}×{n}" for tag, n in cell.diffs_by_tag().items()
                )
                status = f"{len(cell.diffs)} diffs [{tags}]"
                if not cell.consistent:
                    status += (
                        f" UNEXPLAINED={len(cell.unexplained)} "
                        f"model-mismatch={len(cell.model_mismatches)}"
                    )
            lines.append(f"  {cell.program:<16} {cell.target:<10} {status}")
        return "\n".join(lines)


class DifferentialRunner:
    """Run differential cases through a set of registered targets."""

    def __init__(
        self,
        cases,
        targets: tuple[str, ...] = ("reference", "sdnet", "tofino"),
        count: int = 64,
        seed: int = 0,
    ):
        self.cases = [
            case if isinstance(case, DifferentialCase)
            else DifferentialCase(case)
            for case in cases
        ]
        names = [case.name for case in self.cases]
        if len(set(names)) != len(names):
            # Name-derived seeds/flows make duplicate names literal
            # clones, and report.cell() could only ever surface the
            # first — reject at the source, like ScenarioMatrix does
            # for its axes.
            raise NetDebugError(
                f"differential cases carry duplicate names: {names}; "
                "give duplicate programs distinct labels"
            )
        self.targets = tuple(targets)
        # Same rigor as the case axis: duplicates clone cells the
        # report can never disambiguate, and an unknown target should
        # fail here, not mid-run after earlier columns completed.
        if len(set(self.targets)) != len(self.targets):
            raise NetDebugError(
                "differential targets carry duplicates: "
                f"{list(self.targets)}"
            )
        from .campaign import require_known_target

        for target in self.targets:
            require_known_target(target, "differential runner")
        self.count = count
        self.seed = seed

    def run(self) -> DifferentialReport:
        # Imported here: campaign imports nothing from this module, but
        # keeping the registry import local avoids any future cycle.
        from .campaign import TARGETS

        report = DifferentialReport(seed=self.seed, count=self.count)
        for case in self.cases:
            # Per-case seed AND flow derive from the case NAME, not its
            # list position: growing or reordering the case list leaves
            # existing cases' batches untouched, so cross-version matrix
            # diffs see added cells instead of every shared cell
            # churning. The flow index is bounded to 0..7 so flows stay
            # inside the provisioners' coverage (the 10.1.0.0/16 route,
            # the ±8 destination-port jitter that probes both range-gate
            # quantization witnesses). The base seed is mixed INTO the
            # hash (not shifted above it) so seeds stay within JSON's
            # interoperable 2^53 range.
            case_seed = stable_hash64(
                f"{self.seed}:{case.name}"
            ) % (1 << 53)
            if case.coverage:
                # Covering sets depend on each target's deviation
                # model AND provisioned entries — built per cell,
                # inside the target loop.
                pairs = None
            else:
                batch = (
                    seeded_bidir_batch
                    if case.bidirectional
                    else seeded_batch
                )
                frames = batch(
                    default_flow(stable_hash64(case.name) % 8),
                    self.count,
                    seed=case_seed,
                )
                # Normalize to (wire, ingress_port) pairs;
                # directionless batches keep the historical fixed
                # ingress, port 0.
                pairs = [
                    frame if isinstance(frame, tuple) else (frame, 0)
                    for frame in frames
                ]
            for target in self.targets:
                device = TARGETS[target](f"diff-{target}-{case.name}")
                cell = DifferentialCell(
                    program=case.name,
                    target=target,
                    program_name=(
                        case.program_name
                        if case.program_name != case.name else ""
                    ),
                )
                report.cells.append(cell)
                try:
                    compiled = device.load(case.build())
                except CompileError as exc:
                    # A loud rejection is the honest outcome for a
                    # program the target cannot build (e.g. RANGE keys
                    # on SDNet) — recorded, not a divergence.
                    cell.compile_rejected = str(exc).splitlines()[0]
                    continue
                if case.provision is not None:
                    case.provision(device)
                cell.deviation_tags = tuple(compiled.silent_deviations)
                cell_pairs = pairs
                if case.coverage:
                    cell_pairs = self._coverage_pairs(
                        cell, compiled, case_seed, target
                    )
                self._run_cell(cell, device, compiled, cell_pairs)
        return report

    def _coverage_pairs(
        self,
        cell: DifferentialCell,
        compiled: CompiledProgram,
        seed: int,
        target: str,
    ) -> list[tuple[bytes, int]]:
        """One cell's covering set: witnesses under the target's own
        deviation model and provisioned tables, with the coverage
        accounting (including the re-replayed ``unexercised`` check)
        recorded on the cell. ``count`` caps the set: exceeding it is
        a loud error, never a silent truncation of the claim."""
        from .coverage import covering_set, verify_coverage

        model = compiled.model
        wires, cmap = covering_set(
            compiled.program, model, seed=seed, target=target
        )
        if len(wires) > self.count:
            raise NetDebugError(
                f"differential cell {cell.program}/{cell.target}: "
                f"covering set needs {len(wires)} packets but the "
                f"runner's count is {self.count}; raise count instead "
                "of weakening the all-paths-exercised claim"
            )
        cell.coverage = {
            **cmap.summary(),
            "unexercised": len(
                verify_coverage(compiled.program, model, wires, cmap)
            ),
        }
        return [(wire, 0) for wire in wires]

    def _run_cell(
        self,
        cell: DifferentialCell,
        device: NetworkDevice,
        compiled: CompiledProgram,
        pairs: list[tuple[bytes, int]],
    ) -> None:
        # One oracle per DISTINCT behavioural model per cell — the spec,
        # the artifact's full model, and each single-tag model are often
        # the same model (deviation-free artifacts, single-tag backends)
        # and then share one oracle and one tree-walk per frame. Every
        # oracle observes EVERY frame: for stateful programs that keeps
        # each model's counters/registers evolving in lockstep with the
        # device, which sees the same frame sequence.
        full_model = compiled.model
        tag_models = {
            tag: full_model.only(tag) for tag in compiled.silent_deviations
        }
        oracles = {
            model: Interpreter(compiled.program, model=model)
            for model in dict.fromkeys(
                (SPEC_MODEL, full_model, *tag_models.values())
            )
        }
        for index, (wire, port) in enumerate(pairs):
            cell.packets += 1
            # Every oracle sees the same ingress port and injection
            # timestamp the device will: state threads identically.
            timestamp = device.clock_cycles
            predictions = {
                key: Observation.from_result(
                    oracle.process(
                        wire, ingress_port=port, timestamp=timestamp
                    )
                )
                for key, oracle in oracles.items()
            }
            spec = predictions[SPEC_MODEL]
            model = predictions[full_model]
            fired = {
                tag: predictions[only].diff_kinds(spec)
                for tag, only in tag_models.items()
            }
            run = device.inject(wire, port=port, timestamp=timestamp)
            observed = Observation.from_result(run.result)

            kinds = spec.diff_kinds(observed)
            if model.diff_kinds(observed):
                # The independent tree-walking model of this artifact's
                # declared deviations disagrees with the datapath: a
                # datapath bug, not an explainable deviation.
                cell.model_mismatches.append(index)
            if not kinds:
                continue
            # Attribute the diff to the deviations that reproduce a
            # divergence of the same kind on this frame; when the kinds
            # only emerge from the tags' interaction, fall back to every
            # tag that diverges at all (full-model match is enforced
            # separately via model_mismatches).
            explained = tuple(
                tag for tag, tag_kinds in fired.items()
                if set(tag_kinds) & set(kinds)
            )
            if not explained:
                explained = tuple(
                    tag for tag, tag_kinds in fired.items() if tag_kinds
                )
            cell.diffs.append(
                PacketDiff(
                    index=index,
                    kinds=kinds,
                    spec=spec,
                    observed=observed,
                    explained_by=explained,
                )
            )


def diagnose_report(report: DifferentialReport) -> list[str]:
    """Human-readable 'which backend deviates and why' lines.

    Cross-references each deviant cell's diff-producing tags with the
    deviation capability map (:mod:`repro.netdebug.localization`).
    """
    from .localization import DEVIATION_CAPABILITIES

    lines: list[str] = []
    for cell in report.deviant_cells():
        for tag, hits in cell.diffs_by_tag().items():
            stage, _, why = DEVIATION_CAPABILITIES.get(
                tag, ("unknown", (), f"unmapped deviation tag {tag!r}")
            )
            lines.append(
                f"{cell.program} on {cell.target}: {hits} packets diverge "
                f"at stage {stage!r} [{tag}] — {why}"
            )
    return lines
