"""Parallel validation campaigns: swept scenario matrices over workers.

The paper's workflow is running *many* validation sessions against live
targets to flush out data-plane bugs like the missing parser ``reject``
state. A :class:`ScenarioMatrix` declares that workflow as data — the
cross product of stdlib programs, targets
(``reference``/``sdnet``/``tofino``), injected hardware fault sets
(:mod:`repro.target.faults`) and named
workloads (:data:`repro.sim.traffic.WORKLOADS`) — and
:func:`run_campaign` expands it into independent
:class:`~repro.netdebug.session.ValidationSession` shards executed
across a :mod:`multiprocessing` worker pool.

Three properties the engine guarantees:

* **Compile once per process.** Each process keeps compiled artifacts
  (batch kernel included) keyed by their content fingerprint for its
  lifetime, across campaigns, and stamps out a fresh
  :class:`~repro.target.device.NetworkDevice`
  (fresh runtime state, stats, clock, fault set) per shard via
  :meth:`~repro.target.device.NetworkDevice.install`.
* **Determinism.** Every shard derives all randomness from the matrix
  seed and the scenario index, and results are ordered by scenario
  index — the same matrix produces a byte-identical
  :class:`CampaignReport` (:meth:`CampaignReport.to_json`) whether run
  serially or on N workers.
* **Record/replay.** A campaign can be frozen to the existing
  regression-artifact format — one
  :class:`~repro.netdebug.regression.RegressionSuite` (pcap +
  expectation JSON) per scenario plus a manifest — and replayed later
  on any build with :func:`replay_campaign`.
"""

from __future__ import annotations

import json
import math
import multiprocessing
import statistics
from collections import OrderedDict
from dataclasses import dataclass, field as dc_field
from pathlib import Path
from typing import Callable

from ..bitutils import stable_hash64
from ..exceptions import NetDebugError, UnknownTargetError
from ..p4.stdlib import PROGRAMS
from ..packet.headers import mac
from ..sim.traffic import (
    WORKLOADS,
    WorkloadContext,
    build_workload,
    default_flow,
)
from ..target import artifact_cache
from ..target.compiler import CompiledProgram
from ..target.device import NetworkDevice
from ..target.faults import Fault, FaultKind
from ..target.pipeline import PacketSnapshot
from ..target.reference import make_reference_device
from ..target.sdnet import make_sdnet_device
from ..target.tofino import make_tofino_device
from .checker import CheckRule, ExpectedOutput, LatencyCheck
from .generator import StreamSpec
from .regression import RegressionSuite
from .report import (
    Capability,
    CanonicalJsonReport,
    CheckOutcome,
    Finding,
    LatencyStats,
    SessionReport,
)
from .oracle import (
    ORACLES,
    build_oracle,
    require_known_oracle,
)
from .session import ValidationSession, run_session

__all__ = [
    "TARGETS",
    "PROVISIONERS",
    "require_known_target",
    "require_known_program",
    "scenario_key",
    "scenario_to_dict",
    "scenario_from_dict",
    "fault_to_dict",
    "fault_from_dict",
    "matrix_to_dict",
    "matrix_from_dict",
    "provision_acl_gate",
    "provision_stateful_firewall",
    "provision_int_telemetry",
    "Scenario",
    "ScenarioMatrix",
    "ScenarioResult",
    "CampaignProgress",
    "CampaignReport",
    "ShardExecutor",
    "SerialExecutor",
    "PoolExecutor",
    "assemble_report",
    "run_campaign",
    "record_campaign",
    "replay_campaign",
]

#: Device factories a matrix may name in ``targets``.
TARGETS: dict[str, Callable[[str], NetworkDevice]] = {
    "reference": make_reference_device,
    "sdnet": make_sdnet_device,
    "tofino": make_tofino_device,
}


def require_known_target(target: str, where: str) -> None:
    """Raise :class:`UnknownTargetError` unless ``target`` is registered.

    The single choke point for every ``TARGETS``-unknown error path
    (matrix validation, manifest replay): one exception type, and the
    message always carries the registered-target list.
    """
    if target not in TARGETS:
        known = ", ".join(sorted(TARGETS))
        raise UnknownTargetError(
            f"{where} references unknown target {target!r}; "
            f"known targets: {known}"
        )


def require_known_program(program: str, where: str) -> None:
    """Raise :class:`NetDebugError` unless ``program`` is in the stdlib.

    The program-axis counterpart of :func:`require_known_target`, shared
    by matrix validation, manifest replay and the differential runner.
    """
    if program not in PROGRAMS:
        known = ", ".join(sorted(PROGRAMS))
        raise NetDebugError(
            f"{where} references unknown program {program!r}; "
            f"stdlib offers: {known}"
        )

def scenario_key(
    program: str, target: str, fault: str, workload: str
) -> str:
    """The stable scenario identity — the ONE definition shared by
    :attr:`Scenario.key`, seed derivation and the cross-version differ,
    so they cannot drift apart (a drift would silently shift every
    scenario seed and break the committed golden baselines)."""
    return f"{program}/{target}/{fault}/{workload}"


def provision_acl_gate(device: NetworkDevice) -> None:
    """Built-in ``acl_firewall`` setup for 3-way differential sweeps.

    Forwards the campaign workloads' destination MAC out port 2 and
    installs one ternary ACL deny whose mask (``0x00FF`` over the L4
    destination port) has no leading care-bit run. Spec semantics deny
    almost nothing; a TCAM that quantizes masks to power-of-two
    boundaries (:mod:`repro.target.tofino`) degrades the mask to
    match-anything and silently denies *all* IPv4 traffic — which is
    exactly the deviation a (program × target) sweep should surface.

    Program-aware so mixed-program matrices can name it as ``setup``:
    devices running anything but ``acl_firewall`` are left untouched.
    """
    if device.program.name != "acl_firewall":
        return
    control = device.control_plane
    control.table_add("fwd", "forward", [mac("02:00:00:00:00:02")], [2])
    control.table_add(
        "acl",
        "deny",
        [(0, 0), (0, 0), (0, 0), (0, 0), (0x00FF, 0x00FF)],
        [],
        priority=10,
    )


def provision_stateful_firewall(device: NetworkDevice) -> None:
    """Campaign setup for ``stateful_firewall`` sweeps.

    Deliberately installs nothing, for every program: the firewall's
    flow table lives entirely in data-plane registers, and register
    state is *per device* (reset by every
    :meth:`NetworkDevice.install`) while provisioners run once per
    cached artifact — so pre-opening flow slots here would apply to
    the first shard's device only and break the engine's shard-order
    independence. Campaign traffic enters on the inside port and opens
    its own slots in-band. The entry exists so mixed stdlib_ext
    matrices can name a validated ``setup``.
    """


def provision_int_telemetry(device: NetworkDevice) -> None:
    """Campaign setup for ``int_telemetry`` sweeps.

    The telemetry program is table-free (fixed collector port, INT
    stamp in egress), so there is no control-plane state to install;
    like :func:`provision_stateful_firewall` this is a documented
    registry entry, not a behaviour hook.
    """


#: Named control-plane provisioners (table entries etc.), applied ONCE
#: per cached artifact — entries land on the shared program object, so
#: provisioning must be install-once/read-many. Register module-level
#: callables only (workers must be able to pickle scenario references
#: to them by name).
PROVISIONERS: dict[str, Callable[[NetworkDevice], None]] = {
    "acl_gate": provision_acl_gate,
    "stateful_firewall": provision_stateful_firewall,
    "int_telemetry": provision_int_telemetry,
}


# ---------------------------------------------------------------------------
# Scenario matrix
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Scenario:
    """One fully-resolved cell of the campaign matrix."""

    index: int
    program: str
    target: str
    fault: str
    workload: str
    count: int
    seed: int
    setup: str = ""
    #: Optional tail-latency SLA: the cell fails (``sla_breach``) when
    #: the p99 of its per-packet pipeline latency exceeds this many
    #: device-clock cycles.
    sla_p99_cycles: float | None = None
    #: Which named oracle predicts this cell's expectations
    #: (:data:`repro.netdebug.oracle.ORACLES`): ``"stateless"`` is the
    #: historical fresh-state-per-packet prediction; ``"stateful"``
    #: threads register state across the cell's packet sequence in
    #: arrival order. Not part of :attr:`key` (and therefore not of the
    #: seed derivation): the oracle changes what is *predicted*, never
    #: what traffic is generated.
    oracle: str = "stateless"

    @property
    def key(self) -> str:
        """Stable human-readable scenario identity."""
        return scenario_key(
            self.program, self.target, self.fault, self.workload
        )


def scenario_to_dict(scenario: Scenario) -> dict:
    """One resolved scenario cell as JSON data (exact inverse:
    :func:`scenario_from_dict`).

    This is the ONE scenario serialization: the shape embedded in
    :meth:`ScenarioResult.to_dict` (and therefore pinned byte-for-byte
    by the golden baselines) and the shape a service job frame carries.
    ``sla_p99_cycles`` and ``oracle`` are emitted only when set so
    pre-SLA / pre-oracle baselines keep round-tripping byte-identically.
    """
    payload = {
        "index": scenario.index,
        "program": scenario.program,
        "target": scenario.target,
        "fault": scenario.fault,
        "workload": scenario.workload,
        "count": scenario.count,
        "seed": scenario.seed,
        "setup": scenario.setup,
    }
    if scenario.sla_p99_cycles is not None:
        payload["sla_p99_cycles"] = scenario.sla_p99_cycles
    if scenario.oracle != "stateless":
        payload["oracle"] = scenario.oracle
    return payload


def scenario_from_dict(data: dict) -> Scenario:
    return Scenario(
        index=data["index"],
        program=data["program"],
        target=data["target"],
        fault=data["fault"],
        workload=data["workload"],
        count=data["count"],
        seed=data["seed"],
        setup=data.get("setup", ""),
        sla_p99_cycles=data.get("sla_p99_cycles"),
        oracle=data.get("oracle", "stateless"),
    )


@dataclass
class ScenarioMatrix:
    """A declarative (program × target × fault × workload) sweep.

    ``faults`` maps a scenario label to the fault set injected for it
    (``()`` for a fault-free baseline); fault predicates must be
    picklable (module-level functions or ``None``) for worker pools.
    ``count`` is packets per scenario; every scenario derives its own
    seed from ``seed`` and its *key* (not its matrix position), so
    workloads differ across cells but are reproducible — and stay
    identical for a given scenario when the matrix grows, which is what
    lets the cross-version differ report added/removed scenarios
    instead of seeing every seed shift.
    """

    programs: list[str] = dc_field(default_factory=lambda: ["strict_parser"])
    targets: list[str] = dc_field(default_factory=lambda: ["reference"])
    faults: dict[str, tuple[Fault, ...]] = dc_field(
        default_factory=lambda: {"baseline": ()}
    )
    workloads: list[str] = dc_field(default_factory=lambda: ["udp"])
    count: int = 32
    seed: int = 0
    setup: str = ""
    #: Optional tail-latency SLA applied to every cell (p99 pipeline
    #: latency bound in device-clock cycles); ``None`` keeps campaign
    #: verdicts purely functional.
    sla_p99_cycles: float | None = None
    #: Named oracle applied to every cell (see :attr:`Scenario.oracle`).
    oracle: str = "stateless"

    def validate(self) -> None:
        if not self.programs or not self.targets or not self.workloads \
                or not self.faults:
            raise NetDebugError(
                "scenario matrix needs at least one program, target, "
                "fault set and workload"
            )
        if self.count <= 0:
            raise NetDebugError("scenario matrix count must be positive")
        for axis, values in (
            ("programs", self.programs),
            ("targets", self.targets),
            ("workloads", self.workloads),
        ):
            if len(set(values)) != len(values):
                # Key-derived seeds make duplicates byte-identical
                # scenarios with colliding keys; reject at the matrix,
                # not downstream in the differ.
                raise NetDebugError(
                    f"scenario matrix {axis} contains duplicates: "
                    f"{values}"
                )
        for program in self.programs:
            require_known_program(program, "scenario matrix")
        for target in self.targets:
            require_known_target(target, "scenario matrix")
        for workload in self.workloads:
            if workload not in WORKLOADS:
                known = ", ".join(sorted(WORKLOADS))
                raise NetDebugError(
                    f"unknown workload {workload!r}; registry offers: "
                    f"{known}"
                )
        if self.setup and self.setup not in PROVISIONERS:
            raise NetDebugError(
                f"unknown setup provisioner {self.setup!r}"
            )
        require_known_oracle(self.oracle, "scenario matrix")
        if self.sla_p99_cycles is not None and (
            not math.isfinite(self.sla_p99_cycles)
            or self.sla_p99_cycles <= 0
        ):
            raise NetDebugError(
                "sla_p99_cycles must be a positive finite cycle bound, "
                f"got {self.sla_p99_cycles!r}"
            )

    def expand(self) -> list[Scenario]:
        """The full cross product, in deterministic matrix order."""
        self.validate()
        scenarios: list[Scenario] = []
        index = 0
        for program in self.programs:
            for target in self.targets:
                for fault_label in self.faults:
                    for workload in self.workloads:
                        key = scenario_key(
                            program, target, fault_label, workload
                        )
                        scenarios.append(
                            Scenario(
                                index=index,
                                program=program,
                                target=target,
                                fault=fault_label,
                                workload=workload,
                                count=self.count,
                                # Mixing the base seed INTO the hash
                                # (rather than shifting it above)
                                # keeps every serialized seed within
                                # JSON's interoperable 2^53 range, so
                                # double-based tooling cannot silently
                                # corrupt a baseline.
                                seed=stable_hash64(
                                    f"{self.seed}:{key}"
                                ) % (1 << 53),
                                setup=self.setup,
                                sla_p99_cycles=self.sla_p99_cycles,
                                oracle=self.oracle,
                            )
                        )
                        index += 1
        return scenarios


# ---------------------------------------------------------------------------
# Shard execution (runs inside pool workers)
# ---------------------------------------------------------------------------

class _ArtifactLRU:
    """A fixed-capacity map of compiled artifacts, least recently used
    evicted first."""

    def __init__(self, capacity: int) -> None:
        self.capacity = capacity
        self._entries: OrderedDict = OrderedDict()

    def __len__(self) -> int:
        return len(self._entries)

    def get(self, key) -> CompiledProgram | None:
        compiled = self._entries.get(key)
        if compiled is not None:
            self._entries.move_to_end(key)
        return compiled

    def put(self, key, compiled: CompiledProgram) -> None:
        self._entries[key] = compiled
        self._entries.move_to_end(key)
        while len(self._entries) > self.capacity:
            self._entries.popitem(last=False)

    def discard(self, key) -> None:
        self._entries.pop(key, None)

    def clear(self) -> None:
        self._entries.clear()


#: The in-process artifact tier, keyed by content fingerprint
#: (:func:`repro.target.artifact_cache.fingerprint`: pre-provision IR,
#: deviation model, setup label, cache version) and kept for the
#: process lifetime. Equal keys mean equal provisioned artifacts, so
#: campaigns, service workers interleaving campaigns and fork-started
#: pool workers that inherit it may all share an entry; the artifact
#: is read-only after provisioning (runtime state lives per device).
_ARTIFACTS = _ArtifactLRU(capacity=32)
#: (program, target, setup) -> (program factory, setup provisioner,
#: artifact key). Skips rebuilding and hashing the IR on every shard;
#: the factory and provisioner are held so a re-registration under the
#: same name is noticed (identity, not name) and invalidates the key.
_FINGERPRINTS: dict[tuple[str, str, str], tuple] = {}


def _clear_artifacts() -> None:
    """Forget every in-process artifact and memoized key."""
    _ARTIFACTS.clear()
    _FINGERPRINTS.clear()


def _cycle_times(times_ns, device: NetworkDevice) -> list[int] | None:
    """A workload's arrival process (ns) as device-clock timestamps;
    ``None`` for untimed workloads (inject at the device clock)."""
    if times_ns is None:
        return None
    return [int(t * device.limits.clock_mhz / 1e3) for t in times_ns]


def _shard_device(
    program: str,
    target: str,
    setup: str,
) -> NetworkDevice:
    """A fresh device for one shard, reusing a compiled artifact.

    Artifact resolution is three-tiered: the in-process tier first
    (``memory_hits``: no build, hash or unpickle — the artifact comes
    with its batch kernel), then the persistent on-disk artifact cache
    (``hits`` — a loaded artifact carries its provisioned table
    entries, so the setup provisioner is *not* re-run, and its kernel
    is rebuilt on load), and only then a full compile + provision,
    stored back to disk (``stores``). Both tiers share one content key
    covering the pre-provision program IR, the target's deviation
    model and the setup label, so a hit can never alias a
    differently-provisioned artifact. Re-registering the program factory or the setup
    provisioner under the same name forces a fresh compile, which also
    overwrites the disk entry the old registration stored.
    """
    device = TARGETS[target](f"{target}-{program}")
    factory = PROGRAMS[program]
    provisioner = PROVISIONERS.get(setup) if setup else None
    slot = (program, target, setup)
    memo = _FINGERPRINTS.get(slot)
    program_obj = None
    fresh = False
    if memo is not None and memo[0] is factory and memo[1] is provisioner:
        key = memo[2]
    else:
        if memo is not None:
            _ARTIFACTS.discard(memo[2])
            fresh = True
        program_obj = factory()  # type: ignore[operator]
        try:
            key = artifact_cache.fingerprint(
                program_obj, device.compiler, extra=setup
            )
        except artifact_cache.FingerprintError:
            key = slot
        _FINGERPRINTS[slot] = (factory, provisioner, key)
    compiled = _ARTIFACTS.get(key)
    if compiled is not None:
        artifact_cache.record_memory_hit()
        device.install(compiled)
        return device
    if program_obj is None:
        program_obj = factory()  # type: ignore[operator]
    cache = artifact_cache.get_artifact_cache()
    disk_key = key if isinstance(key, str) and cache is not None else None
    if disk_key is not None and not fresh:
        compiled = cache.load(disk_key, device.compiler)
    if compiled is not None:
        device.install(compiled)
    else:
        compiled = device.load(program_obj)
        if setup:
            if provisioner is None:
                # Reachable in spawn-started workers: they re-import
                # the module, so provisioners registered at runtime
                # in the parent do not exist here. Fail with the
                # cause, not a bare KeyError deep in the pool.
                raise NetDebugError(
                    f"setup provisioner {setup!r} is not registered "
                    "in this worker process; register provisioners "
                    "at module import time so spawned workers see "
                    "them"
                )
            provisioner(device)
        if disk_key is not None:
            cache.store(disk_key, compiled)
    _ARTIFACTS.put(key, compiled)
    return device


class _LatencySampler(CheckRule):
    """An always-passing tap rule that collects per-packet pipeline
    latency (``_cycles_elapsed``) so SLA cells can grade a tail bound;
    the samples double as the cell's latency distribution in the
    report."""

    name = "latency_sample"

    def __init__(self) -> None:
        self.samples: list[int] = []

    def check(self, snapshot: PacketSnapshot) -> tuple[bool, str]:
        self.samples.append(
            int(snapshot.metadata.get("_cycles_elapsed", 0))
        )
        return True, ""


def _grade_sla(scenario: "Scenario", report: SessionReport,
               sampler: _LatencySampler) -> None:
    """Grade the cell's p99 latency against its SLA via LatencyCheck.

    The samples become the report's latency distribution, the grade is
    appended as a ``sla-p99`` check outcome, and a breach adds a
    ``sla_breach`` finding — which is what flips the cell's verdict.
    """
    report.latency = LatencyStats(samples=list(sampler.samples))
    bound = int(scenario.sla_p99_cycles)
    check = LatencyCheck("sla-p99", max_cycles=bound)
    ok, detail = check.check(
        PacketSnapshot(
            stage="campaign-sla",
            wire=None,
            packet=None,
            metadata={
                "_cycles_elapsed": int(math.ceil(report.latency.p99))
            },
            alive=True,
        )
    )
    report.checks.append(
        CheckOutcome(
            rule=check.name,
            checked=1,
            passed=int(ok),
            failed=int(not ok),
            first_failure=detail,
        )
    )
    if not ok:
        report.findings.append(
            Finding(
                "sla_breach",
                f"{scenario.key}: p99 {detail}",
                stage="campaign-sla",
            )
        )


def _grade_cell(
    scenario: Scenario,
    device: NetworkDevice,
    frames: list[bytes],
    expectations: list[ExpectedOutput],
    cycle_times: list[int] | None,
    ports: list[int] | None,
) -> SessionReport:
    """Grade one cell's frames against its expectations: one session
    named after the cell, its SLA graded when it has one, and the
    clock measurements. A live shard and a replayed one differ only in
    where the frames and expectations come from."""
    sampler = (
        _LatencySampler() if scenario.sla_p99_cycles is not None else None
    )
    # The session injects the frames the oracle predicted from: wire
    # bytes are immutable, so nothing is copied or packed twice.
    session = ValidationSession(
        name=f"campaign/{scenario.index:04d}/{scenario.key}",
        streams=[
            StreamSpec(
                stream_id=scenario.index + 1,
                packets=frames,
                fix_checksums=False,
                timestamps=cycle_times,
                ingress_ports=ports,
            )
        ],
        checks=[sampler] if sampler is not None else [],
        expectations=expectations,
    )
    report = run_session(device, session)
    if sampler is not None:
        _grade_sla(scenario, report, sampler)
    report.measurements["clock_cycles"] = float(device.clock_cycles)
    report.measurements["cycles_per_packet"] = (
        device.clock_cycles / report.injected if report.injected else 0.0
    )
    return report


def _cell_device(
    scenario: Scenario, faults
) -> tuple[NetworkDevice, dict[str, int] | None]:
    """The preamble of every cell, live or replayed: a fresh device for
    the scenario (:func:`_shard_device`) with ``faults`` armed, and the
    compile-cache counter movement while acquiring it (``None`` when
    nothing moved)."""
    cache_before = artifact_cache.stats_snapshot()
    device = _shard_device(scenario.program, scenario.target, scenario.setup)
    cache_delta = artifact_cache.stats_delta(cache_before)
    for fault in faults:
        device.injector.inject(fault)
    return device, cache_delta if any(cache_delta.values()) else None


def _run_shard(job: tuple) -> "ScenarioResult":
    scenario, faults, keep_suite = job
    device, cache_stats = _cell_device(scenario, faults)

    # Flow AND seed derive from the scenario key, never its matrix
    # position: growing the matrix must leave pre-existing scenarios'
    # traffic byte-identical or cross-version diffs would churn. The
    # flow index is bounded to 0..7 so flows stay inside provisioner
    # coverage (routes, ACL port patterns).
    bundle = build_workload(
        scenario.workload,
        default_flow(stable_hash64(scenario.key) % 8),
        scenario.count,
        seed=scenario.seed,
        # Program-aware workloads (coverage) derive packets from the
        # cell's own provisioned artifact; seeded-random factories
        # never see this.
        context=WorkloadContext(
            scenario.program,
            scenario.target,
            scenario.setup,
            compiled=device.compiled,
        ),
    )
    frames = list(bundle.frames)
    # StreamSpec.timestamps is in device-clock cycles; the workload's
    # arrival process is in nanoseconds. The same timestamps feed the
    # oracle so programs that stamp time into packets (int_telemetry)
    # validate byte-exactly; untimed workloads inject at the device
    # clock, which the oracle cannot see, so they keep predicting at 0.
    # Likewise the workload's per-packet ingress ports feed both sides.
    cycle_times = _cycle_times(bundle.times_ns, device)
    ports = (
        list(bundle.ingress_ports)
        if bundle.ingress_ports is not None
        else None
    )
    # One oracle per shard, fed the whole cell in arrival order — the
    # sharding unit IS the session, so stateful oracles never need
    # state to thread across shard boundaries.
    oracle = build_oracle(ORACLES[scenario.oracle], device)
    expectations = oracle.expect_all(
        frames,
        ingress_ports=ports,
        timestamps=cycle_times,
        label=scenario.key,
    )
    report = _grade_cell(
        scenario, device, frames, expectations, cycle_times, ports
    )
    result = ScenarioResult(
        scenario=scenario,
        report=report,
        cache_stats=cache_stats,
        coverage=bundle.coverage,
    )
    if keep_suite:
        result.suite = RegressionSuite(
            _suite_name(scenario), list(frames), list(expectations)
        )
        result.arrivals = _arrivals(bundle)
    return result


def _arrivals(bundle) -> dict:
    """A recorded cell's manifest arrival entries: the workload's
    arrival times (ns) when it is timed and its per-packet ingress
    ports when it is directional. Recorded expectations pin bytes that
    may derive from injection time and port, so replay reads these
    instead of relying on the live generators still producing them."""
    arrivals: dict = {}
    if bundle.times_ns is not None:
        arrivals["times_ns"] = list(bundle.times_ns)
    if bundle.ingress_ports is not None:
        arrivals["ingress_ports"] = list(bundle.ingress_ports)
    return arrivals


def _suite_name(scenario: Scenario) -> str:
    return f"scenario-{scenario.index:04d}"


def _replay_shard(job: tuple) -> "ScenarioResult":
    scenario, faults, directory, times_ns, ports = job
    suite = RegressionSuite.load(directory, _suite_name(scenario))
    device, cache_stats = _cell_device(scenario, faults)
    # Replay at the *recorded* injection timestamps and ports (the
    # manifest persists the workload's arrival process): recorded
    # expectations pin exact bytes, so time-stamping programs only
    # reproduce their recording when the clock readings match — and
    # reading them from the artifact keeps old recordings replayable
    # even after the live traffic generators change.
    report = _grade_cell(
        scenario, device, suite.frames, suite.expectations,
        _cycle_times(times_ns, device), ports,
    )
    return ScenarioResult(
        scenario=scenario, report=report, cache_stats=cache_stats
    )


# ---------------------------------------------------------------------------
# Results
# ---------------------------------------------------------------------------

@dataclass
class ScenarioResult:
    """One scenario's verdict: the session report plus derived grades."""

    scenario: Scenario
    report: SessionReport
    #: Present only while recording (dropped before reports are returned).
    suite: RegressionSuite | None = None
    #: The cell's manifest arrival entries (``times_ns`` /
    #: ``ingress_ports``, see :func:`_arrivals`); like ``suite``,
    #: present only while recording.
    arrivals: dict | None = None
    #: Compile-cache counter movement while acquiring this shard's
    #: device (hits/misses/stores/memory_hits), or None when nothing
    #: moved. Like ``suite``, deliberately NOT serialized: the golden
    #: baselines pin ``to_dict`` byte-for-byte, and cache behaviour is
    #: environment, not outcome.
    cache_stats: dict[str, int] | None = None
    #: The workload's coverage map
    #: (:class:`repro.netdebug.coverage.CoverageMap`) when the scenario
    #: ran a path-guided workload; None for seeded-random workloads.
    #: Serialized (conditionally), so ``baselines/coverage.json`` pins
    #: witness bytes, signatures and prune reasons.
    coverage: object | None = None
    #: Provenance marker for compressed runs: the representative
    #: scenario key this result was synthesized from, or None when the
    #: cell was genuinely executed (see
    #: :mod:`repro.netdebug.compression`). Serialized conditionally,
    #: so uncompressed reports keep their pre-compression bytes.
    represented_by: str | None = None

    @property
    def passed(self) -> bool:
        return self.report.passed

    @property
    def verdict(self) -> str:
        return "pass" if self.passed else "fail"

    @property
    def score(self) -> float:
        """Fraction of injected packets free of findings (0..1)."""
        injected = self.report.injected
        if not injected:
            return 0.0
        return max(0.0, 1.0 - len(self.report.findings) / injected)

    @property
    def capability(self) -> Capability:
        return Capability.from_score(self.score)

    def to_dict(self) -> dict:
        payload = {
            "scenario": scenario_to_dict(self.scenario),
            "verdict": self.verdict,
            "score": round(self.score, 6),
            "capability": self.capability.value,
            "report": self.report.to_dict(),
        }
        # Conditional like the scenario axes above: pre-coverage
        # baselines must keep round-tripping byte-identically.
        if self.coverage is not None:
            payload["coverage"] = self.coverage.to_dict()
        if self.represented_by is not None:
            payload["represented_by"] = self.represented_by
        return payload

    @classmethod
    def from_dict(cls, data: dict) -> "ScenarioResult":
        coverage = None
        if "coverage" in data:
            # Deferred: coverage imports this module's registries.
            from .coverage import CoverageMap

            coverage = CoverageMap.from_dict(data["coverage"])
        return cls(
            scenario=scenario_from_dict(data["scenario"]),
            report=SessionReport.from_dict(data["report"]),
            coverage=coverage,
            represented_by=data.get("represented_by"),
        )


@dataclass
class CampaignReport(CanonicalJsonReport):
    """Aggregate outcome of one campaign run.

    ``to_json`` is canonical (sorted keys, fixed separators, scenario
    order): two runs of the same matrix — serial or parallel — produce
    byte-identical output, which is what the determinism tests and the
    regression-diff workflow key on; ``from_json`` is its exact inverse
    (see :class:`~repro.netdebug.report.CanonicalJsonReport`).
    """

    name: str
    results: list[ScenarioResult] = dc_field(default_factory=list)
    #: Out-of-band run metadata (e.g. ``meta["compile_cache"]`` with the
    #: aggregated artifact-cache counters). Excluded from ``to_dict`` so
    #: canonical JSON — and the committed golden baselines — stay
    #: byte-identical regardless of cache temperature.
    meta: dict = dc_field(default_factory=dict)

    @property
    def passed(self) -> bool:
        return all(result.passed for result in self.results)

    @property
    def scenarios(self) -> int:
        return len(self.results)

    @property
    def injected(self) -> int:
        return sum(result.report.injected for result in self.results)

    def failed(self) -> list[ScenarioResult]:
        return [result for result in self.results if not result.passed]

    def findings_by_kind(self) -> dict[str, int]:
        counts: dict[str, int] = {}
        for result in self.results:
            for finding in result.report.findings:
                counts[finding.kind] = counts.get(finding.kind, 0) + 1
        return dict(sorted(counts.items()))

    def latency_summary(self) -> dict[str, float]:
        """Cycle-latency statistics across the whole campaign.

        ``cycles_per_packet_*`` aggregate the per-scenario average
        pipeline occupancy; ``probe_samples`` counts in-band probe
        latency measurements (wrapped streams only).
        """
        per_packet = sorted(
            result.report.measurements.get("cycles_per_packet", 0.0)
            for result in self.results
        )
        if not per_packet:
            return {
                "cycles_per_packet_mean": 0.0,
                "cycles_per_packet_p50": 0.0,
                "cycles_per_packet_p99": 0.0,
                "probe_samples": 0.0,
            }
        p99 = per_packet[min(len(per_packet) - 1,
                             int(len(per_packet) * 0.99))]
        return {
            "cycles_per_packet_mean": statistics.fmean(per_packet),
            "cycles_per_packet_p50": statistics.median(per_packet),
            "cycles_per_packet_p99": p99,
            "probe_samples": float(
                sum(r.report.latency.count for r in self.results)
            ),
        }

    def to_dict(self) -> dict:
        return {
            "name": self.name,
            "passed": self.passed,
            "scenarios": self.scenarios,
            "injected": self.injected,
            "findings_by_kind": self.findings_by_kind(),
            "latency": {
                key: round(value, 6)
                for key, value in self.latency_summary().items()
            },
            "results": [
                result.to_dict()
                for result in sorted(
                    self.results, key=lambda r: r.scenario.index
                )
            ],
        }

    @classmethod
    def from_dict(cls, data: dict) -> "CampaignReport":
        return cls(
            name=data["name"],
            results=[
                ScenarioResult.from_dict(r) for r in data["results"]
            ],
        )

    def summary(self) -> str:
        """Human-readable campaign table."""
        lines = [
            f"Campaign {self.name!r}: {self.scenarios} scenarios, "
            f"{self.injected} packets, "
            f"verdict={'PASS' if self.passed else 'FAIL'}",
        ]
        for result in sorted(self.results, key=lambda r: r.scenario.index):
            findings = len(result.report.findings)
            lines.append(
                f"  [{result.scenario.index:04d}] "
                f"{result.scenario.key:<55} {result.verdict.upper():<4} "
                f"score={result.score:.2f} "
                f"({result.capability.value}) findings={findings}"
            )
        kinds = self.findings_by_kind()
        if kinds:
            listing = ", ".join(f"{k}={v}" for k, v in kinds.items())
            lines.append(f"  findings by kind: {listing}")
        latency = self.latency_summary()
        lines.append(
            "  latency: "
            f"mean={latency['cycles_per_packet_mean']:.1f} "
            f"p50={latency['cycles_per_packet_p50']:.1f} "
            f"p99={latency['cycles_per_packet_p99']:.1f} cycles/pkt"
        )
        return "\n".join(lines)


# ---------------------------------------------------------------------------
# The engine: executors, streaming ingest, deterministic reassembly
# ---------------------------------------------------------------------------

def _pool_context():
    """Fork where available (cheap, inherits the import state); the
    default start method elsewhere."""
    methods = multiprocessing.get_all_start_methods()
    if "fork" in methods:
        return multiprocessing.get_context("fork")
    return multiprocessing.get_context()


@dataclass(frozen=True)
class CampaignProgress:
    """Where a streaming campaign stands when a result lands."""

    completed: int
    total: int
    failed: int = 0

    @property
    def fraction(self) -> float:
        return self.completed / self.total if self.total else 1.0


class ShardExecutor:
    """Strategy seam for executing a campaign's shard jobs.

    ``execute`` runs every job through ``shard_fn`` and returns the
    :class:`ScenarioResult` list **in any order**; implementations call
    ``on_result(result)`` as each shard completes (streaming ingest).
    :func:`run_campaign` owns expansion, progress accounting, record
    artifacts and deterministic reassembly, so the local pool and the
    cluster (:class:`repro.netdebug.cluster.ClusterExecutor`, an
    ephemeral campaign service) share everything except raw dispatch.
    """

    def execute(
        self,
        jobs: list[tuple],
        shard_fn: Callable[[tuple], "ScenarioResult"],
        on_result: Callable[["ScenarioResult"], None] | None = None,
    ) -> list["ScenarioResult"]:
        raise NotImplementedError


class SerialExecutor(ShardExecutor):
    """In-process execution, one shard at a time (still streams)."""

    def execute(self, jobs, shard_fn, on_result=None):
        results = []
        for job in jobs:
            result = shard_fn(job)
            if on_result is not None:
                on_result(result)
            results.append(result)
        return results


class PoolExecutor(ShardExecutor):
    """A local :mod:`multiprocessing` pool with streaming ingest.

    ``imap_unordered`` (chunksize 1) hands results back the moment any
    worker finishes, so long campaigns render progressively instead of
    at the barrier; reassembly downstream restores scenario order.
    """

    def __init__(self, workers: int):
        if workers < 1:
            raise NetDebugError("pool executor needs at least 1 worker")
        self.workers = workers

    def execute(self, jobs, shard_fn, on_result=None):
        if self.workers <= 1 or len(jobs) <= 1:
            return SerialExecutor().execute(jobs, shard_fn, on_result)
        workers = min(self.workers, len(jobs))
        results = []
        with _pool_context().Pool(processes=workers) as pool:
            for result in pool.imap_unordered(shard_fn, jobs, chunksize=1):
                if on_result is not None:
                    on_result(result)
                results.append(result)
        return results


def assemble_report(
    name: str, results: list["ScenarioResult"], expected: int | None = None
) -> CampaignReport:
    """Deterministically reassemble out-of-order shard results.

    The ONE reassembly definition every execution path funnels through
    (serial, pool, distributed cluster): sort by scenario index and
    refuse duplicates or gaps, so the final report is byte-identical no
    matter the arrival order — the property the golden baselines and
    the cross-version differ rely on.
    """
    ordered = sorted(results, key=lambda result: result.scenario.index)
    indices = [result.scenario.index for result in ordered]
    if len(set(indices)) != len(indices):
        raise NetDebugError(
            f"campaign {name!r}: duplicate scenario results in "
            f"reassembly (indices {indices})"
        )
    if expected is not None and len(ordered) != expected:
        raise NetDebugError(
            f"campaign {name!r}: executor returned {len(ordered)} of "
            f"{expected} shard results"
        )
    report = CampaignReport(name=name, results=ordered)
    totals: dict[str, int] = {}
    for result in ordered:
        stats = getattr(result, "cache_stats", None)
        if stats:
            for counter, moved in stats.items():
                totals[counter] = totals.get(counter, 0) + moved
    report.meta["compile_cache"] = totals
    coverage_meta = {
        result.scenario.key: result.coverage.summary()
        for result in ordered
        if getattr(result, "coverage", None) is not None
    }
    if coverage_meta:
        report.meta["coverage"] = coverage_meta
    return report


def _streaming_ingest(
    on_result: Callable[[str, SessionReport, CampaignProgress], None] | None,
    total: int,
) -> Callable[["ScenarioResult"], None] | None:
    """Adapt the user-facing ``on_result(key, report, progress)`` hook
    to the executor-facing per-result callback, owning the progress
    counters so every executor reports identically."""
    if on_result is None:
        return None
    counters = {"completed": 0, "failed": 0}

    def ingest(result: "ScenarioResult") -> None:
        counters["completed"] += 1
        if not result.passed:
            counters["failed"] += 1
        on_result(
            result.scenario.key,
            result.report,
            CampaignProgress(
                completed=counters["completed"],
                total=total,
                failed=counters["failed"],
            ),
        )

    return ingest


def _execute(
    jobs: list[tuple],
    shard_fn,
    workers: int,
    executor: ShardExecutor | None = None,
    ingest=None,
) -> list:
    if executor is None:
        executor = (
            SerialExecutor() if workers <= 1 or len(jobs) <= 1
            else PoolExecutor(workers)
        )
    return executor.execute(jobs, shard_fn, on_result=ingest)


def _shard_jobs(
    scenarios: list[Scenario], faults: dict, record: bool = False
) -> list[tuple]:
    """:func:`_run_shard` job tuples for ``scenarios`` — what every
    executor, and the campaign service, dispatches."""
    return [
        (scenario, faults[scenario.fault], record) for scenario in scenarios
    ]


def run_campaign(
    matrix: ScenarioMatrix,
    workers: int = 1,
    name: str = "campaign",
    record_dir: str | Path | None = None,
    executor: ShardExecutor | None = None,
    on_result: Callable[[str, SessionReport, CampaignProgress], None]
    | None = None,
    compress: bool | object = False,
) -> CampaignReport:
    """Expand ``matrix`` and execute every scenario shard.

    ``workers`` > 1 runs shards on a process pool (each worker caching
    one compiled artifact per program/target); passing ``executor``
    overrides dispatch entirely — e.g.
    :class:`repro.netdebug.cluster.ClusterExecutor` to fan shards out
    to service workers over sockets. Either way the final report is
    byte-identical to the serial run.

    ``on_result`` is the streaming-ingest hook: called as
    ``on_result(scenario_key, report, progress)`` the moment each shard
    completes, in **arrival** order (out of order under parallel
    executors), so long campaigns can render progressively.

    With ``record_dir`` set the campaign is also frozen to regression
    artifacts — one :class:`RegressionSuite` per scenario plus
    ``<name>.manifest.json`` — replayable via :func:`replay_campaign`.

    Each cell is graded by the oracle its scenario names (the matrix's
    ``oracle`` axis, an :data:`~repro.netdebug.oracle.ORACLES` entry),
    so the report names the oracle that ran. Sharding is per *scenario
    cell*, each cell's packets staying on one shard in arrival order,
    which is exactly the state boundary stateful oracles need.

    ``compress=True`` buckets the expanded matrix by static behaviour
    signature (:func:`repro.netdebug.compression.compress_matrix`),
    executes only bucket representatives, and re-expands the report:
    pruned cells carry their representative's result with the identity
    rewritten and ``represented_by`` set. Passing a precomputed
    :class:`~repro.netdebug.compression.CompressedMatrix` skips the
    signature pass (it must have been built from this exact matrix).
    The default ``compress=False`` is byte-identical to the
    pre-compression engine. ``on_result`` streams *executed* shards
    only — progress totals count representatives, not synthesized
    cells.
    """
    scenarios = matrix.expand()
    record = record_dir is not None
    compressed = None
    if compress:
        # Deferred: compression imports this module's matrix types.
        from .compression import CompressedMatrix, compress_matrix

        if record:
            raise NetDebugError(
                "record_dir and compress are mutually exclusive: "
                "regression artifacts must capture every cell, not "
                "representatives"
            )
        if isinstance(compress, CompressedMatrix):
            compressed = compress
            compressed.ensure_matches(matrix)
        else:
            compressed = compress_matrix(matrix)
        representatives = set(compressed.representative_keys)
        run_scenarios = [
            scenario
            for scenario in scenarios
            if scenario.key in representatives
        ]
    else:
        run_scenarios = scenarios
    if record:
        for label, fault_set in matrix.faults.items():
            for fault in fault_set:
                if fault.predicate is not None:
                    raise NetDebugError(
                        f"fault set {label!r} carries a predicate "
                        "callable; recorded campaigns must be fully "
                        "declarative to replay from JSON"
                    )
    jobs = _shard_jobs(run_scenarios, matrix.faults, record)
    results = _execute(
        jobs, _run_shard, workers, executor,
        _streaming_ingest(on_result, len(jobs)),
    )
    if compressed is not None:
        from .compression import expand_results

        results = expand_results(compressed, scenarios, results)
    report = assemble_report(name, results, expected=len(scenarios))
    if compressed is not None:
        report.meta["compression"] = {
            "expanded": compressed.expanded_cells,
            "representatives": len(compressed.entries),
            "ratio": compressed.ratio,
        }

    if record:
        directory = Path(record_dir)
        directory.mkdir(parents=True, exist_ok=True)
        for result in report.results:
            result.suite.save(directory)
        _write_manifest(directory, name, matrix, report.results)
    for result in report.results:
        result.suite = result.arrivals = None
    return report


# ---------------------------------------------------------------------------
# Record / replay via the regression-artifact format
# ---------------------------------------------------------------------------

def fault_to_dict(fault: Fault) -> dict:
    """One fault as declarative JSON data.

    Predicate-carrying faults are refused: a predicate is code, and
    every consumer of this codec (recorded manifests, compressed-matrix
    maps, service job frames) promises that deserialization never
    executes anything.
    """
    if fault.predicate is not None:
        raise NetDebugError(
            f"fault {fault.kind.value!r} at stage {fault.stage!r} "
            "carries a predicate callable; predicate faults cannot be "
            "serialized losslessly as data"
        )
    return {
        "kind": fault.kind.value,
        "stage": fault.stage,
        "header": fault.header,
        "field": fault.field,
        "mask": fault.mask,
        "port": fault.port,
        "length": fault.length,
        "table": fault.table,
        "counter": fault.counter,
        "extra_cycles": fault.extra_cycles,
    }


def fault_from_dict(data: dict) -> Fault:
    return Fault(
        kind=FaultKind(data["kind"]),
        stage=data.get("stage", ""),
        header=data.get("header"),
        field=data.get("field"),
        mask=data.get("mask", 0),
        port=data.get("port"),
        length=data.get("length"),
        table=data.get("table"),
        counter=data.get("counter"),
        extra_cycles=data.get("extra_cycles", 0),
    )



def matrix_to_dict(matrix: ScenarioMatrix) -> dict:
    """A scenario matrix as declarative JSON data (lossless inverse:
    :func:`matrix_from_dict`). Refuses predicate-carrying fault sets —
    see :func:`fault_to_dict`. The ONE matrix codec shared by the
    compression map format and the service submit frame."""
    payload = {
        "programs": list(matrix.programs),
        "targets": list(matrix.targets),
        "faults": {
            label: [fault_to_dict(f) for f in fault_set]
            for label, fault_set in matrix.faults.items()
        },
        "workloads": list(matrix.workloads),
        "count": matrix.count,
        "seed": matrix.seed,
        "setup": matrix.setup,
    }
    # Conditional, matching the ScenarioResult serialization contract.
    if matrix.sla_p99_cycles is not None:
        payload["sla_p99_cycles"] = matrix.sla_p99_cycles
    if matrix.oracle != "stateless":
        payload["oracle"] = matrix.oracle
    return payload


def matrix_from_dict(data: dict) -> ScenarioMatrix:
    return ScenarioMatrix(
        programs=list(data["programs"]),
        targets=list(data["targets"]),
        faults={
            label: tuple(fault_from_dict(f) for f in fault_set)
            for label, fault_set in data["faults"].items()
        },
        workloads=list(data["workloads"]),
        count=data["count"],
        seed=data["seed"],
        setup=data.get("setup", ""),
        sla_p99_cycles=data.get("sla_p99_cycles"),
        oracle=data.get("oracle", "stateless"),
    )


def _write_manifest(
    directory: Path,
    name: str,
    matrix: ScenarioMatrix,
    results: list[ScenarioResult],
) -> Path:
    payload = {
        "name": name,
        "faults": {
            label: [fault_to_dict(f) for f in fault_set]
            for label, fault_set in matrix.faults.items()
        },
        "scenarios": [
            {
                **scenario_to_dict(result.scenario),
                "suite": _suite_name(result.scenario),
                # The arrival process the cell was recorded with,
                # carried back with its result (see _arrivals).
                **(result.arrivals or {}),
            }
            for result in results
        ],
    }
    path = directory / f"{name}.manifest.json"
    path.write_text(json.dumps(payload, indent=2) + "\n")
    return path


def record_campaign(
    matrix: ScenarioMatrix,
    directory: str | Path,
    workers: int = 1,
    name: str = "campaign",
) -> CampaignReport:
    """Run ``matrix`` and freeze it to replayable regression artifacts."""
    return run_campaign(
        matrix, workers=workers, name=name, record_dir=directory
    )


def replay_campaign(
    directory: str | Path,
    name: str = "campaign",
    workers: int = 1,
    executor: ShardExecutor | None = None,
    on_result: Callable[[str, SessionReport, CampaignProgress], None]
    | None = None,
) -> CampaignReport:
    """Replay a recorded campaign from its artifacts on fresh devices.

    Fault sets and scenario assignments come from the manifest; frames
    and expectations from the per-scenario regression suites (suites
    with truncated pcap captures are rejected at load). ``executor``
    and ``on_result`` behave exactly as in :func:`run_campaign` —
    replay shards ride the same dispatch/reassembly seam (the cluster
    executor, which runs live shards only, refuses them). Each replayed
    cell is graded exactly as its live shard was, SLA included, so its
    report reproduces the recording's. With a warm artifact cache
    replay skips recompilation entirely (see
    :mod:`repro.target.artifact_cache`).
    """
    directory = Path(directory)
    manifest_path = directory / f"{name}.manifest.json"
    if not manifest_path.exists():
        raise NetDebugError(
            f"no campaign manifest at {manifest_path}"
        )
    payload = json.loads(manifest_path.read_text())
    faults = {
        label: tuple(fault_from_dict(f) for f in fault_set)
        for label, fault_set in payload["faults"].items()
    }
    jobs = []
    for s in payload["scenarios"]:
        scenario = scenario_from_dict(s)
        # A hand-edited or version-skewed manifest must fail here with a
        # clear error, not as a KeyError inside the worker pool.
        require_known_program(
            scenario.program, f"manifest scenario {scenario.index}"
        )
        require_known_target(
            scenario.target, f"manifest scenario {scenario.index}"
        )
        if scenario.fault not in faults:
            raise NetDebugError(
                f"manifest scenario {scenario.index} references unknown "
                f"fault set {scenario.fault!r}"
            )
        jobs.append(
            (
                scenario,
                faults[scenario.fault],
                str(directory),
                # Untimed or directionless cells (and manifests older
                # than either field) carry none: replay at the device
                # clock and on port 0, exactly as they were recorded.
                s.get("times_ns"),
                s.get("ingress_ports"),
            )
        )
    results = _execute(
        jobs, _replay_shard, workers, executor,
        _streaming_ingest(on_result, len(jobs)),
    )
    return assemble_report(
        f"replay-{payload['name']}", results, expected=len(jobs)
    )


def _coverage_workload(flow, count, seed, rate_pps, context=None):
    """The ``coverage`` workload, its module imported on first use."""
    from .coverage import _coverage_workload as build

    return build(flow, count, seed, rate_pps, context=context)


# Registered here because pool and cluster workers import THIS module,
# so every execution path (serial, spawn-started pool, remote cluster
# worker) sees one registry. The thunk keeps the package from importing
# the coverage module at load, which would make ``python -m
# repro.netdebug.coverage`` run that module twice.
WORKLOADS["coverage"] = _coverage_workload
