"""Campaign engine tests: matrix expansion, parallel determinism,
fault/workload sweeps, record/replay, controller integration."""

import json

import pytest

from repro.exceptions import NetDebugError, TargetError, UnknownTargetError
from repro.netdebug.campaign import (
    CampaignReport,
    PROVISIONERS,
    Scenario,
    ScenarioMatrix,
    ScenarioResult,
    TARGETS,
    record_campaign,
    replay_campaign,
    require_known_target,
    run_campaign,
)
from repro.netdebug.controller import NetDebugController
from repro.netdebug.diffing import baseline_matrix, baseline_stateful_matrix
from repro.netdebug.localization import explain_findings
from repro.netdebug.report import Capability
from repro.p4.stdlib import PROGRAMS, ipv4_router, strict_parser
from repro.target.faults import Fault, FaultKind
from repro.target.reference import ReferenceCompiler, make_reference_device
from repro.target.sdnet import make_sdnet_device
from tests.test_netdebug_session import count_calls


def tiny_matrix(**overrides) -> ScenarioMatrix:
    base = dict(
        programs=["strict_parser"],
        targets=["reference"],
        faults={"baseline": ()},
        workloads=["udp"],
        count=4,
        seed=3,
    )
    base.update(overrides)
    return ScenarioMatrix(**base)


def _fresh_manifest(matrix, cells, name) -> str:
    """The manifest a recording of ``matrix`` must write, with every
    timed or directional cell's arrival process generated afresh."""
    from repro.bitutils import stable_hash64
    from repro.netdebug.campaign import fault_to_dict, scenario_to_dict
    from repro.sim.traffic import build_workload, default_flow

    scenarios = []
    for s in cells:
        bundle = build_workload(
            s.workload, default_flow(stable_hash64(s.key) % 8), s.count,
            seed=s.seed,
        )
        entry = {**scenario_to_dict(s), "suite": f"scenario-{s.index:04d}"}
        if bundle.times_ns is not None:
            entry["times_ns"] = list(bundle.times_ns)
        if bundle.ingress_ports is not None:
            entry["ingress_ports"] = list(bundle.ingress_ports)
        scenarios.append(entry)
    payload = {
        "name": name,
        "faults": {
            label: [fault_to_dict(f) for f in fault_set]
            for label, fault_set in matrix.faults.items()
        },
        "scenarios": scenarios,
    }
    return json.dumps(payload, indent=2) + "\n"


class TestMatrix:
    def test_expand_is_full_cross_product_in_order(self):
        matrix = tiny_matrix(
            programs=["strict_parser", "l2_switch"],
            targets=["reference", "sdnet"],
            faults={"baseline": (), "bh": (Fault(FaultKind.BLACKHOLE),)},
            workloads=["udp", "imix"],
        )
        scenarios = matrix.expand()
        assert len(scenarios) == 2 * 2 * 2 * 2
        assert [s.index for s in scenarios] == list(range(16))
        # program varies slowest, workload fastest
        assert scenarios[0].key == "strict_parser/reference/baseline/udp"
        assert scenarios[1].key == "strict_parser/reference/baseline/imix"
        assert scenarios[-1].key == "l2_switch/sdnet/bh/imix"

    def test_scenario_seeds_differ_but_derive_from_matrix_seed(self):
        seeds_a = [s.seed for s in tiny_matrix(
            workloads=["udp", "imix"]).expand()]
        seeds_b = [s.seed for s in tiny_matrix(
            workloads=["udp", "imix"]).expand()]
        assert seeds_a == seeds_b
        assert len(set(seeds_a)) == len(seeds_a)

    def test_scenario_seeds_stable_under_matrix_growth(self):
        # Seeds key on the scenario identity, not its matrix position:
        # growing an axis must not shift the workloads of pre-existing
        # scenarios, or cross-version diffs would see every cell churn.
        small = {
            s.key: s.seed
            for s in tiny_matrix(workloads=["udp", "malformed"]).expand()
        }
        grown = {
            s.key: s.seed
            for s in tiny_matrix(
                programs=["strict_parser", "l2_switch"],
                workloads=["udp", "imix", "malformed"],
            ).expand()
        }
        for key, seed in small.items():
            assert grown[key] == seed

    @pytest.mark.parametrize(
        "overrides",
        [
            {"programs": ["no_such_program"]},
            {"targets": ["bmv2"]},
            {"workloads": ["voip"]},
            {"programs": []},
            {"count": 0},
            {"setup": "no_such_setup"},
            {"programs": ["strict_parser", "strict_parser"]},
            {"targets": ["reference", "reference"]},
            {"workloads": ["udp", "udp"]},
        ],
    )
    def test_invalid_matrix_rejected(self, overrides):
        with pytest.raises(NetDebugError):
            tiny_matrix(**overrides).expand()

    def test_registry_is_three_way(self):
        assert set(TARGETS) == {"reference", "sdnet", "tofino"}

    def test_unknown_target_error_carries_known_list(self):
        with pytest.raises(UnknownTargetError) as excinfo:
            tiny_matrix(targets=["bmv2"]).expand()
        message = str(excinfo.value)
        for target in sorted(TARGETS):
            assert target in message
        # The single choke point both error paths share.
        with pytest.raises(UnknownTargetError, match="reference"):
            require_known_target("bmv2", "somewhere")


class TestRunCampaign:
    def test_baseline_reference_campaign_passes(self):
        report = run_campaign(tiny_matrix(), name="ok")
        assert report.passed
        assert report.scenarios == 1
        assert report.injected == 4
        result = report.results[0]
        assert result.verdict == "pass"
        assert result.capability is Capability.FULL
        assert result.report.measurements["cycles_per_packet"] > 0

    def test_sdnet_malformed_scenario_exposes_reject_bug(self):
        matrix = tiny_matrix(
            targets=["reference", "sdnet"],
            workloads=["udp", "malformed"],
            count=12,
        )
        report = run_campaign(matrix, name="reject")
        by_key = {r.scenario.key: r for r in report.results}
        assert by_key["strict_parser/reference/baseline/malformed"].passed
        deviant = by_key["strict_parser/sdnet/baseline/malformed"]
        assert not deviant.passed
        assert deviant.report.findings_of("unexpected_output")

    def test_fault_scenarios_fail_and_baselines_pass(self):
        matrix = tiny_matrix(
            faults={
                "baseline": (),
                "blackhole": (
                    Fault(FaultKind.BLACKHOLE, stage="ingress.0"),
                ),
            },
        )
        report = run_campaign(matrix, name="faulted")
        by_fault = {r.scenario.fault: r for r in report.results}
        assert by_fault["baseline"].passed
        assert not by_fault["blackhole"].passed
        assert by_fault["blackhole"].report.findings_of("missing_output")

    def test_poisson_workload_runs(self):
        report = run_campaign(tiny_matrix(workloads=["poisson"]))
        assert report.passed

    def test_flood_program_campaign_passes(self):
        # l2_switch's default action floods; the expanded flood oracle
        # must validate it rather than fail on the sentinel port.
        report = run_campaign(tiny_matrix(programs=["l2_switch"]))
        assert report.passed

    def test_setup_provisioner_applied_once_and_used(self):
        def routes(device):
            from repro.packet.headers import ipv4, mac

            device.control_plane.table_add(
                "ipv4_lpm", "route", [(ipv4("10.0.0.0"), 8)],
                [mac("aa:bb:cc:dd:ee:01"), 2],
            )

        PROVISIONERS["test-routes"] = routes
        try:
            matrix = tiny_matrix(
                programs=["ipv4_router"], setup="test-routes", count=3
            )
            report = run_campaign(matrix, name="provisioned")
            assert report.passed
        finally:
            del PROVISIONERS["test-routes"]


class TestExecutionMeta:
    """How a cell executes leaves no trace in its report: every cell's
    stream enters the device through one ``inject_block`` call, the
    report meta records no execution path, a fault-armed cell renders
    the same bytes serially and across the cluster wire, and packets
    injected one by one render the golden bytes."""

    FAULTED = {
        "baseline": (),
        "blackhole": (Fault(FaultKind.BLACKHOLE, stage="ingress.0"),),
    }

    def test_seeded_matrix_makes_one_inject_block_per_cell(
        self, monkeypatch
    ):
        from repro.target.device import NetworkDevice

        injects = count_calls(monkeypatch, NetworkDevice, "inject")
        blocks = count_calls(monkeypatch, NetworkDevice, "inject_block")
        report = run_campaign(baseline_matrix(), name="block")
        assert (len(injects), len(blocks)) == (0, report.scenarios)
        assert "execution" not in report.meta

    def test_fault_armed_cell_takes_the_hooked_schedule(self, monkeypatch):
        """The fault-armed cell's one block runs packet by packet on the
        kernel's hooked schedule; the baseline cell's runs hook-free."""
        from repro.target.batch import BatchProgram
        from repro.target.device import NetworkDevice

        blocks = count_calls(monkeypatch, NetworkDevice, "inject_block")
        hooked = count_calls(monkeypatch, BatchProgram, "_run_hooked")
        report = run_campaign(tiny_matrix(faults=self.FAULTED), name="f")
        by_fault = {r.scenario.fault: r for r in report.results}
        assert len(blocks) == 2
        assert len(hooked) == by_fault["blackhole"].report.injected == 4
        assert by_fault["baseline"].passed
        assert by_fault["blackhole"].report.findings_of("missing_output")
        assert "execution" not in report.meta

    def test_counts_survive_the_cluster_wire(self):
        """The fault-armed cell's report crosses the cluster wire byte
        for byte as a serial run renders it."""
        from repro.netdebug.cluster import run_cluster_campaign

        matrix = tiny_matrix(faults=self.FAULTED)
        serial = run_campaign(matrix, name="wire")
        clustered = run_cluster_campaign(
            matrix, workers=1, name="wire", timeout=300
        )
        assert "execution" not in clustered.meta
        assert clustered.to_json() == serial.to_json()

    def test_forced_per_packet_reproduces_the_golden(
        self, tmp_path, monkeypatch
    ):
        """Every golden cell, its packets injected one by one (a block
        of one per packet, on the running clock) instead of as one
        block, renders to exactly the committed
        ``baselines/campaign.json`` bytes."""
        from pathlib import Path

        from repro.target.device import NetworkDevice

        blocks = count_calls(monkeypatch, NetworkDevice, "inject_block")
        real = NetworkDevice.inject_block

        def one_by_one(self, wires, timestamps=None, port=0, ports=None,
                       on_error="raise", at="input"):
            return [
                outcome
                for i, wire in enumerate(wires)
                for outcome in real(
                    self, [wire],
                    timestamps=timestamps and timestamps[i:i + 1],
                    port=port, ports=ports and ports[i:i + 1],
                    on_error=on_error, at=at,
                )
            ]

        monkeypatch.setattr(NetworkDevice, "inject_block", one_by_one)
        report = run_campaign(baseline_matrix(), name="baseline")
        assert len(blocks) == sum(r.report.injected for r in report.results)
        golden = (
            Path(__file__).resolve().parent.parent
            / "baselines" / "campaign.json"
        )
        fresh = report.save(tmp_path / "campaign.json")
        assert fresh.read_bytes() == golden.read_bytes()


class TestDeterminism:
    def test_one_vs_n_workers_byte_identical(self):
        matrix = tiny_matrix(
            programs=["strict_parser", "l2_switch"],
            targets=["reference", "sdnet"],
            faults={
                "baseline": (),
                "bh": (Fault(FaultKind.BLACKHOLE, stage="ingress.0"),),
            },
            workloads=["udp", "malformed"],
            count=5,
            seed=11,
        )
        serial = run_campaign(matrix, workers=1, name="det")
        parallel = run_campaign(matrix, workers=2, name="det")
        assert serial.to_json() == parallel.to_json()

    def test_repeated_runs_identical(self):
        matrix = tiny_matrix(workloads=["udp", "imix", "poisson"])
        assert (
            run_campaign(matrix, name="r").to_json()
            == run_campaign(matrix, name="r").to_json()
        )


_PAIR = dict(
    programs=["l2_switch", "strict_parser"],
    targets=["reference", "sdnet"],
    count=8,
)

#: Matrices whose every replayed cell must reproduce its recording.
REPLAY_MATRICES = {
    "golden": baseline_matrix,
    "sla-breach": lambda: tiny_matrix(sla_p99_cycles=1.0, **_PAIR),
    "blackhole": lambda: tiny_matrix(
        faults={
            "baseline": (),
            "blackhole": (Fault(FaultKind.BLACKHOLE, stage="ingress.0"),),
        },
        **_PAIR,
    ),
    "stateful": baseline_stateful_matrix,
    "timed": lambda: tiny_matrix(
        programs=["int_telemetry"], workloads=["burst"], count=6
    ),
}


class TestRecordReplay:
    def test_record_then_replay_reproduces_verdicts(self, tmp_path):
        matrix = tiny_matrix(
            targets=["reference", "sdnet"],
            workloads=["udp", "malformed"],
            count=8,
        )
        recorded = record_campaign(matrix, tmp_path, name="gold")
        assert (tmp_path / "gold.manifest.json").exists()
        assert (tmp_path / "scenario-0000.pcap").exists()
        assert (tmp_path / "scenario-0000.expect.json").exists()

        replayed = replay_campaign(tmp_path, name="gold", workers=2)
        assert replayed.scenarios == recorded.scenarios
        assert [r.verdict for r in replayed.results] == [
            r.verdict for r in recorded.results
        ]

    @pytest.mark.parametrize("workers", [1, 2])
    @pytest.mark.parametrize("kind", sorted(REPLAY_MATRICES))
    def test_replay_reproduces_every_recorded_report(
        self, tmp_path, kind, workers
    ):
        """Replay grades each cell exactly as its recording did: same
        session, SLA grade, latency and clock measurements, so every
        replayed report and verdict equals the recorded one."""
        recorded = record_campaign(
            REPLAY_MATRICES[kind](), tmp_path, workers=workers, name=kind
        )
        if kind == "sla-breach":
            assert any(
                r.report.findings_of("sla_breach") for r in recorded.results
            )
        replayed = replay_campaign(tmp_path, name=kind, workers=workers)

        def graded(report):
            return [(r.verdict, r.report.to_dict()) for r in report.results]

        assert graded(replayed) == graded(recorded)

    def test_replay_with_faults_reproduces_failures(self, tmp_path):
        matrix = tiny_matrix(
            faults={
                "baseline": (),
                "bh": (Fault(FaultKind.BLACKHOLE, stage="ingress.0"),),
            },
        )
        recorded = record_campaign(matrix, tmp_path, name="faulty")
        replayed = replay_campaign(tmp_path, name="faulty")
        assert [r.verdict for r in replayed.results] == [
            r.verdict for r in recorded.results
        ]
        assert not replayed.passed

    def test_timed_workload_record_replay_round_trip(self, tmp_path):
        # Replay regenerates the workload's arrival process from the
        # manifest and re-injects at the original timestamps, so even a
        # time-stamping program reproduces its own recording.
        matrix = tiny_matrix(
            programs=["int_telemetry"], workloads=["burst"], count=4
        )
        recorded = record_campaign(matrix, tmp_path, name="timed")
        assert recorded.passed
        replayed = replay_campaign(tmp_path, name="timed")
        assert replayed.passed

    def test_replay_reads_arrival_times_from_manifest(self, tmp_path):
        # The manifest persists the workload's arrival process, so a
        # recording stays replayable even if the live generators ever
        # change. Stripping the times (a pre-times manifest) makes the
        # time-stamping program replay at the device clock and diverge
        # from its own recording — proving replay consumes them.
        matrix = tiny_matrix(
            programs=["int_telemetry"], workloads=["burst"], count=4
        )
        record_campaign(matrix, tmp_path, name="timed2")
        manifest_path = tmp_path / "timed2.manifest.json"
        manifest = json.loads(manifest_path.read_text())
        assert manifest["scenarios"][0]["times_ns"]
        assert replay_campaign(tmp_path, name="timed2").passed
        for scenario in manifest["scenarios"]:
            scenario.pop("times_ns")
        manifest_path.write_text(json.dumps(manifest))
        assert not replay_campaign(tmp_path, name="timed2").passed

    def test_recording_builds_each_workload_once(
        self, tmp_path, monkeypatch
    ):
        """Each recorded cell's arrival process rides back with its
        result, so recording builds every workload exactly once (in
        the process that runs the cell) and the manifest still holds
        the bytes freshly generated workloads give: serially, on a
        2-worker pool and across the cluster wire."""
        from repro.netdebug import campaign
        from repro.netdebug.cluster import ClusterExecutor

        matrix = tiny_matrix(
            programs=["int_telemetry"],
            workloads=["burst", "udp", "tcp_bidir"],
            count=6,
        )
        cells = matrix.expand()
        expected = _fresh_manifest(matrix, cells, "arrivals")
        calls = []
        real = campaign.build_workload

        def counted(*args, **kwargs):
            calls.append(args[0])
            return real(*args, **kwargs)

        monkeypatch.setattr(campaign, "build_workload", counted)
        record_campaign(matrix, tmp_path / "serial", name="arrivals")
        assert sorted(calls) == sorted(s.workload for s in cells)
        del calls[:]
        record_campaign(
            matrix, tmp_path / "pool", workers=2, name="arrivals"
        )
        run_campaign(
            matrix, name="arrivals", record_dir=tmp_path / "cluster",
            executor=ClusterExecutor(workers=2, timeout=300),
        )
        # Pool and cluster workers build the workloads; the recording
        # process builds none.
        assert calls == []
        for run in ("serial", "pool", "cluster"):
            manifest = tmp_path / run / "arrivals.manifest.json"
            assert manifest.read_text() == expected, run

    def test_predicate_faults_cannot_be_recorded(self, tmp_path):
        matrix = tiny_matrix(
            faults={
                "picky": (
                    Fault(
                        FaultKind.BLACKHOLE,
                        stage="ingress.0",
                        predicate=lambda packet: True,
                    ),
                ),
            },
        )
        with pytest.raises(NetDebugError):
            record_campaign(matrix, tmp_path, name="nope")

    def test_truncated_artifact_refuses_replay(self, tmp_path):
        import struct

        record_campaign(tiny_matrix(), tmp_path, name="trunc")
        pcap = tmp_path / "scenario-0000.pcap"
        raw = bytearray(pcap.read_bytes())
        # Claim the first record was longer on the wire than captured.
        incl_len = struct.unpack_from("<I", raw, 24 + 8)[0]
        struct.pack_into("<I", raw, 24 + 12, incl_len + 100)
        pcap.write_bytes(bytes(raw))
        with pytest.raises(NetDebugError, match="truncated"):
            replay_campaign(tmp_path, name="trunc")

    def test_replay_without_manifest_rejected(self, tmp_path):
        with pytest.raises(NetDebugError):
            replay_campaign(tmp_path, name="missing")

    def test_replay_unknown_target_manifest_rejected(self, tmp_path):
        record_campaign(tiny_matrix(), tmp_path, name="skewed")
        manifest = tmp_path / "skewed.manifest.json"
        payload = json.loads(manifest.read_text())
        payload["scenarios"][0]["target"] = "bmv2"
        manifest.write_text(json.dumps(payload))
        with pytest.raises(UnknownTargetError) as excinfo:
            replay_campaign(tmp_path, name="skewed")
        assert "scenario 0" in str(excinfo.value)
        assert "tofino" in str(excinfo.value)  # lists known targets


class TestThreeWayMatrix:
    """The (program × target) axis with the Tofino-like third backend."""

    def three_way_matrix(self, count=8, **overrides) -> ScenarioMatrix:
        base = dict(
            programs=["strict_parser", "acl_firewall"],
            targets=["reference", "sdnet", "tofino"],
            faults={"baseline": ()},
            workloads=["udp", "malformed"],
            count=count,
            seed=7,
            setup="acl_gate",
        )
        base.update(overrides)
        return ScenarioMatrix(**base)

    def test_per_target_verdicts_split_on_two_programs(self):
        report = run_campaign(self.three_way_matrix(), name="3way")
        verdicts = {
            (r.scenario.program, r.scenario.target, r.scenario.workload):
                r.passed
            for r in report.results
        }
        # strict_parser: tofino truncates the deparse on valid traffic,
        # sdnet leaks rejects on malformed traffic, reference is clean.
        assert verdicts[("strict_parser", "reference", "udp")]
        assert verdicts[("strict_parser", "sdnet", "udp")]
        assert not verdicts[("strict_parser", "tofino", "udp")]
        assert verdicts[("strict_parser", "reference", "malformed")]
        assert not verdicts[("strict_parser", "sdnet", "malformed")]
        # acl_firewall: only tofino's quantized TCAM denies the traffic
        # the spec admits.
        assert verdicts[("acl_firewall", "reference", "udp")]
        assert verdicts[("acl_firewall", "sdnet", "udp")]
        assert not verdicts[("acl_firewall", "tofino", "udp")]

    def test_failures_fully_explained_by_declared_tags(self):
        report = run_campaign(self.three_way_matrix(), name="3way-explain")
        for result in report.results:
            if result.passed:
                continue
            device = TARGETS[result.scenario.target]("explain")
            compiled = device.load(PROGRAMS[result.scenario.program]())
            kinds = {f.kind for f in result.report.findings}
            explanations = explain_findings(compiled, kinds)
            for kind, diagnoses in explanations.items():
                assert diagnoses, (
                    f"{result.scenario.key}: finding kind {kind!r} not "
                    f"explained by {compiled.silent_deviations}"
                )

    def test_three_way_determinism_one_vs_four_workers(self):
        matrix = self.three_way_matrix(count=5)
        serial = run_campaign(matrix, workers=1, name="det3")
        parallel = run_campaign(matrix, workers=4, name="det3")
        assert serial.to_json() == parallel.to_json()
        assert serial.scenarios == 2 * 3 * 1 * 2

    def test_three_way_record_replay_round_trip(self, tmp_path):
        matrix = self.three_way_matrix(count=6)
        recorded = record_campaign(matrix, tmp_path, name="gold3")
        replayed = replay_campaign(tmp_path, name="gold3", workers=2)
        assert replayed.scenarios == recorded.scenarios
        assert [r.verdict for r in replayed.results] == [
            r.verdict for r in recorded.results
        ]
        # The deviant cells stay deviant through the artifact round trip.
        assert not replayed.passed


class TestCampaignReport:
    def test_json_round_trip(self, tmp_path):
        report = run_campaign(tiny_matrix(workloads=["udp", "malformed"]))
        path = report.save(tmp_path / "campaign.json")
        loaded = CampaignReport.load(path)
        assert loaded.to_json() == report.to_json()

    @pytest.mark.parametrize("seed", [0, 7, 2018])
    def test_from_json_reconstructs_byte_identical_json(self, seed):
        # The differ's contract: to_json(from_json(x)) == x, across
        # passing, failing and deviant-target campaigns.
        matrix = tiny_matrix(
            targets=["reference", "sdnet", "tofino"],
            workloads=["udp", "malformed"],
            seed=seed,
        )
        text = run_campaign(matrix, name=f"rt{seed}").to_json()
        assert CampaignReport.from_json(text).to_json() == text

    def test_summary_and_aggregates(self):
        matrix = tiny_matrix(
            targets=["reference", "sdnet"], workloads=["malformed"],
            count=10,
        )
        report = run_campaign(matrix, name="agg")
        text = report.summary()
        assert "agg" in text and "FAIL" in text
        assert report.findings_by_kind().get("unexpected_output")
        assert report.latency_summary()["cycles_per_packet_mean"] > 0
        assert len(report.failed()) == 1

    def test_controller_archives_campaign(self):
        device = make_reference_device("camp-ctl")
        device.load(strict_parser())
        controller = NetDebugController(device)
        report = run_campaign(tiny_matrix(workloads=["udp", "imix"]))
        archived = controller.archive_campaign(report)
        assert archived == 2
        assert len(controller.reports) == 2
        with pytest.raises(NetDebugError):
            controller.archive_campaign(object())


class TestExecutorSeam:
    """run_campaign's dispatch strategy is pluggable; every executor
    shares expansion, ingest and reassembly."""

    def test_explicit_serial_executor_matches_default(self):
        from repro.netdebug.campaign import SerialExecutor

        matrix = tiny_matrix(workloads=["udp", "malformed"])
        assert (
            run_campaign(matrix, name="seam").to_json()
            == run_campaign(
                matrix, name="seam", executor=SerialExecutor()
            ).to_json()
        )

    def test_pool_executor_streams_before_the_barrier(self):
        from repro.netdebug.campaign import PoolExecutor

        matrix = tiny_matrix(
            programs=["strict_parser", "l2_switch"],
            workloads=["udp", "malformed"],
        )
        events = []
        report = run_campaign(
            matrix,
            name="stream",
            executor=PoolExecutor(2),
            on_result=lambda key, rep, progress: events.append(
                (key, progress.completed, progress.total,
                 progress.fraction)
            ),
        )
        assert len(events) == report.scenarios
        assert [e[1] for e in events] == list(range(1, len(events) + 1))
        assert events[-1][3] == 1.0

    def test_on_result_failed_counter_tracks_verdicts(self):
        matrix = tiny_matrix(
            targets=["reference", "sdnet"], workloads=["malformed"],
            count=6,
        )
        progresses = []
        run_campaign(
            matrix, name="counts",
            on_result=lambda key, rep, progress: progresses.append(
                progress
            ),
        )
        assert progresses[-1].failed == 1  # the sdnet reject-leak cell

    def test_pool_executor_rejects_zero_workers(self):
        from repro.netdebug.campaign import PoolExecutor

        with pytest.raises(NetDebugError):
            PoolExecutor(0)

    def test_replay_rides_the_same_seam(self, tmp_path):
        from repro.netdebug.campaign import SerialExecutor

        record_campaign(tiny_matrix(), tmp_path, name="seamr")
        events = []
        replayed = replay_campaign(
            tmp_path, name="seamr", executor=SerialExecutor(),
            on_result=lambda key, rep, progress: events.append(key),
        )
        assert replayed.scenarios == 1
        assert events == [replayed.results[0].scenario.key]


class TestLatencySla:
    """Scenario cells can carry a p99 tail-latency SLA graded via
    LatencyCheck over the shard's latency samples."""

    def test_generous_sla_passes_and_carries_samples(self):
        report = run_campaign(
            tiny_matrix(sla_p99_cycles=100000.0), name="sla-ok"
        )
        result = report.results[0]
        assert result.passed
        assert result.report.latency.count == result.report.injected
        outcome = {c.rule: c for c in result.report.checks}["sla-p99"]
        assert outcome.ok

    def test_tight_sla_breaches_and_fails_the_cell(self):
        report = run_campaign(
            tiny_matrix(sla_p99_cycles=1.0), name="sla-breach"
        )
        result = report.results[0]
        assert not result.passed
        breaches = result.report.findings_of("sla_breach")
        assert breaches and "exceeds SLA" in breaches[0].message

    def test_sla_report_round_trips_byte_identically(self):
        text = run_campaign(
            tiny_matrix(sla_p99_cycles=1.0), name="sla-rt"
        ).to_json()
        assert CampaignReport.from_json(text).to_json() == text
        assert '"sla_p99_cycles"' in text

    def test_unslad_report_omits_the_field(self):
        assert '"sla_p99_cycles"' not in run_campaign(
            tiny_matrix(), name="sla-none"
        ).to_json()

    @pytest.mark.parametrize("bad", [0.0, -5.0, float("inf")])
    def test_invalid_sla_rejected(self, bad):
        with pytest.raises(NetDebugError):
            tiny_matrix(sla_p99_cycles=bad).expand()

    def test_sla_recorded_in_manifest(self, tmp_path):
        record_campaign(
            tiny_matrix(sla_p99_cycles=500.0), tmp_path, name="slam"
        )
        payload = json.loads(
            (tmp_path / "slam.manifest.json").read_text()
        )
        assert payload["scenarios"][0]["sla_p99_cycles"] == 500.0


class TestStdlibExtSweep:
    """stateful_firewall and int_telemetry ride the campaign sweep."""

    def test_ext_programs_registered_everywhere(self):
        assert "stateful_firewall" in PROGRAMS
        assert "int_telemetry" in PROGRAMS
        assert "stateful_firewall" in PROVISIONERS
        assert "int_telemetry" in PROVISIONERS

    def test_ext_matrix_smoke_passes_on_timed_workloads(self):
        # Timed workloads (burst/onoff) let the oracle see the exact
        # injection timestamps int_telemetry stamps into packets; the
        # firewall's outbound-only campaign traffic opens its own flow
        # slots in-band.
        matrix = ScenarioMatrix(
            programs=["stateful_firewall", "int_telemetry"],
            targets=["reference", "sdnet"],
            workloads=["burst", "onoff"],
            count=6,
            seed=5,
            setup="stateful_firewall",
        )
        report = run_campaign(matrix, name="ext", workers=1)
        assert report.scenarios == 2 * 2 * 1 * 2
        assert report.passed
        assert report.injected == 8 * 6

    def test_ext_matrix_parallel_determinism(self):
        matrix = ScenarioMatrix(
            programs=["stateful_firewall", "int_telemetry"],
            targets=["reference"],
            workloads=["burst"],
            count=4,
            seed=9,
        )
        assert (
            run_campaign(matrix, workers=1, name="extd").to_json()
            == run_campaign(matrix, workers=2, name="extd").to_json()
        )

    def test_int_telemetry_untimed_workload_flags_timestamp_drift(self):
        # Without a workload-defined arrival process the oracle cannot
        # know the device clock at injection, so the stamped ingress_ts
        # diverges from packet 2 on — deterministically.
        report_a = run_campaign(
            tiny_matrix(programs=["int_telemetry"], count=4), name="drift"
        )
        report_b = run_campaign(
            tiny_matrix(programs=["int_telemetry"], count=4), name="drift"
        )
        assert not report_a.passed
        assert report_a.to_json() == report_b.to_json()


class TestInstall:
    def test_install_reuses_artifact_on_fresh_device(self):
        first = make_reference_device("inst-a")
        compiled = first.load(strict_parser())
        second = make_reference_device("inst-b")
        second.install(compiled)
        wire = b"\x00" * 64
        assert second.stats.processed == 0
        second.inject(wire)
        assert second.stats.processed == 1
        assert first.stats.processed == 0  # state is per device

    def test_install_rejects_cross_target_artifact(self):
        reference = make_reference_device("inst-ref")
        compiled = reference.load(strict_parser())
        sdnet = make_sdnet_device("inst-sd")
        with pytest.raises(TargetError):
            sdnet.install(compiled)
