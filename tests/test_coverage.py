"""Coverage-guided packet generation: covering sets, maps, workload
wiring, campaign/differential integration and determinism pins."""

import json

import pytest

from repro.baselines.paths import SPEC_MODEL, DeviationModel
from repro.exceptions import NetDebugError, SimulationError
from repro.netdebug.campaign import (
    PROVISIONERS,
    TARGETS,
    CampaignReport,
    ScenarioMatrix,
    run_campaign,
)
from repro.netdebug.coverage import (
    CoverageMap,
    covering_set,
    verify_coverage,
    verify_report_coverage,
)
from repro.netdebug.differential import DifferentialCase, DifferentialRunner
from repro.netdebug.diffing import (
    baseline_coverage_matrix,
    run_baseline_coverage,
)
from repro.p4.stdlib import PROGRAMS, acl_firewall, strict_parser
from repro.sim.traffic import WorkloadContext, build_workload, default_flow

ALL_TARGETS = sorted(TARGETS)


def model_for(program_name, target_name, setup=""):
    """The provisioned compiled artifact's deviation model for a cell."""
    device = TARGETS[target_name](f"covtest-{target_name}-{program_name}")
    compiled = device.load(PROGRAMS[program_name]())
    if setup:
        PROVISIONERS[setup](device)
    return compiled.program, DeviationModel.from_compiled(compiled)


class TestCoveringSet:
    @pytest.mark.parametrize("program_name", sorted(PROGRAMS))
    @pytest.mark.parametrize("target_name", ALL_TARGETS)
    def test_every_feasible_path_exercised(
        self, program_name, target_name
    ):
        """The acceptance sweep: on every stdlib program × target the
        emitted set exercises 100% of the recorded behaviour classes."""
        program, model = model_for(program_name, target_name)
        wires, cmap = covering_set(
            program, model, seed=2018, target=target_name
        )
        assert len(wires) == len(cmap.covered)
        assert list(wires) == [bytes.fromhex(p.packet) for p in cmap.covered]
        missing = verify_coverage(program, model, wires, cmap)
        assert missing == []

    def test_deterministic_per_seed(self):
        program, model = model_for("acl_firewall", "tofino", "acl_gate")
        first_wires, first_map = covering_set(
            program, model, seed=7, target="tofino"
        )
        second_wires, second_map = covering_set(
            program, model, seed=7, target="tofino"
        )
        assert first_wires == second_wires
        assert first_map.to_dict() == second_map.to_dict()

    def test_seed_changes_payload_not_paths(self):
        program, model = model_for("strict_parser", "reference")
        _, map_a = covering_set(program, model, seed=1)
        _, map_b = covering_set(program, model, seed=2)
        assert map_a.signatures() == map_b.signatures()
        assert map_a.to_dict() != map_b.to_dict()  # payload bytes moved

    def test_tofino_quantization_prunes_universal_miss(self):
        """acl_gate's ternary deny mask quantizes to match-all on
        tofino: the miss branch becomes unreachable and the covering
        set shrinks accordingly, with the prune reasons recorded."""
        program, spec_model = model_for(
            "acl_firewall", "reference", "acl_gate"
        )
        _, reference_map = covering_set(
            program, spec_model, seed=2018, target="reference"
        )
        program, tofino_model = model_for(
            "acl_firewall", "tofino", "acl_gate"
        )
        _, tofino_map = covering_set(
            program, tofino_model, seed=2018, target="tofino"
        )
        assert len(tofino_map.covered) < len(reference_map.covered)
        assert any(
            "matches every packet" in path.reason
            for path in tofino_map.pruned
        )

    def test_map_round_trips(self):
        program, model = model_for("acl_firewall", "sdnet", "acl_gate")
        _, cmap = covering_set(program, model, seed=3, target="sdnet")
        data = cmap.to_dict()
        assert CoverageMap.from_dict(data).to_dict() == data

    def test_verify_coverage_names_missing_classes(self):
        program, model = model_for("strict_parser", "reference")
        wires, cmap = covering_set(program, model, seed=0)
        wires = wires[:-1]  # drop one witness
        missing = verify_coverage(program, model, wires, cmap)
        assert len(missing) == 1
        assert missing[0] in cmap.signatures()


class TestCoverageWorkload:
    def test_registered(self):
        from repro.sim.traffic import WORKLOADS

        assert "coverage" in WORKLOADS

    def test_requires_context(self):
        with pytest.raises(SimulationError, match="context"):
            build_workload("coverage", default_flow(), 8, seed=1)

    def test_count_zero_probe_is_context_free(self):
        bundle = build_workload("coverage", default_flow(), 0, seed=1)
        assert bundle.packets == ()
        assert bundle.coverage is None

    def test_count_floor_refused_loudly(self):
        context = WorkloadContext("acl_firewall", "reference", "acl_gate")
        with pytest.raises(SimulationError, match="raise the scenario"):
            build_workload(
                "coverage", default_flow(), 2, seed=1, context=context
            )

    def test_bundle_carries_map(self):
        context = WorkloadContext("strict_parser", "reference")
        bundle = build_workload(
            "coverage", default_flow(), 64, seed=1, context=context
        )
        assert bundle.coverage is not None
        assert len(bundle.packets) == len(bundle.coverage.covered)

    def test_unknown_setup_rejected(self):
        context = WorkloadContext("strict_parser", "reference", "nope")
        with pytest.raises(SimulationError, match="unknown setup"):
            build_workload(
                "coverage", default_flow(), 64, seed=1, context=context
            )


class TestCampaignIntegration:
    def test_scenario_results_carry_maps_and_meta(self):
        report = run_baseline_coverage(workers=1)
        assert len(report.results) == 6
        for result in report.results:
            assert result.coverage is not None
            assert result.coverage.program == result.scenario.program
        meta = report.meta["coverage"]
        assert set(meta) == {r.scenario.key for r in report.results}
        assert all("feasible" in cell for cell in meta.values())

    def test_report_round_trips_with_coverage(self):
        report = run_baseline_coverage(workers=1)
        data = report.to_dict()
        rebuilt = CampaignReport.from_dict(data)
        assert rebuilt.to_dict() == data
        assert rebuilt.results[0].coverage.signatures()

    def test_verify_report_coverage_clean(self):
        report = run_baseline_coverage(workers=1)
        assert verify_report_coverage(report) == {}

    def test_verify_report_coverage_catches_tampering(self):
        report = run_baseline_coverage(workers=1)
        victim = report.results[0].coverage.covered[0]
        victim.signature = "start>nowhere|dropped|"
        unexercised = verify_report_coverage(report)
        assert report.results[0].scenario.key in unexercised

    def test_non_coverage_reports_stay_unchanged(self):
        """The conditional-emission contract: scenarios without a map
        serialize exactly as before this workload existed."""
        matrix = ScenarioMatrix(
            programs=["strict_parser"],
            targets=["reference"],
            faults={"baseline": ()},
            workloads=["udp"],
            count=4,
            seed=1,
        )
        report = run_campaign(matrix, workers=1, name="plain")
        payload = report.to_dict()
        assert "coverage" not in payload["results"][0]
        assert "coverage" not in report.meta

    def test_serial_pool_cluster_byte_identical(self):
        from repro.netdebug.cluster import run_cluster_campaign

        matrix = baseline_coverage_matrix()
        serial = run_campaign(
            matrix, workers=1, name="baseline-coverage"
        )
        pooled = run_campaign(
            matrix, workers=2, name="baseline-coverage"
        )
        clustered = run_cluster_campaign(
            matrix, workers=2, name="baseline-coverage", timeout=300
        )
        assert serial.to_json() == pooled.to_json()
        assert serial.to_json() == clustered.to_json()

    def test_matches_committed_golden(self):
        report = run_baseline_coverage(workers=1)
        committed = json.loads(open("baselines/coverage.json").read())
        assert report.to_dict() == committed


class TestDifferentialIntegration:
    def test_coverage_excludes_bidirectional(self):
        with pytest.raises(NetDebugError, match="coverage"):
            DifferentialCase(
                program="strict_parser", coverage=True, bidirectional=True
            )

    def test_cells_record_and_verify_coverage(self):
        runner = DifferentialRunner(
            cases=[DifferentialCase(program="strict_parser", coverage=True)],
            count=64,
            seed=2018,
        )
        report = runner.run()
        for cell in report.cells:
            assert cell.coverage is not None
            assert cell.coverage["unexercised"] == 0
            assert cell.packets == cell.coverage["packets"]
        data = report.to_dict()
        from repro.netdebug.differential import DifferentialReport

        assert DifferentialReport.from_dict(data).to_dict() == data

    def test_unexercised_breaks_consistency(self):
        runner = DifferentialRunner(
            cases=[DifferentialCase(program="strict_parser", coverage=True)],
            count=64,
            seed=2018,
        )
        report = runner.run()
        cell = report.cells[0]
        assert cell.consistent
        cell.coverage["unexercised"] = 1
        assert not cell.consistent

    def test_count_below_covering_set_is_loud(self):
        runner = DifferentialRunner(
            cases=[
                DifferentialCase(
                    program="acl_firewall",
                    coverage=True,
                    provision=PROVISIONERS["acl_gate"],
                )
            ],
            count=2,
            seed=2018,
        )
        with pytest.raises(NetDebugError, match="raise count"):
            runner.run()

    def test_covering_set_finds_what_200_random_packets_find(self):
        """The headline claim: every deviation tag a 200-packet random
        sweep surfaces, the covering set surfaces too — at under a
        tenth of the packet budget."""
        cases = [
            DifferentialCase(program="strict_parser"),
            DifferentialCase(
                program="acl_firewall",
                provision=PROVISIONERS["acl_gate"],
            ),
        ]
        random_report = DifferentialRunner(
            cases=cases, count=200, seed=2018
        ).run()
        coverage_cases = [
            DifferentialCase(program="strict_parser", coverage=True),
            DifferentialCase(
                program="acl_firewall",
                coverage=True,
                provision=PROVISIONERS["acl_gate"],
            ),
        ]
        coverage_report = DifferentialRunner(
            cases=coverage_cases, count=200, seed=2018
        ).run()
        random_packets = coverage_packets = 0
        for random_cell in random_report.cells:
            coverage_cell = coverage_report.cell(
                random_cell.program, random_cell.target
            )
            random_tags = set(random_cell.diffs_by_tag())
            coverage_tags = set(coverage_cell.diffs_by_tag())
            assert random_tags <= coverage_tags, (
                f"{random_cell.program}/{random_cell.target}: covering "
                f"set missed tags {random_tags - coverage_tags}"
            )
            random_packets += random_cell.packets
            coverage_packets += coverage_cell.packets
        assert coverage_packets * 10 <= random_packets
