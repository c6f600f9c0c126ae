"""Cross-version campaign diffing: flips, explanations, baselines, CLI.

The regression-gate contract under test:

* committed golden baselines regenerate byte-identically on this
  checkout (the CI gate's precondition);
* identical runs diff to nothing and exit 0; an injected deviation
  diffs to an unexplained verdict flip and exits 1;
* a flip is excused only by a declared deviation-tag change on the same
  (program × target) differential cell;
* disjoint scenario/cell sets are reported, never a crash;
* the diff JSON itself is seed-deterministic (byte-identical).
"""

import json
from pathlib import Path

import pytest

from repro.exceptions import NetDebugError
from repro.netdebug.campaign import (
    CampaignReport,
    Scenario,
    ScenarioResult,
    run_campaign,
)
from repro.netdebug.differential import (
    DifferentialCell,
    DifferentialReport,
    DifferentialRunner,
    Observation,
    PacketDiff,
)
from repro.netdebug.diffing import (
    BASELINE_SEED,
    BASELINES,
    baseline_cases,
    baseline_matrix,
    diff_campaigns,
    diff_differentials,
    inject_unexplained_flip,
    load_report,
    main,
    write_baselines,
)
from repro.netdebug.report import Finding, SessionReport
from repro.target.tofino import TCAM_QUANTIZED

BASELINE_DIR = Path(__file__).resolve().parent.parent / "baselines"


# ---------------------------------------------------------------------------
# Synthetic report builders (no devices needed)
# ---------------------------------------------------------------------------

def make_result(
    index: int,
    program: str = "strict_parser",
    target: str = "reference",
    fault: str = "baseline",
    workload: str = "udp",
    findings: tuple[str, ...] = (),
) -> ScenarioResult:
    report = SessionReport(
        session=f"s{index}", device=target, program=program,
        injected=4, observed=4,
    )
    for kind in findings:
        report.findings.append(Finding(kind=kind, message=f"{kind} hit"))
    return ScenarioResult(
        scenario=Scenario(
            index=index, program=program, target=target, fault=fault,
            workload=workload, count=4, seed=index,
        ),
        report=report,
    )


def make_campaign(name: str, *results: ScenarioResult) -> CampaignReport:
    return CampaignReport(name=name, results=list(results))


def make_cell(
    program: str = "acl_firewall",
    target: str = "tofino",
    tags: tuple[str, ...] = (),
    explained: int = 0,
    unexplained: int = 0,
    compile_rejected: str = "",
    program_name: str = "",
) -> DifferentialCell:
    diffs = [
        PacketDiff(
            index=i,
            kinds=("verdict",),
            spec=Observation(verdict="forwarded", egress=2),
            observed=Observation(verdict="dropped"),
            explained_by=tags[:1] if i < explained else (),
        )
        for i in range(explained + unexplained)
    ]
    return DifferentialCell(
        program=program, target=target, packets=16,
        compile_rejected=compile_rejected,
        program_name=program_name,
        deviation_tags=tags, diffs=diffs,
    )


def make_matrix(*cells: DifferentialCell) -> DifferentialReport:
    return DifferentialReport(seed=2018, count=16, cells=list(cells))


def baseline_campaign(count: int) -> CampaignReport:
    """The seeded baseline campaign at a smaller per-scenario count."""
    return run_campaign(baseline_matrix(count=count), name="baseline")


def baseline_differential(count: int) -> DifferentialReport:
    """The seeded baseline differential matrix at a smaller count."""
    return DifferentialRunner(
        cases=baseline_cases(), count=count, seed=BASELINE_SEED
    ).run()


# ---------------------------------------------------------------------------
# Golden baselines
# ---------------------------------------------------------------------------

class TestGoldenBaselines:
    @pytest.mark.parametrize("kind", list(BASELINES))
    def test_registered_golden_regenerates_byte_identically(
        self, kind, tmp_path
    ):
        # The CI golden job's precondition on this very checkout:
        # re-running each registered kind (its claim check included)
        # reproduces the committed file exactly.
        [fresh] = write_baselines(tmp_path, workers=2, only=[kind]).values()
        assert fresh.read_bytes() == (
            BASELINE_DIR / f"{kind}.json"
        ).read_bytes(), (
            f"baselines/{kind}.json is stale — regenerate with "
            f"python -m repro.netdebug.diffing --write-baseline --only "
            f"{kind} (and explain the behaviour change in the PR)"
        )

    def test_every_committed_golden_is_registered(self):
        assert sorted(p.stem for p in BASELINE_DIR.glob("*.json")) == (
            sorted(BASELINES)
        )

    def test_baseline_matrix_is_the_full_three_way(self):
        scenarios = baseline_matrix().expand()
        assert len(scenarios) == 2 * 3 * 1 * 2
        assert {s.target for s in scenarios} == {
            "reference", "sdnet", "tofino"
        }

    def test_unchanged_build_diffs_clean(self):
        old = baseline_campaign(count=4)
        new = baseline_campaign(count=4)
        matrix = baseline_differential(count=6)
        diff = diff_campaigns(old, new, matrix, matrix)
        assert not diff.deltas and not diff.added and not diff.removed
        assert not diff.is_regression
        assert diff.matrix is not None and not diff.matrix.cells


# ---------------------------------------------------------------------------
# Campaign diffing edge cases
# ---------------------------------------------------------------------------

class TestCampaignDiff:
    def test_empty_campaigns_diff_to_nothing(self):
        diff = diff_campaigns(make_campaign("a"), make_campaign("b"))
        assert diff.old_scenarios == diff.new_scenarios == 0
        assert not diff.deltas and not diff.is_regression
        assert diff.latency["delta"]["cycles_per_packet_mean"] == 0.0

    def test_disjoint_scenario_sets_reported_not_crashed(self):
        old = make_campaign("a", make_result(0, workload="udp"))
        new = make_campaign("b", make_result(0, workload="imix"))
        diff = diff_campaigns(old, new)
        assert diff.added == ["strict_parser/reference/baseline/imix"]
        assert diff.removed == ["strict_parser/reference/baseline/udp"]
        assert not diff.flips and not diff.is_regression

    def test_added_scenario_findings_do_not_read_as_churn(self):
        # A failing scenario that only exists on the new side belongs
        # to the added listing; campaign-level kind churn covers shared
        # scenarios only, so pure matrix growth diffs churn-free.
        old = make_campaign("a", make_result(0))
        new = make_campaign(
            "b",
            make_result(0),
            make_result(
                1, workload="imix", findings=("unexpected_output",)
            ),
        )
        diff = diff_campaigns(old, new)
        assert diff.added == ["strict_parser/reference/baseline/imix"]
        assert diff.kind_churn == {}
        assert not diff.deltas and not diff.is_regression

    def test_matrix_growth_diffs_as_added_scenarios(self):
        # Growing a real matrix axis must surface as added scenarios
        # only: no seed-mismatch comparability errors AND no verdict or
        # score churn on shared keys — seeds and traffic flows both key
        # on scenario identity, never matrix position. acl_firewall on
        # tofino is flow-sensitive (the quantized-TCAM denial depends
        # on the workload's ports), so positional flows would churn it.
        from repro.netdebug.campaign import ScenarioMatrix, run_campaign

        def run(workloads):
            return run_campaign(
                ScenarioMatrix(
                    programs=["strict_parser", "acl_firewall"],
                    targets=["reference", "tofino"],
                    workloads=workloads, count=4, seed=2018,
                    setup="acl_gate",
                ),
                name="grow",
            )

        old = run(["udp", "malformed"])
        new = run(["udp", "imix", "malformed"])
        diff = diff_campaigns(old, new)
        assert diff.added == [
            "acl_firewall/reference/baseline/imix",
            "acl_firewall/tofino/baseline/imix",
            "strict_parser/reference/baseline/imix",
            "strict_parser/tofino/baseline/imix",
        ]
        assert not diff.removed and not diff.deltas
        assert not diff.is_regression

    def test_pass_to_fail_flip_is_unexplained_without_matrix(self):
        old = make_campaign("a", make_result(0))
        new = make_campaign(
            "b", make_result(0, findings=("unexpected_output",))
        )
        diff = diff_campaigns(old, new)
        (flip,) = diff.flips
        assert flip.direction == "pass->fail"
        assert flip.kind_churn == {"unexpected_output": 1}
        assert not flip.explained
        assert diff.is_regression
        assert diff.kind_churn == {"unexpected_output": 1}

    def test_fail_to_pass_flip_also_needs_an_explanation(self):
        # A silently "fixed" cell is as suspicious as a broken one: the
        # behaviour changed and nothing declared explains it.
        old = make_campaign(
            "a", make_result(0, findings=("missing_output",))
        )
        new = make_campaign("b", make_result(0))
        diff = diff_campaigns(old, new)
        (flip,) = diff.flips
        assert flip.direction == "fail->pass"
        assert diff.is_regression

    def test_tag_change_on_matching_cell_explains_the_flip(self):
        old = make_campaign(
            "a", make_result(0, program="acl_firewall", target="tofino")
        )
        new = make_campaign(
            "b",
            make_result(
                0, program="acl_firewall", target="tofino",
                findings=("missing_output",),
            ),
        )
        old_matrix = make_matrix(make_cell(tags=()))
        new_matrix = make_matrix(
            make_cell(tags=(TCAM_QUANTIZED,), explained=4)
        )
        diff = diff_campaigns(old, new, old_matrix, new_matrix)
        (flip,) = diff.flips
        assert flip.explained_by == (TCAM_QUANTIZED,)
        assert not diff.is_regression

    def test_labeled_cell_excuses_via_underlying_program_name(self):
        # A differential case labeled 'acl_gate' still runs
        # acl_firewall; its declared tag change must excuse flips on
        # the acl_firewall campaign cells.
        old = make_campaign(
            "a", make_result(0, program="acl_firewall", target="tofino")
        )
        new = make_campaign(
            "b",
            make_result(
                0, program="acl_firewall", target="tofino",
                findings=("missing_output",),
            ),
        )
        old_matrix = make_matrix(
            make_cell(program="acl_gate", program_name="acl_firewall")
        )
        new_matrix = make_matrix(
            make_cell(
                program="acl_gate", program_name="acl_firewall",
                tags=(TCAM_QUANTIZED,), explained=4,
            )
        )
        diff = diff_campaigns(old, new, old_matrix, new_matrix)
        (flip,) = diff.flips
        assert flip.explained_by == (TCAM_QUANTIZED,)
        assert not diff.is_regression

    def test_tag_change_on_other_cell_does_not_excuse(self):
        old = make_campaign(
            "a", make_result(0, program="strict_parser", target="sdnet")
        )
        new = make_campaign(
            "b",
            make_result(
                0, program="strict_parser", target="sdnet",
                findings=("unexpected_output",),
            ),
        )
        # The declared change is on acl_firewall/tofino, not this cell.
        old_matrix = make_matrix(make_cell(tags=()))
        new_matrix = make_matrix(
            make_cell(tags=(TCAM_QUANTIZED,), explained=4)
        )
        diff = diff_campaigns(old, new, old_matrix, new_matrix)
        (flip,) = diff.flips
        assert not flip.explained
        assert diff.is_regression

    def test_finding_churn_without_flip_is_reported_not_fatal(self):
        old = make_campaign(
            "a", make_result(0, findings=("unexpected_output",))
        )
        new = make_campaign(
            "b",
            make_result(
                0, findings=("unexpected_output", "unexpected_output")
            ),
        )
        diff = diff_campaigns(old, new)
        (delta,) = diff.deltas
        assert not delta.flipped
        assert delta.kind_churn == {"unexpected_output": 1}
        assert not diff.is_regression

    def test_score_only_delta_shows_its_cause(self):
        # Same verdict, same finding kinds, different score (one leak
        # in 4 packets vs one in 8): the rendered row must say why the
        # scenario is listed.
        old = make_campaign(
            "a", make_result(0, findings=("unexpected_output",))
        )
        new = make_campaign(
            "b", make_result(0, findings=("unexpected_output",))
        )
        new.results[0].report.injected = 8
        new.results[0].report.observed = 8
        diff = diff_campaigns(old, new)
        (delta,) = diff.deltas
        assert not delta.flipped and not delta.kind_churn
        assert "score +0.125" in diff.summary()
        assert "score +0.125" in diff.to_markdown()

    def test_latency_only_shift_suppresses_no_change_claim(self):
        old = make_campaign("a", make_result(0))
        new = make_campaign("b", make_result(0))
        new.results[0].report.measurements["cycles_per_packet"] = 99.0
        diff = diff_campaigns(old, new)
        assert not diff.deltas and not diff.is_regression
        assert "no behavioural changes" not in diff.summary()
        assert "No behavioural changes" not in diff.to_markdown()

    def test_clean_diff_omits_latency_noise(self):
        old = make_campaign("a", make_result(0))
        new = make_campaign("b", make_result(0))
        diff = diff_campaigns(old, new)
        assert "latency" not in diff.summary()
        assert "## Latency" not in diff.to_markdown()
        # ...but the JSON rendering always carries the full summaries.
        assert "latency" in json.loads(diff.to_json())

    @pytest.mark.parametrize(
        "overrides",
        [{"count": 8}, {"seed": 99}, {"setup": "acl_gate"}],
    )
    def test_mismatched_scenario_config_rejected(self, overrides):
        # A 4-packet run vs an 8-packet run of the "same" scenario — or
        # one provisioned differently — is not a regression signal;
        # refuse to compare.
        old = make_campaign("a", make_result(0))
        bumped = make_result(0)
        base = dict(
            index=0, program="strict_parser", target="reference",
            fault="baseline", workload="udp", count=4, seed=0,
        )
        base.update(overrides)
        bumped.scenario = Scenario(**base)
        new = make_campaign("b", bumped)
        with pytest.raises(NetDebugError, match="not comparable"):
            diff_campaigns(old, new)

    def test_gate_drill_needs_a_passing_scenario(self):
        all_failing = make_campaign(
            "a", make_result(0, findings=("missing_output",))
        )
        with pytest.raises(NetDebugError, match="passing scenario"):
            inject_unexplained_flip(all_failing.to_dict())

    def test_duplicate_scenario_keys_rejected(self):
        twice = make_campaign("a", make_result(0), make_result(1))
        with pytest.raises(NetDebugError, match="duplicate"):
            diff_campaigns(twice, make_campaign("b"))

    def test_diff_json_is_deterministic(self):
        def build():
            old = make_campaign(
                "a", make_result(0), make_result(1, workload="imix")
            )
            new = make_campaign(
                "b", make_result(0, findings=("sequence_loss",)),
                make_result(2, workload="poisson"),
            )
            return diff_campaigns(old, new)

        assert build().to_json() == build().to_json()

    def test_renderings_cover_every_section(self):
        old = make_campaign("v1", make_result(0), make_result(1, workload="imix"))
        new = make_campaign(
            "v2", make_result(0, findings=("unexpected_output",)),
            make_result(2, workload="poisson"),
        )
        diff = diff_campaigns(
            old, new, make_matrix(make_cell(tags=())),
            make_matrix(make_cell(tags=(TCAM_QUANTIZED,), explained=2)),
        )
        text = diff.summary()
        assert "flip [pass->fail]" in text and "added" in text
        md = diff.to_markdown()
        assert "## Scenario changes" in md
        assert "## Differential matrix" in md
        assert "UNEXPLAINED" in md
        payload = json.loads(diff.to_json())
        assert payload["is_regression"] is True
        assert payload["flips"] == 1


# ---------------------------------------------------------------------------
# Differential-matrix diffing
# ---------------------------------------------------------------------------

class TestMatrixDiff:
    def test_identical_matrices_diff_to_nothing(self):
        a = make_matrix(make_cell(tags=(TCAM_QUANTIZED,), explained=3))
        b = make_matrix(make_cell(tags=(TCAM_QUANTIZED,), explained=3))
        diff = diff_differentials(a, b)
        assert not diff.cells and not diff.is_regression

    def test_tag_count_churn_reported_but_not_fatal(self):
        a = make_matrix(make_cell(tags=(TCAM_QUANTIZED,), explained=3))
        b = make_matrix(make_cell(tags=(TCAM_QUANTIZED,), explained=5))
        diff = diff_differentials(a, b)
        (cell,) = diff.cells
        assert cell.tag_churn == {TCAM_QUANTIZED: [3, 5]}
        assert not diff.is_regression

    def test_equal_count_unexplained_identity_swap_is_a_regression(self):
        # One unexplained diff fixed, a DIFFERENT one introduced: the
        # count delta is zero but the new bug must still fail the gate.
        def cell_with_unexplained_at(index):
            cell = make_cell(tags=())
            cell.diffs = [
                PacketDiff(
                    index=index, kinds=("verdict",),
                    spec=Observation(verdict="forwarded", egress=2),
                    observed=Observation(verdict="dropped"),
                    explained_by=(),
                )
            ]
            return cell

        a = make_matrix(cell_with_unexplained_at(3))
        b = make_matrix(cell_with_unexplained_at(7))
        diff = diff_differentials(a, b)
        (cell,) = diff.cells
        assert cell.unexplained_delta == 0
        assert cell.new_unexplained == 1
        assert diff.is_regression

    def test_same_index_different_observation_is_a_regression(self):
        # Same packet, same diff kind, different observed behaviour:
        # still a new bug, not a no-op.
        def cell_observing(egress):
            cell = make_cell(tags=())
            cell.diffs = [
                PacketDiff(
                    index=3, kinds=("egress",),
                    spec=Observation(
                        verdict="forwarded", egress=1, wire="aa"
                    ),
                    observed=Observation(
                        verdict="forwarded", egress=egress, wire="aa"
                    ),
                    explained_by=(),
                )
            ]
            return cell

        diff = diff_differentials(
            make_matrix(cell_observing(2)), make_matrix(cell_observing(7))
        )
        (cell,) = diff.cells
        assert cell.unexplained_delta == 0
        assert cell.new_unexplained == 1
        assert diff.is_regression

    def test_unexplained_shrink_is_not_a_regression(self):
        old = make_matrix(make_cell(tags=(), unexplained=2))
        new = make_matrix(make_cell(tags=(), unexplained=1))
        diff = diff_differentials(old, new)
        (cell,) = diff.cells
        assert cell.unexplained_delta == -1
        assert cell.new_unexplained == 0
        assert not diff.is_regression

    def test_unexplained_growth_is_a_regression(self):
        a = make_matrix(make_cell(tags=(TCAM_QUANTIZED,), explained=3))
        b = make_matrix(
            make_cell(tags=(TCAM_QUANTIZED,), explained=3, unexplained=1)
        )
        diff = diff_differentials(a, b)
        (cell,) = diff.cells
        assert cell.unexplained_delta == 1
        assert diff.is_regression

    def test_new_compile_rejection_is_a_regression(self):
        a = make_matrix(make_cell())
        b = make_matrix(make_cell(compile_rejected="RANGE unsupported"))
        diff = diff_differentials(a, b)
        assert diff.is_regression

    def test_markdown_escapes_pipes_in_compiler_text(self):
        from repro.netdebug.diffing import matrix_only_diff

        a = make_matrix(make_cell())
        b = make_matrix(
            make_cell(compile_rejected="key a|b: RANGE unsupported")
        )
        md = matrix_only_diff(a, b).to_markdown()
        assert "a\\|b" in md  # the raw pipe would split the table row

    def test_markdown_names_every_regression_cause(self):
        # A cell regressed only via model mismatches or a lost build
        # must still show its cause in the markdown table (the CI job
        # summary), not just a bare REGRESSED flag.
        broken = make_cell()
        broken.model_mismatches = [3, 7]
        a = make_matrix(make_cell(), make_cell(program="l2_switch"))
        b = make_matrix(
            broken,
            make_cell(program="l2_switch",
                      compile_rejected="RANGE unsupported"),
        )
        from repro.netdebug.diffing import matrix_only_diff

        md = matrix_only_diff(a, b).to_markdown()
        assert "model-mismatch +2" in md
        assert "compile: ok -> RANGE unsupported" in md

    def test_duplicate_matrix_cells_rejected(self):
        # Mirrors the campaign side: a shadowed duplicate cell could
        # hide a regression behind its twin.
        twice = make_matrix(make_cell(), make_cell())
        with pytest.raises(NetDebugError, match="duplicate"):
            diff_differentials(twice, make_matrix(make_cell()))

    def test_mismatched_matrix_config_rejected(self):
        a = make_matrix(make_cell())
        b = make_matrix(make_cell())
        b.count = 64
        with pytest.raises(NetDebugError, match="not comparable"):
            diff_differentials(a, b)

    def test_disjoint_cells_reported_not_crashed(self):
        a = make_matrix(make_cell(program="l2_switch", target="sdnet"))
        b = make_matrix(make_cell(program="ipv4_router", target="sdnet"))
        diff = diff_differentials(a, b)
        assert diff.added == ["ipv4_router/sdnet"]
        assert diff.removed == ["l2_switch/sdnet"]
        assert not diff.is_regression

    def test_cell_set_change_suppresses_no_change_claim(self):
        # A report listing added/removed cells must not simultaneously
        # claim "no behavioural changes".
        from repro.netdebug.diffing import matrix_only_diff

        a = make_matrix(make_cell(program="l2_switch", target="sdnet"))
        b = make_matrix(make_cell(program="ipv4_router", target="sdnet"))
        diff = matrix_only_diff(a, b)
        assert "no behavioural changes" not in diff.summary()
        assert "No behavioural changes" not in diff.to_markdown()
        assert "Added cells" in diff.to_markdown()


# ---------------------------------------------------------------------------
# CLI (the CI gate's exact entry point)
# ---------------------------------------------------------------------------

class TestCli:
    @pytest.fixture()
    def reports(self, tmp_path):
        old = baseline_campaign(count=4)
        old_path = old.save(tmp_path / "old.json")
        new_path = old.save(tmp_path / "new.json")
        return tmp_path, old, old_path, new_path

    def test_unchanged_build_exits_zero(self, reports, capsys):
        tmp_path, _, old_path, new_path = reports
        assert main([str(old_path), str(new_path)]) == 0
        assert "no regression" in capsys.readouterr().out

    def test_injected_deviation_exits_nonzero_with_flip_listing(
        self, reports, capsys
    ):
        tmp_path, old, old_path, _ = reports
        payload = inject_unexplained_flip(old.to_dict())
        tampered = tmp_path / "tampered.json"
        tampered.write_text(json.dumps(payload))
        assert main([str(old_path), str(tampered)]) == 1
        out = capsys.readouterr().out
        assert "flip [pass->fail]" in out and "UNEXPLAINED" in out

    def test_markdown_out_written_even_on_regression(
        self, reports, capsys
    ):
        tmp_path, old, old_path, _ = reports
        payload = inject_unexplained_flip(old.to_dict(),
                                          kind="missing_output")
        tampered = tmp_path / "tampered.json"
        tampered.write_text(json.dumps(payload))
        out_path = tmp_path / "diff.md"
        assert main(
            [str(old_path), str(tampered),
             "--format", "markdown", "--out", str(out_path)]
        ) == 1
        assert "❌ REGRESSION" in out_path.read_text()

    def test_differential_pair_diffs_standalone(self, tmp_path, capsys):
        matrix = baseline_differential(count=6)
        a = matrix.save(tmp_path / "a.json")
        b = matrix.save(tmp_path / "b.json")
        assert main([str(a), str(b)]) == 0

    def test_mixed_flavours_exit_two(self, reports, tmp_path, capsys):
        _, _, old_path, _ = reports
        matrix = baseline_differential(count=4)
        m = matrix.save(tmp_path / "m.json")
        assert main([str(old_path), str(m)]) == 2
        assert "error" in capsys.readouterr().err

    def test_unreadable_and_shapeless_inputs_exit_two(
        self, tmp_path, capsys
    ):
        shapeless = tmp_path / "x.json"
        shapeless.write_text('{"neither": true}')
        assert main([str(shapeless), str(shapeless)]) == 2
        assert main([str(tmp_path / "missing.json"),
                     str(shapeless)]) == 2

    @pytest.mark.parametrize(
        "payload",
        ['{"results": []}',            # missing "name"
         '{"name": "x", "results": 5}',  # wrong-typed results
         '{"cells": [{"program": "p"}]}'],  # cell missing "target"
    )
    def test_malformed_reports_exit_two_not_one(
        self, tmp_path, capsys, payload
    ):
        # A truncated baseline must read as a load error (exit 2), not
        # masquerade as a regression verdict (exit 1) in the CI gate.
        broken = tmp_path / "broken.json"
        broken.write_text(payload)
        assert main([str(broken), str(broken)]) == 2
        assert "malformed report" in capsys.readouterr().err

    def test_truncated_json_exit_two_names_the_file(
        self, tmp_path, capsys
    ):
        truncated = tmp_path / "truncated.json"
        truncated.write_text('{"name": "x", "results": [')
        assert main([str(truncated), str(truncated)]) == 2
        err = capsys.readouterr().err
        assert "truncated.json" in err and "invalid JSON" in err

    def test_unwritable_out_path_exits_two(self, reports, capsys):
        _, _, old_path, new_path = reports
        assert main(
            [str(old_path), str(new_path),
             "--out", "/nonexistent-dir/diff.md"]
        ) == 2
        captured = capsys.readouterr()
        assert "cannot write --out" in captured.err
        assert "no regression" in captured.out  # diff still printed

    def test_missing_positionals_exit_two(self, capsys):
        assert main([]) == 2
        assert "required" in capsys.readouterr().err

    def test_write_baseline_flag(self, tmp_path, capsys):
        assert main(
            ["--write-baseline", "--dir", str(tmp_path / "fresh")]
        ) == 0
        assert (tmp_path / "fresh" / "campaign.json").exists()
        assert (tmp_path / "fresh" / "differential.json").exists()

    def test_diff_mode_refuses_baseline_only_arguments(
        self, reports, capsys
    ):
        # The symmetric guard: --dir/--workers silently ignored in diff
        # mode would mask a forgotten --write-baseline.
        _, _, old_path, new_path = reports
        assert main(
            [str(old_path), str(new_path), "--workers", "4"]
        ) == 2
        assert "--write-baseline" in capsys.readouterr().err

    def test_write_baseline_empty_dir_or_bad_workers_exit_two(
        self, capsys
    ):
        # `--dir "$UNSET_VAR"` must not silently fall back to the
        # committed baselines/ directory.
        assert main(["--write-baseline", "--dir", ""]) == 2
        assert main(["--write-baseline", "--workers", "0"]) == 2
        err = capsys.readouterr().err
        assert "must not be empty" in err and ">= 1" in err

    def test_write_baseline_unwritable_dir_exits_two(self, capsys):
        assert main(
            ["--write-baseline", "--dir", "/proc/nonexistent/dir"]
        ) == 2
        assert "error" in capsys.readouterr().err

    def test_write_baseline_refuses_diff_arguments(
        self, reports, tmp_path, capsys
    ):
        # Appending --write-baseline to a diff command must not
        # silently skip the check (or clobber the golden files).
        _, _, old_path, new_path = reports
        assert main(
            [str(old_path), str(new_path), "--write-baseline",
             "--dir", str(tmp_path / "fresh")]
        ) == 2
        assert "cannot be combined" in capsys.readouterr().err
        assert not (tmp_path / "fresh").exists()

    def test_load_report_sniffs_flavours(self, reports, tmp_path):
        _, _, old_path, _ = reports
        assert isinstance(load_report(old_path), CampaignReport)
        matrix = baseline_differential(count=4)
        m = matrix.save(tmp_path / "m.json")
        assert isinstance(load_report(m), DifferentialReport)


# ---------------------------------------------------------------------------
# Compressed reports through the differ and CLI
# ---------------------------------------------------------------------------

class TestCompressedReports:
    """The diff gate on re-expanded compressed runs: a verdict flip
    hiding in a pruned (synthesized) cell must fail the gate exactly
    like a genuine flip, and every rendering must name the
    representative whose result the cell carries."""

    REP_KEY = "strict_parser/reference/baseline/udp"
    PRUNED_KEY = "strict_parser/reference/ghost/udp"

    def compressed_pair(self, flipped: bool):
        old = make_campaign(
            "old",
            make_result(0, fault="baseline"),
            make_result(1, fault="ghost"),
        )
        pruned = make_result(
            1, fault="ghost",
            findings=("unexpected_output",) if flipped else (),
        )
        pruned.represented_by = self.REP_KEY
        new = make_campaign(
            "new", make_result(0, fault="baseline"), pruned
        )
        return old, new

    def test_flip_in_pruned_cell_is_an_unexplained_regression(self):
        old, new = self.compressed_pair(flipped=True)
        diff = diff_campaigns(old, new)
        assert diff.is_regression
        (delta,) = diff.unexplained_flips
        assert delta.key == self.PRUNED_KEY
        assert delta.represented_by == self.REP_KEY
        assert delta.to_dict()["represented_by"] == self.REP_KEY

    def test_clean_pruned_cells_add_no_delta_or_marker_bytes(self):
        old, new = self.compressed_pair(flipped=False)
        diff = diff_campaigns(old, new)
        assert not diff.deltas and not diff.is_regression
        # Unflipped compressed runs serialize without the marker, so
        # pre-compression diff consumers see unchanged bytes.
        assert "represented_by" not in diff.to_json()

    def test_cli_exits_one_on_flip_hidden_in_pruned_cell(
        self, tmp_path, capsys
    ):
        old, new = self.compressed_pair(flipped=True)
        old_path = old.save(tmp_path / "old.json")
        new_path = new.save(tmp_path / "new.json")
        assert main([str(old_path), str(new_path)]) == 1
        out = capsys.readouterr().out
        assert "flip [pass->fail]" in out
        assert f"pruned cell represented by {self.REP_KEY}" in out

    def test_cli_markdown_names_the_representative(
        self, tmp_path, capsys
    ):
        old, new = self.compressed_pair(flipped=True)
        old_path = old.save(tmp_path / "old.json")
        new_path = new.save(tmp_path / "new.json")
        out_path = tmp_path / "diff.md"
        assert main(
            [str(old_path), str(new_path),
             "--format", "markdown", "--out", str(out_path)]
        ) == 1
        rendered = out_path.read_text()
        assert f"| `{self.PRUNED_KEY}` |" in rendered
        assert (
            f"pruned cell represented by `{self.REP_KEY}`" in rendered
        )


class TestWriteBaselineOnly:
    def test_only_restricts_generation(self, tmp_path, capsys):
        assert main(
            ["--write-baseline", "--dir", str(tmp_path / "fresh"),
             "--only", "compression"]
        ) == 0
        fresh = tmp_path / "fresh"
        assert (fresh / "compression.json").exists()
        assert not (fresh / "campaign.json").exists()
        assert not (fresh / "differential.json").exists()

    def test_only_is_repeatable(self, tmp_path):
        assert main(
            ["--write-baseline", "--dir", str(tmp_path / "fresh"),
             "--only", "differential", "--only", "compression"]
        ) == 0
        fresh = tmp_path / "fresh"
        assert (fresh / "differential.json").exists()
        assert (fresh / "compression.json").exists()
        assert not (fresh / "campaign.json").exists()

    def test_only_requires_write_baseline(self, tmp_path, capsys):
        old = make_campaign("old", make_result(0))
        path = old.save(tmp_path / "r.json")
        assert main([str(path), str(path), "--only", "campaign"]) == 2
        assert "--write-baseline" in capsys.readouterr().err

    def test_unknown_kind_is_rejected_in_api(self, tmp_path):
        with pytest.raises(NetDebugError, match="unknown baseline kind"):
            write_baselines(tmp_path, only=["campagne"])

    def test_unknown_kind_exits_two_before_writing(self, tmp_path, capsys):
        assert main(
            ["--write-baseline", "--dir", str(tmp_path / "fresh"),
             "--only", "compression", "--only", "campagne"]
        ) == 2
        assert "unknown baseline kind 'campagne'" in capsys.readouterr().err
        assert not (tmp_path / "fresh").exists()
