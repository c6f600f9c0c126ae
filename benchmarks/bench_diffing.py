"""EXP-DIFF — cross-version campaign diffing throughput and verdicts.

The regression gate runs on every PR, so the differ itself must be
cheap: parse two canonical campaign JSONs plus two differential-matrix
JSONs, align scenarios and cells, classify flips. This benchmark times
that full parse→diff→render path on the seeded golden matrices and
verifies the two verdict shapes the gate relies on: an identical pair
diffs clean, and an injected deviation surfaces as exactly one
unexplained pass→fail flip.
"""

from conftest import emit

from repro.netdebug.campaign import CampaignReport
from repro.netdebug.diffing import (
    BASELINES,
    diff_campaigns,
    inject_unexplained_flip,
)


def test_diff_gate_kernel(benchmark):
    """One full gate evaluation: load both report pairs from JSON text,
    diff, render markdown — the per-PR cost of the CI gate."""
    campaign_json = BASELINES["campaign"].produce(1).to_json()
    matrix = BASELINES["differential"].produce(1)

    tampered = inject_unexplained_flip(
        CampaignReport.from_json(campaign_json).to_dict()
    )
    regressed = CampaignReport.from_dict(tampered)

    def gate():
        old = CampaignReport.from_json(campaign_json)
        new = CampaignReport.from_json(campaign_json)
        clean = diff_campaigns(old, new, matrix, matrix)
        broken = diff_campaigns(old, regressed, matrix, matrix)
        return clean, broken, clean.to_markdown(), broken.to_markdown()

    clean, broken, _, broken_md = benchmark(gate)

    assert not clean.is_regression and not clean.deltas
    assert broken.is_regression
    assert len(broken.unexplained_flips) == 1
    assert broken.unexplained_flips[0].direction == "pass->fail"
    assert "UNEXPLAINED" in broken_md

    emit(
        "EXP-DIFF — campaign-diff gate kernel",
        [
            f"{'scenarios':>10} {'cells':>6} {'flips':>6} "
            f"{'unexplained':>12}",
            f"{clean.old_scenarios:>10} {len(matrix.cells):>6} "
            f"{len(broken.flips):>6} "
            f"{len(broken.unexplained_flips):>12}",
        ],
    )
    benchmark.extra_info["scenarios"] = clean.old_scenarios
    benchmark.extra_info["matrix_cells"] = len(matrix.cells)
    benchmark.extra_info["clean_regression"] = clean.is_regression
    benchmark.extra_info["injected_flips"] = len(broken.flips)
