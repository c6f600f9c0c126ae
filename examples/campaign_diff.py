"""Cross-version campaign diffing: catch a firmware regression by diff.

The regression workflow at matrix scale: run the seeded baseline
campaign twice (two "firmware versions" of the same build), diff the
canonical reports, and show both outcomes a reviewer will meet —

1. **identical builds** — the diff is empty and the gate passes;
2. **a regressed build** — one scenario that used to pass now leaks a
   packet; the diff lists the verdict flip, marks it UNEXPLAINED (no
   declared deviation-tag change excuses it) and the gate fails.

The second report is tampered at the JSON level — exactly what a broken
build hands the differ: same scenarios, one new finding.

Run:  python examples/campaign_diff.py [--count N] [--workers W]
"""

import argparse

from repro.netdebug.campaign import CampaignReport, run_campaign
from repro.netdebug.differential import DifferentialRunner
from repro.netdebug.diffing import (
    BASELINE_SEED,
    baseline_cases,
    baseline_matrix,
    diff_campaigns,
    inject_unexplained_flip,
)


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--count", type=int, default=6,
                        help="packets per scenario")
    parser.add_argument("--workers", type=int, default=1)
    # parse_known_args: stay runnable under test harnesses (runpy) that
    # leave their own flags in sys.argv.
    args, _ = parser.parse_known_args()

    print("running the seeded baseline campaign twice...")
    campaign = baseline_matrix(count=args.count)
    old = run_campaign(campaign, workers=args.workers, name="baseline")
    new = run_campaign(campaign, workers=args.workers, name="baseline")
    matrix = DifferentialRunner(
        cases=baseline_cases(), count=args.count, seed=BASELINE_SEED
    ).run()

    clean = diff_campaigns(old, new, matrix, matrix)
    print()
    print(clean.summary())
    print(f"gate verdict: {'FAIL' if clean.is_regression else 'PASS'} "
          f"(exit {1 if clean.is_regression else 0})")

    # Simulate firmware v2 shipping a silent bug: one scenario that
    # passed on v1 now forwards a frame the spec drops. Tampering the
    # serialized report is deliberate — the differ sees only canonical
    # JSON, never the build that produced it.
    payload = inject_unexplained_flip(
        new.to_dict(),
        message="firmware v2 forwards a frame the spec drops",
    )
    regressed = CampaignReport.from_dict(payload)

    broken = diff_campaigns(old, regressed, matrix, matrix)
    print()
    print("after the simulated firmware regression:")
    print(broken.summary())
    assert broken.is_regression
    assert len(broken.unexplained_flips) == 1
    print(f"gate verdict: FAIL (exit 1) — "
          f"{len(broken.unexplained_flips)} unexplained verdict flip")


if __name__ == "__main__":
    main()
