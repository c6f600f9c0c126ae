"""A parallel validation campaign sweeping programs, targets, faults
and workloads.

One declarative ScenarioMatrix replaces dozens of hand-rolled
validation sessions: every (program × target × fault × workload) cell
becomes an independent shard, shards run on a worker pool (compile
once per worker, fresh device per shard), and the aggregated
CampaignReport grades each cell. The sweep below catches both bug
classes NetDebug exists for, in one run:

* the §4 compiler bug — the SDNet-like target silently forwards
  packets the spec rejects (``unexpected_output`` on the malformed
  workload), and
* an injected hardware fault — a blackhole stage eating every packet
  (``missing_output``).

Run with ``--workers N`` to fan shards out over N processes and
``--record DIR`` to freeze the campaign to replayable regression
artifacts and replay them: the script exits 1 unless every replayed
cell's report equals the recorded one.
"""

import argparse
import sys

from repro.netdebug.campaign import (
    ScenarioMatrix,
    replay_campaign,
    run_campaign,
)
from repro.target.faults import Fault, FaultKind


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workers", type=int, default=2)
    parser.add_argument("--count", type=int, default=10,
                        help="packets per scenario")
    parser.add_argument("--record", default="",
                        help="also freeze the campaign to this directory "
                             "and replay it back")
    # parse_known_args: stay runnable under test harnesses (runpy) that
    # leave their own flags in sys.argv.
    args, _ = parser.parse_known_args()

    matrix = ScenarioMatrix(
        programs=["strict_parser", "l2_switch"],
        targets=["reference", "sdnet"],
        faults={
            "baseline": (),
            "blackhole": (
                Fault(FaultKind.BLACKHOLE, stage="ingress.0"),
            ),
        },
        workloads=["udp", "malformed", "poisson"],
        count=args.count,
        seed=2018,
    )

    report = run_campaign(
        matrix, workers=args.workers, name="sweep",
        record_dir=args.record or None,
    )
    print(report.summary())

    leaks = sum(
        len(result.report.findings_of("unexpected_output"))
        for result in report.results
        if result.scenario.target == "sdnet"
        and result.scenario.fault == "baseline"
    )
    blackholed = sum(
        1 for result in report.failed()
        if result.scenario.fault == "blackhole"
    )
    print()
    print(f"reject-state leaks on sdnet: {leaks} packets "
          "(the paper's §4 case study)")
    print(f"blackhole scenarios caught: {blackholed}")

    mismatched = []
    if args.record:
        replayed = replay_campaign(args.record, name="sweep",
                                   workers=args.workers)
        mismatched = [
            live.scenario.key
            for live, again in zip(report.results, replayed.results)
            if again.report.to_dict() != live.report.to_dict()
        ]
        print(f"replay from {args.record!r}: "
              f"{report.scenarios - len(mismatched)}/{report.scenarios} "
              "cell reports reproduced")
        for key in mismatched:
            print(f"  replay mismatch: {key}")

    print()
    print("campaign sweep OK" if not report.passed and leaks and blackholed
          else "campaign sweep UNEXPECTED: deviations not caught")
    if mismatched:
        sys.exit(1)


if __name__ == "__main__":
    main()
