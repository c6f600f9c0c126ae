"""Command-line plumbing shared by the cluster and service CLIs.

``python -m repro.netdebug.cluster local`` and ``python -m
repro.netdebug.service submit`` build a scenario matrix from the same
flags, print the same live result stream and write the report the same
way; ``service worker``/``submit`` parse ``HOST:PORT`` addresses. This
module is the one definition of each.
"""

from __future__ import annotations

import argparse
import sys
import time
from pathlib import Path

from ..exceptions import ClusterError
from .campaign import (
    CampaignProgress,
    CampaignReport,
    ScenarioMatrix,
)
from .report import SessionReport

__all__ = [
    "ProgressPrinter",
    "add_matrix_args",
    "csv_list",
    "finish_report",
    "matrix_from_args",
    "parse_address",
]


class ProgressPrinter:
    """A live text renderer for the streaming ``on_result`` hook.

    Prints one line per completed scenario *as it lands* (out of order
    under parallel executors), plus how far the campaign is — the
    paper-workflow view of a long sweep. Records
    :attr:`first_result_s`, which is what the streaming-vs-barrier
    benchmark reports as time-to-first-result.
    """

    def __init__(self, stream=None):
        self._stream = stream if stream is not None else sys.stdout
        self._start = time.perf_counter()
        self.first_result_s: float | None = None

    def __call__(
        self,
        scenario_key: str,
        report: SessionReport,
        progress: CampaignProgress,
    ) -> None:
        elapsed = time.perf_counter() - self._start
        if self.first_result_s is None:
            self.first_result_s = elapsed
        width = len(str(progress.total))
        verdict = "PASS" if report.passed else "FAIL"
        print(
            f"[{progress.completed:>{width}}/{progress.total}] "
            f"{scenario_key:<55} {verdict} "
            f"findings={len(report.findings):<3} t={elapsed:7.2f}s",
            file=self._stream,
            flush=True,
        )


def parse_address(text: str) -> tuple[str, int]:
    host, _, port = text.rpartition(":")
    if not host or not port.isdigit():
        raise ClusterError(
            f"address must look like HOST:PORT, got {text!r}"
        )
    return host, int(port)


def csv_list(text: str) -> list[str]:
    return [item.strip() for item in text.split(",") if item.strip()]


def matrix_from_args(args) -> tuple[ScenarioMatrix, str]:
    if getattr(args, "baseline", False):
        from .diffing import baseline_matrix

        return baseline_matrix(), "baseline"
    matrix = ScenarioMatrix(
        programs=csv_list(args.programs),
        targets=csv_list(args.targets),
        workloads=csv_list(args.workloads),
        count=args.count,
        seed=args.seed,
        setup=args.setup,
        sla_p99_cycles=args.sla_p99,
        oracle=args.oracle,
    )
    return matrix, args.name


def add_matrix_args(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--baseline", action="store_true",
        help="run the committed golden-baseline matrix "
             "(repro.netdebug.diffing.baseline_matrix); overrides the "
             "axis flags below",
    )
    parser.add_argument("--programs", default="strict_parser,acl_firewall")
    parser.add_argument("--targets", default="reference,sdnet,tofino")
    parser.add_argument("--workloads", default="udp,malformed")
    parser.add_argument("--count", type=int, default=16,
                        help="packets per scenario")
    parser.add_argument("--seed", type=int, default=2018)
    parser.add_argument("--setup", default="acl_gate",
                        help="named provisioner ('' for none)")
    parser.add_argument("--sla-p99", type=float, default=None,
                        help="optional p99 latency SLA in cycles")
    parser.add_argument("--oracle", default="stateless",
                        choices=("stateless", "stateful"),
                        help="named expectation oracle: 'stateful' "
                             "threads register state across each "
                             "cell's packet sequence")
    parser.add_argument("--name", default="campaign")
    parser.add_argument("--out", default="",
                        help="write the campaign report JSON here")
    parser.add_argument("--quiet", action="store_true",
                        help="suppress the live per-scenario stream")


def finish_report(report: CampaignReport, out: str) -> None:
    """Print the campaign summary and, with ``out`` set, save the report."""
    print(report.summary())
    if out:
        path = Path(out)
        path.parent.mkdir(parents=True, exist_ok=True)
        report.save(path)
        print(f"report written to {path}")
