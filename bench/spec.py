"""Workloads and metrics of the end-to-end benchmark.

``BENCHMARK.json`` at the repository root is the table of workloads and
of the metrics it lists, with their units, directions and bounds. This
module reads it and adds what the file does not carry: the campaign
counts of fixed-length runs and the metrics that are printed and
compared but not listed. ``run.py`` prints from it and ``compare.py``
judges with it. It imports nothing from ``repro``.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path

MANIFEST = json.loads(
    (Path(__file__).resolve().parent.parent / "BENCHMARK.json").read_text()
)

#: Default workload seed (feeds the ``repro.netdebug.diffing`` matrix
#: functions); the golden-baseline check always runs at this seed.
DEFAULT_SEED = 2018

#: A campaign that takes longer than this counts as failed.
CAMPAIGN_TIMEOUT_S = 60.0

#: Fresh processes whose set-up time ``setup_s`` takes the median of.
SETUP_REPEATS = 3

WORKLOAD_NAMES = tuple(w["name"] for w in MANIFEST["workloads"])

#: workload -> (measured campaigns of a fixed-length run, campaigns of
#: each of the three runs of a fixed-length traced run).
CAMPAIGNS = {
    "seeded_matrix": (120, 30),
    "stateful_flows": (120, 30),
    "coverage_sweep": (600, 150),
    "service_fleet": (120, 30),
}


@dataclass(frozen=True)
class Metric:
    name: str
    unit: str
    better: str  # "lower" | "higher"
    #: Share of the parent's median by which the metric may worsen
    #: before a change counts as a regression (absolute for error_rate);
    #: None for per-layer metrics.
    bound: float | None = None
    #: Listed in BENCHMARK.json.
    listed: bool = True


#: The p90 latencies are not listed: on a shared 2-vCPU host whose
#: Python speed swings by up to 1.6x within seconds, their quartile
#: spread over ten runs reaches 30-55% on the CPU-bound workloads, wider
#: than their 25% bound. error_rate is not
#: listed: it reads 0 on a healthy run, and listed bounds are shares of
#: the median; the JSON line's ``failed`` carries it.
END_TO_END = tuple(Metric(**m) for m in MANIFEST["end_to_end"]) + (
    Metric("campaign_p90_s", "s", "lower", 0.25, listed=False),
    Metric("first_result_p90_s", "s", "lower", 0.25, listed=False),
    Metric("error_rate", "ratio", "lower", 0.0, listed=False),
)

#: Unlisted per-layer metrics belong to one workload: the service layers
#: (and ``coverage.busy_ms``) have nothing to measure on the others.
PER_LAYER = tuple(Metric(**m) for m in MANIFEST["per_layer"]) + tuple(
    Metric(name, unit, "lower", listed=False)
    for name, unit in (
        ("coverage.busy_ms", "ms"),
        ("client.submit_ms", "ms"),
        ("transport.frames", "count"),
        ("transport.bytes", "bytes"),
        ("transport.send_ms", "ms"),
        ("hmac.ms", "ms"),
        ("codec.ms", "ms"),
    )
)
