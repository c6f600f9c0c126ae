"""One benchmark workload in one fresh process.

``run.py`` starts this script once per set-up sample and once per
measured (or traced) run, each time with its own empty
``REPRO_COMPILE_CACHE`` directory, and reads back the JSON it writes to
``--result``. Phases:

1. **set-up** — from before ``import repro`` until the first measured
   campaign can be submitted: imports, the service fleet joining
   (``service_fleet``), and one warm-up campaign that compiles every
   artifact into the empty cache;
2. **closed loop** — one client in one thread submits the next campaign
   only after the previous report returns, for a fixed number of
   campaigns or until ``--seconds`` have passed;
3. **checks** (untimed) — every measured report's canonical bytes must
   equal a fresh serial in-process reference run of the same matrix,
   and the workload's golden baseline must match byte for byte.
"""

import time

T0 = time.perf_counter()  # set-up time starts before `import repro`

import argparse  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import multiprocessing  # noqa: E402
import os  # noqa: E402
import resource  # noqa: E402
import sys  # noqa: E402
import traceback  # noqa: E402
from pathlib import Path  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import spec  # noqa: E402
import tracer as tracing  # noqa: E402

from repro.netdebug import campaign, diffing  # noqa: E402
from repro.netdebug.client import ServiceClient  # noqa: E402
from repro.netdebug.cluster import service_worker_main  # noqa: E402
from repro.netdebug.service import CampaignService  # noqa: E402

#: workload -> (matrix function, report name, packets per cell, golden
#: file, packets per cell of the golden run). The golden run always uses
#: the committed seed, whatever ``--seed`` says.
MATRICES = {
    "seeded_matrix": (diffing.baseline_matrix, "baseline", 25,
                      "campaign.json", diffing.BASELINE_CAMPAIGN_COUNT),
    "stateful_flows": (diffing.baseline_stateful_matrix, "baseline-stateful",
                       100, "stateful.json",
                       diffing.BASELINE_CAMPAIGN_COUNT),
    "coverage_sweep": (diffing.baseline_coverage_matrix, "baseline-coverage",
                       64, "coverage.json",
                       diffing.BASELINE_COVERAGE_COUNT),
    "service_fleet": (diffing.baseline_matrix, "baseline", 25,
                      "campaign.json", diffing.BASELINE_CAMPAIGN_COUNT),
}

FLEET_WORKERS = 2
#: Workers give up this soon after losing the coordinator, so a killed
#: benchmark leaves no process behind for long.
WORKER_CONNECT_RETRY_S = 2.0


def _digest(report) -> str:
    return hashlib.sha256(report.to_json().encode()).hexdigest()


class InProcess:
    """Serial ``run_campaign`` in this process."""

    workers = 1

    def __init__(self, matrix, name):
        self.matrix = matrix
        self.name = name

    def run(self, matrix=None, on_result=None, tracer=None):
        # Looked up on the module at each call, so a tracer's wrapper
        # is seen.
        return campaign.run_campaign(
            matrix or self.matrix, name=self.name, on_result=on_result
        )

    def close(self):
        pass


def _worker(address, secret, trace_dir):
    """One service worker. With ``trace_dir`` it traces itself and
    leaves its spans in ``trace_dir/worker-<pid>.json`` when
    ``service_worker_main`` returns."""
    tracer = tracing.Tracer().install() if trace_dir else None
    try:
        service_worker_main(
            address, secret=secret, connect_retry_s=WORKER_CONNECT_RETRY_S
        )
    finally:
        if tracer is not None:
            tracer.uninstall()
            tracer.dump(Path(trace_dir) / f"worker-{os.getpid()}.json")


class Fleet:
    """An in-process ``CampaignService`` (HMAC on) with forked workers.

    Workers fork before the service starts its threads and before this
    process installs a tracer, so they inherit neither.
    """

    workers = FLEET_WORKERS

    def __init__(self, matrix, name, secret, trace_dir=None):
        self.matrix = matrix
        self.name = name
        self.service = CampaignService(secret=secret)
        self.cids: dict[int, object] = {}
        context = multiprocessing.get_context("fork")
        self.processes = [
            context.Process(
                target=_worker,
                args=(self.service.address, secret, trace_dir),
                daemon=True,
            )
            for _ in range(FLEET_WORKERS)
        ]
        for process in self.processes:
            process.start()
        self.client = ServiceClient(
            self.service.address, secret=secret,
            timeout=spec.CAMPAIGN_TIMEOUT_S,
        )

    def start(self):
        self.service.start()
        deadline = time.monotonic() + spec.CAMPAIGN_TIMEOUT_S
        while sum(w["alive"] for w in self.service.worker_listing()) \
                < FLEET_WORKERS:
            if time.monotonic() > deadline:
                raise RuntimeError("service workers never joined")
            time.sleep(0.005)
        return self

    def run(self, matrix=None, on_result=None, tracer=None):
        def submit_and_stream():
            handle = self.client.submit(matrix or self.matrix,
                                        name=self.name)
            if tracer is not None:
                self.cids[handle.campaign] = tracer.campaign
            try:
                return handle.stream(on_result=on_result)
            finally:
                handle.close()

        if tracer is None:
            return submit_and_stream()
        with tracer.span("campaign", "bench.service_campaign"):
            return submit_and_stream()

    def close(self):
        self.service.close()
        for process in self.processes:
            process.join(timeout=30.0)
            if process.is_alive():
                process.terminate()
                process.join(timeout=5.0)


def _open_runner(args, matrix, name, trace_dir):
    if args.workload == "service_fleet":
        secret = f"bench-fleet-{args.seed}"
        return Fleet(matrix, name, secret, trace_dir).start()
    return InProcess(matrix, name)


def _closed_loop(runner, tracer, campaigns, seconds):
    """Run campaigns back to back; one in flight at a time."""
    samples = []
    errors = []
    started = time.perf_counter()
    index = 0
    while True:
        if seconds is not None:
            if time.perf_counter() - started >= seconds:
                break
        elif index >= campaigns:
            break
        index += 1
        if tracer is not None:
            tracer.campaign = index
        first: list[float] = []

        def on_result(key, report, progress, first=first):
            if not first:
                first.append(time.perf_counter())

        submitted = time.perf_counter()
        try:
            report = runner.run(on_result=on_result, tracer=tracer)
        except Exception:
            errors.append(traceback.format_exc(limit=3))
            samples.append(None)
            continue
        done = time.perf_counter()
        if tracer is not None:
            with tracer.span("report", "bench.check_bytes"):
                digest = _digest(report)
        else:
            digest = _digest(report)
        samples.append({
            "latency_s": done - submitted,
            "first_result_s": (first[0] if first else done) - submitted,
            "packets": report.injected,
            "shards": report.scenarios,
            "digest": digest,
            "cache": report.meta.get("compile_cache", {}),
        })
    return samples, errors


def _golden_check(runner, args) -> str | None:
    """None when the committed golden matches, else what differs."""
    build, name, _count, golden, golden_count = MATRICES[args.workload]
    matrix = build(count=golden_count, seed=diffing.BASELINE_SEED)
    path = ROOT / "baselines" / golden
    if not path.is_file():
        return f"golden baseline {path.relative_to(ROOT)} is missing"
    report = runner.run(matrix=matrix)
    text = json.dumps(report.to_dict(), indent=2) + "\n"
    if text != path.read_text():
        return (f"report at seed {diffing.BASELINE_SEED} differs from "
                f"baselines/{golden}")
    return None


def _peak_rss_mb(self_kb: int) -> float:
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(self_kb, children) / 1024.0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", required=True, choices=list(MATRICES))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--campaigns", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=None)
    parser.add_argument("--setup-only", action="store_true")
    parser.add_argument("--traced", action="store_true")
    parser.add_argument("--result", required=True)
    args = parser.parse_args(argv)
    trace_dir = Path(args.result).parent if args.traced else None

    build, name, count, _golden, _golden_count = MATRICES[args.workload]
    matrix = build(count=count, seed=args.seed)
    tracer = None
    runner = _open_runner(args, matrix, name, trace_dir)
    if args.traced:
        tracer = tracing.Tracer().install()
        tracer.campaign = 0
        if isinstance(runner, Fleet):
            runner.cids.clear()
    result = {"workload": args.workload, "pid": os.getpid()}
    try:
        warmup = runner.run(tracer=tracer)
        result["setup_s"] = time.perf_counter() - T0
        result["setup_cache"] = warmup.meta.get("compile_cache", {})
        if args.setup_only:
            return _write(args, result)
        samples, errors = _closed_loop(
            runner, tracer, args.campaigns, args.seconds
        )
        result["self_rss_kb"] = resource.getrusage(
            resource.RUSAGE_SELF
        ).ru_maxrss
        if tracer is not None:
            tracer.campaign = -1
        result["golden_error"] = _golden_check(runner, args)
    finally:
        runner.close()
        if tracer is not None:
            tracer.uninstall()
    result["peak_rss_mb"] = _peak_rss_mb(result.pop("self_rss_kb"))
    reference = _digest(campaign.run_campaign(matrix, name=name))
    result["errors"] = errors
    for sample in samples:
        if sample is None:
            continue
        if sample["latency_s"] > spec.CAMPAIGN_TIMEOUT_S:
            sample["error"] = "timeout"
        elif sample["digest"] != reference:
            sample["error"] = "report bytes differ from the serial reference"
        del sample["digest"]
    result["samples"] = samples
    if tracer is not None:
        result["restored"] = tracer.restored()
        result["trace"] = _trace_payload(args, runner, tracer, samples,
                                         trace_dir, result["setup_cache"])
    return _write(args, result)


def _trace_payload(args, runner, tracer, samples, trace_dir,
                   setup_cache) -> dict:
    """Per-layer metrics and Chrome events from this process's spans
    plus the forked workers' span files."""
    processes = [tracer.export()]
    names = {os.getpid(): f"{args.workload} (benchmark process)"}
    if isinstance(runner, Fleet):
        for path in sorted(trace_dir.glob("worker-*.json")):
            worker = json.loads(path.read_text())
            _renumber(worker, runner.cids)
            processes.append(worker)
            names[worker["pid"]] = f"{args.workload} (service worker)"
    ok = [s for s in samples if s is not None and "error" not in s]
    measured = set(range(1, len(samples) + 1))
    cache = {
        key: sum(s["cache"].get(key, 0) for s in ok)
        for key in ("hits", "memory_hits")
    }
    # Artifacts compile once, in the set-up campaign; measured campaigns
    # only load them.
    cache["misses"] = setup_cache.get("misses", 0)
    metrics, table = tracing.per_layer_metrics(
        processes,
        measured,
        campaigns=len(ok),
        packets=sum(s["packets"] for s in ok),
        shards=sum(s["shards"] for s in ok),
        workers=runner.workers,
        campaign_wall_s=sum(s["latency_s"] for s in ok),
        cache=cache,
    )
    return {
        "metrics": metrics,
        "table": table,
        "events": tracing.chrome_events(processes, names),
    }


def _renumber(process: dict, cids: dict) -> None:
    """Map a worker's service campaign ids onto the benchmark's."""
    process["spans"] = [
        [*span[:6], cids.get(span[6]), span[7]] for span in process["spans"]
    ]
    process["counters"] = [
        [name, cids.get(cid), calls, ns]
        for name, cid, calls, ns in process["counters"]
    ]
    process["frames"] = [
        [cids.get(cid), frames, size] for cid, frames, size in process["frames"]
    ]


def _write(args, result) -> int:
    Path(args.result).write_text(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
