"""Service workers, and the one-shot cluster launcher built on them.

The campaign engine (:mod:`repro.netdebug.campaign`) tops out at one
host's cores; the validation methodology only pays off when the
(program × target × fault × workload) matrix is big enough to surface
rare platform deviations. Shards therefore run on **service workers**
(:func:`service_worker_main`): processes, on this host or any other,
that connect to a campaign service (:mod:`repro.netdebug.service`)
over the JSON + HMAC wire (:mod:`repro.netdebug.transport`), declare
capability tags, execute shards with the same per-process artifact
cache the pool path uses, and stream each result back the moment it
completes. A worker keeps finished results in a ledger until they are
acked, so a dropped connection resumes under the same session instead
of losing work.

The **one-shot cluster** (:class:`ClusterExecutor`,
:func:`run_cluster_campaign`, the ``local`` CLI verb) is an ephemeral
service: an in-process :class:`~repro.netdebug.service.CampaignService`
on ``127.0.0.1:0`` keyed with a fresh random secret, N forked service
workers, one campaign, then teardown. It shares the service's one
scheduler, worker loop and codec, so:

* **Streaming ingest**: results fire the ``on_result(scenario_key,
  report, progress)`` hook as they land, and the final report is
  reassembled deterministically
  (:func:`repro.netdebug.campaign.assemble_report`), making serial,
  pooled, clustered and service runs **byte-identical**.
* **Fault tolerance**: a worker crash mid-shard requeues its
  outstanding shards on the survivors; each shard has a retry budget,
  and exhausting it, losing every worker, or a shard raising remotely
  raises a :class:`ClusterError` naming the shard.

CLI::

    python -m repro.netdebug.cluster local --workers 2 --baseline \\
        --out campaign.json

For a fleet spanning hosts, run ``python -m repro.netdebug.service
serve`` / ``worker`` / ``submit`` instead.
"""

from __future__ import annotations

import argparse
import os
import socket
import sys
import threading
import time
import traceback
from collections import deque
from pathlib import Path

from ..exceptions import ClusterError, NetDebugError
from .campaign import (
    CAMPAIGN_ENGINE,
    CampaignReport,
    ScenarioMatrix,
    ShardExecutor,
    _pool_context,
    _run_shard,
    run_campaign,
)
from .cli import (
    ProgressPrinter,
    add_matrix_args,
    finish_report,
    matrix_from_args,
)
from .transport import Channel, decode_job, require_cache_version

__all__ = [
    "DEFAULT_RETRY_BUDGET",
    "service_worker_main",
    "normalize_tags",
    "tags_eligible",
    "ClusterExecutor",
    "run_cluster_campaign",
    "ProgressPrinter",
    "main",
]

#: Re-dispatches allowed per shard after losing it to a worker failure
#: (so a shard is lost at most ``1 + budget`` times before ClusterError).
DEFAULT_RETRY_BUDGET = 2

_CRASH_EXIT = 17


# ---------------------------------------------------------------------------
# Service worker
# ---------------------------------------------------------------------------

def _connect_with_retry(
    address: tuple[str, int], retry_s: float
) -> socket.socket:
    """Workers are routinely started before (or with) the service —
    retry the connect briefly instead of racing the launch order."""
    deadline = time.monotonic() + retry_s
    while True:
        try:
            sock = socket.create_connection(address, timeout=10.0)
            # The connect timeout must not outlive the connect: a worker
            # legitimately blocks in recv() for as long as a shard (or
            # the whole campaign tail) takes.
            sock.settimeout(None)
            return sock
        except OSError as exc:
            if time.monotonic() >= deadline:
                raise ClusterError(
                    f"could not connect to the campaign service at "
                    f"{address[0]}:{address[1]} within {retry_s}s: {exc}"
                ) from exc
            time.sleep(0.2)


def normalize_tags(tags) -> tuple[str, ...]:
    """Validate capability tags into sorted ``dim:value`` form.

    A tag names one value of one placement dimension (``target:tofino``,
    ``engine:batch``). Declaring a dimension *constrains* the worker to
    that value; leaving a dimension undeclared means "anything" — so a
    bare untagged worker accepts every shard.
    """
    normalized = set()
    for tag in tags:
        tag = tag.strip()
        if not tag:
            continue
        dim, sep, value = tag.partition(":")
        if not sep or not dim or not value:
            raise ClusterError(
                f"capability tag {tag!r} must look like dim:value "
                "(e.g. target:tofino, engine:batch)"
            )
        normalized.add(f"{dim}:{value}")
    return tuple(sorted(normalized))


def tags_eligible(worker_tags, required) -> bool:
    """May a worker with ``worker_tags`` run a shard needing ``required``?

    Per placement dimension: the worker is eligible iff it declares no
    tag in that dimension (unconstrained) or declares the exact
    required value. A worker pinned ``target:tofino`` never receives
    reference shards; an untagged worker receives anything.
    """
    declared: dict[str, set[str]] = {}
    for tag in worker_tags:
        dim, _, value = tag.partition(":")
        declared.setdefault(dim, set()).add(value)
    for tag in required:
        dim, _, value = tag.partition(":")
        values = declared.get(dim)
        if values is not None and value not in values:
            return False
    return True


class _ServiceSession:
    """One service worker's cross-connection state.

    ``ledger`` holds every finished assignment's result frame until the
    coordinator acks it — the reconnect currency: after a drop the
    worker re-announces what it finished (``done``) and what it still
    holds unexecuted (``holding``), and the coordinator requeues only
    assignments in neither set.
    """

    def __init__(self, session: str | None = None):
        self.session = session or os.urandom(8).hex()
        self.ledger: dict[int, dict] = {}
        self.queue: deque[dict] = deque()
        self.completed = 0


def _service_execute(message: dict) -> dict:
    """Run one JSON job frame; the reply frame (result or error)."""
    aid = message.get("assignment")
    base = {
        "assignment": aid,
        "campaign": message.get("campaign"),
        "id": message.get("id"),
    }
    try:
        require_cache_version(message)
        result = _run_shard(decode_job(message["job"]))
    except Exception:
        return {"type": "error", "error": traceback.format_exc(), **base}
    reply = {"type": "result", "result": result.to_dict(), **base}
    # cache_stats, the execution path and a recorded suite are
    # deliberately NOT part of ScenarioResult.to_dict (golden bytes);
    # they ride the frame as sidecars so the service can still
    # aggregate compile-cache and execution counters into report.meta
    # and write regression artifacts.
    if result.cache_stats:
        reply["cache_stats"] = dict(result.cache_stats)
    if result.execution is not None:
        reply["execution"] = result.execution
    if result.suite is not None:
        reply["suite"] = result.suite.to_dict()
    return reply


def service_worker_main(
    address: tuple[str, int],
    slots: int = 1,
    tags=(),
    secret: str | bytes | None = None,
    session: str | None = None,
    crash_after: int | None = None,
    drop_after: int | None = None,
    connect_retry_s: float = 20.0,
    reconnect_budget: int = 8,
) -> None:
    """Run one service worker until the coordinator dismisses it.

    * the wire is JSON-only and (with ``secret``) HMAC-authenticated;
    * the hello declares capability ``tags`` and a persistent
      ``session`` id, and every completed assignment is held in a
      ledger until acked, so a transient drop resumes instead of
      losing work (the coordinator requeues only what the worker
      genuinely no longer holds);
    * shards execute inline, one at a time, with up to ``slots`` jobs
      pipelined into the local queue by the coordinator.

    ``crash_after`` hard-exits on *receiving* shard ``crash_after + 1``
    — the mid-shard crash the coordinator must requeue around;
    ``drop_after`` instead closes the socket after every ``drop_after``
    completions and reconnects — the reconnect-protocol chaos knob.
    """
    state = _ServiceSession(session)
    tags = normalize_tags(tags)
    slots = max(1, int(slots))
    reconnects = 0
    while True:
        sock = _connect_with_retry(address, connect_retry_s)
        channel = Channel(sock, secret=secret)
        try:
            outcome = _serve_service(
                channel, state, slots, tags, crash_after, drop_after
            )
        except (OSError, ClusterError):
            outcome = "lost"
        finally:
            channel.close()
        if outcome == "shutdown":
            return
        # Anything unfinished survives in ``state``; reconnect and
        # resume. A worker that cannot reach the coordinator at all
        # gives up via _connect_with_retry's deadline.
        reconnects += 1
        if reconnects > reconnect_budget:
            raise ClusterError(
                f"service worker lost its coordinator {reconnects} "
                "times; giving up"
            )


def _serve_service(
    channel: Channel,
    state: _ServiceSession,
    slots: int,
    tags: tuple[str, ...],
    crash_after: int | None,
    drop_after: int | None,
) -> str:
    """One connection's worth of the service worker protocol.

    Returns ``"shutdown"`` (dismissed — exit) or ``"lost"``
    (connection died — caller reconnects with ``state`` intact).
    """
    channel.send(
        {
            "type": "hello",
            "mode": "service",
            "slots": slots,
            "pid": os.getpid(),
            "tags": list(tags),
            "session": state.session,
            "holding": sorted(
                m["assignment"] for m in state.queue
            ),
            "done": sorted(state.ledger),
        }
    )
    welcome = channel.recv()
    if welcome is None or welcome.get("type") == "shutdown":
        return "shutdown"
    if welcome.get("type") != "welcome":
        raise ClusterError(
            f"service coordinator sent {welcome.get('type')!r} "
            "where a welcome was expected"
        )
    for aid in welcome.get("ack", []):
        state.ledger.pop(aid, None)
    for aid in welcome.get("want", []):
        frame = state.ledger.get(aid)
        if frame is not None:
            channel.send(frame)

    cond = threading.Condition()
    status = {"outcome": None}

    def _recv_loop() -> None:
        while True:
            try:
                message = channel.recv()
            except (OSError, ClusterError):
                message = None
            with cond:
                if message is None:
                    status["outcome"] = status["outcome"] or "lost"
                    cond.notify_all()
                    return
                kind = message.get("type")
                if kind == "job":
                    state.queue.append(message)
                elif kind == "ack":
                    for aid in message.get("assignments", []):
                        state.ledger.pop(aid, None)
                elif kind == "shutdown":
                    status["outcome"] = "shutdown"
                    cond.notify_all()
                    return
                cond.notify_all()

    receiver = threading.Thread(
        target=_recv_loop, name="service-worker-recv", daemon=True
    )
    receiver.start()
    dropped_at = state.completed
    try:
        while True:
            with cond:
                while status["outcome"] is None and not state.queue:
                    cond.wait(timeout=0.1)
                if status["outcome"] == "shutdown":
                    return "shutdown"
                if status["outcome"] is not None and not state.queue:
                    return status["outcome"]
                if not state.queue:
                    continue
                if (
                    crash_after is not None
                    and state.completed >= crash_after
                ):
                    os._exit(_CRASH_EXIT)
                message = state.queue.popleft()
            reply = _service_execute(message)
            with cond:
                aid = message.get("assignment")
                if aid is not None:
                    state.ledger[aid] = reply
                state.completed += 1
            try:
                channel.send(reply)
            except (OSError, ClusterError):
                return "lost"  # reply survives in the ledger
            if (
                drop_after is not None
                and state.completed - dropped_at >= drop_after
            ):
                return "lost"  # chaos: simulate a transient drop
    finally:
        # The next hello must declare every job this connection
        # delivered: stop the receiver before returning, so no job
        # frame it already read lands in the queue after that hello
        # went out (the coordinator would requeue it as lost).
        channel.close()
        receiver.join()


# ---------------------------------------------------------------------------
# One-shot cluster: an ephemeral service
# ---------------------------------------------------------------------------

class ClusterExecutor(ShardExecutor):
    """The :func:`run_campaign` executor seam, cluster flavour.

    Each :meth:`execute` is one ephemeral campaign service: an
    in-process :class:`~repro.netdebug.service.CampaignService` on
    ``127.0.0.1:0`` with a fresh random HMAC secret, ``workers`` forked
    :func:`service_worker_main` processes, one campaign, then teardown.
    ``crash_after`` applies to the first worker only — the chaos knob
    the fault-tolerance tests turn. After a run, :attr:`requeues`
    counts the shards that moved off a lost worker.
    """

    def __init__(
        self,
        workers: int = 2,
        retry_budget: int = DEFAULT_RETRY_BUDGET,
        timeout: float | None = None,
        crash_after: int | None = None,
    ):
        if workers < 1:
            raise ClusterError("a cluster needs at least one worker")
        if retry_budget < 0:
            raise ClusterError("retry budget must be >= 0")
        self.workers = workers
        self.retry_budget = retry_budget
        self.timeout = timeout
        self.crash_after = crash_after
        self.requeues = 0

    def execute(self, jobs, shard_fn, on_result=None):
        if shard_fn is not _run_shard:
            raise ClusterError(
                "the cluster runs live campaign shards only; replay a "
                "recorded campaign with replay_campaign(workers=N)"
            )
        # Deferred: the service imports this module's worker side.
        from .service import CampaignService

        secret = os.urandom(32)
        # A local worker whose connection drops has died: requeue its
        # shards at once instead of holding them for a reconnect.
        service = CampaignService(
            secret=secret,
            retry_budget=self.retry_budget,
            reconnect_grace_s=0.0,
        )
        context = _pool_context()
        processes = []
        try:
            # Fork before the service starts its threads.
            for index in range(self.workers):
                process = context.Process(
                    target=service_worker_main,
                    args=(service.address,),
                    kwargs={
                        "secret": secret,
                        "crash_after": (
                            self.crash_after if index == 0 else None
                        ),
                    },
                    daemon=True,
                )
                process.start()
                processes.append(process)
            service.start()
            return service.run_jobs(
                jobs,
                on_result=on_result,
                timeout=self.timeout,
                liveness=lambda: any(p.is_alive() for p in processes),
            )
        finally:
            self.requeues = service.requeues
            service.close()
            for process in processes:
                process.join(timeout=5.0)
                if process.is_alive():
                    process.terminate()


def run_cluster_campaign(
    matrix: ScenarioMatrix,
    workers: int = 2,
    name: str = "campaign",
    record_dir: str | Path | None = None,
    on_result=None,
    retry_budget: int = DEFAULT_RETRY_BUDGET,
    timeout: float | None = None,
    engine: str = CAMPAIGN_ENGINE,
    oracle_factory=None,
    compress: bool | object = False,
) -> CampaignReport:
    """Run ``matrix`` on an ephemeral localhost service with ``workers``
    worker processes — the one-call launcher tests, CI and benchmarks
    use. Byte-identical to ``run_campaign`` on the same matrix (and
    across engines). ``oracle_factory`` travels to the workers by name,
    so it must be an :data:`~repro.netdebug.oracle.ORACLES` entry; any
    other callable is refused with a :class:`ClusterError`.
    ``compress`` behaves exactly as in :func:`run_campaign`: only bucket
    representatives are fanned out to the workers; the report is
    re-expanded in this process."""
    return run_campaign(
        matrix,
        name=name,
        record_dir=record_dir,
        executor=ClusterExecutor(
            workers=workers, retry_budget=retry_budget, timeout=timeout
        ),
        on_result=on_result,
        engine=engine,
        oracle_factory=oracle_factory,
        compress=compress,
    )


# ---------------------------------------------------------------------------
# CLI
# ---------------------------------------------------------------------------

def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.netdebug.cluster",
        description=__doc__,
        formatter_class=argparse.RawDescriptionHelpFormatter,
    )
    commands = parser.add_subparsers(dest="command", required=True)
    local = commands.add_parser(
        "local",
        help="run one campaign on an ephemeral localhost service with "
             "N workers",
    )
    local.add_argument("--workers", type=int, default=2)
    local.add_argument("--retry-budget", type=int,
                       default=DEFAULT_RETRY_BUDGET)
    local.add_argument("--timeout", type=float, default=600.0)
    add_matrix_args(local)
    local.add_argument(
        "--compress", action="store_true",
        help="bucket the matrix by behaviour signature and execute "
             "only representatives (repro.netdebug.compression); the "
             "report is re-expanded with pruned cells marked "
             "represented_by",
    )

    args = parser.parse_args(argv)
    try:
        matrix, name = matrix_from_args(args)
        report = run_cluster_campaign(
            matrix,
            workers=args.workers,
            name=name,
            retry_budget=args.retry_budget,
            timeout=args.timeout,
            on_result=None if args.quiet else ProgressPrinter(),
            engine=args.engine,
            compress=args.compress,
        )
    except (ClusterError, NetDebugError) as exc:
        print(f"cluster error: {exc}", file=sys.stderr)
        return 2
    finish_report(report, args.out)
    # Exit 0 whenever the campaign *completed*: deviant cells failing is
    # a result (the baseline matrix fails by design), not a crash.
    return 0


if __name__ == "__main__":  # pragma: no cover - exercised via CI smoke
    sys.exit(main())
