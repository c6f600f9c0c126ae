"""Campaign-as-a-service: a persistent, multi-tenant validation fleet.

One scheduler serves every distributed campaign: a **long-running
service** any CI in the org can call — submit → stream → diff-gate —
and the one-shot cluster launcher (:mod:`repro.netdebug.cluster`),
which runs one campaign on an ephemeral in-process instance of it. It
has the properties a shared fleet needs:

* **Many concurrent campaigns.** Each submission carries a tenant id,
  a strict-priority tier and a fair-share weight. Scheduling is
  deficit-round-robin across the active campaigns of the highest
  eligible priority tier: a campaign with weight 3 receives ~3× the
  contended dispatches of a weight-1 peer, and no campaign starves.
* **Capability-tagged placement.** Workers declare ``target:<name>``
  tags (``target:tofino``). A shard requires its scenario's target; a
  worker is eligible iff it declares no target tag or declares that
  exact one — so a worker pinned to one target's toolchain only ever
  receives that target's shards, and an untagged worker takes
  anything. A hello declaring any other dimension is refused.
* **Pipelined dispatch.** A worker's ``slots`` are a queue depth (default
  :data:`~repro.netdebug.cluster.DEFAULT_SLOTS` = 2: one shard running,
  one queued). The service dispatches on reply: the thread that ingests
  a result refills the freed slot in the same locked section, and
  admission and worker joins dispatch at once too, so a worker never
  sits idle waiting for the scheduler thread. That thread only expires
  reconnect graces, ages steals and fails stranded campaigns.
* **Work stealing + reconnect.** A slow worker's oldest in-flight
  shard is duplicated onto an idle eligible worker (first result wins,
  duplicates acked and dropped). A worker that loses its connection
  holds finished results in a ledger and reconnects under the same
  session id; the coordinator keeps its assignments alive for a grace
  window and, on resume, requeues only what the worker genuinely no
  longer holds — no dropped cells, no duplicated cells. A worker that
  never comes back is charged one failed attempt, for the oldest shard
  it held (the one it was running); the shards queued behind it requeue
  free.
* **A hardened wire.** The service speaks JSON frames only — any other
  frame kind is refused from its header, body unread — and, keyed from
  ``REPRO_SERVICE_SECRET``, every frame in both directions carries an
  HMAC-SHA256 tag over an implicit per-direction sequence number
  (:class:`repro.netdebug.transport.FrameAuth`), so a stray peer can
  neither execute code, nor forge jobs or results, nor replay them.

Results are **byte-identical** to a serial :func:`run_campaign` of the
same matrix: shards funnel through the same
:func:`~repro.netdebug.campaign.assemble_report` reassembly, so the
committed golden baselines and the diff kernel
(:mod:`repro.netdebug.diffing`) remain the regression verdict — and
the ``gate`` frame runs that diff server-side against a retained
report. Each result crosses to the client once, as the per-shard
``result`` frame (the worker's own result dict, forwarded); the
``complete`` frame carries only ``meta``, and the client reassembles
the report from the stream it already holds.

CLI::

    export REPRO_SERVICE_SECRET=...      # both ends, any non-empty string
    python -m repro.netdebug.service serve --listen 0.0.0.0:47816
    python -m repro.netdebug.service worker --connect host:47816 \\
        --tags target:tofino
    python -m repro.netdebug.service submit --connect host:47816 \\
        --baseline --priority 1 --weight 3 --tenant ci --out report.json
    python -m repro.netdebug.service workers --connect host:47816
    python -m repro.netdebug.service gate --connect host:47816 \\
        --campaign 1 --baseline baselines/campaign.json
"""

from __future__ import annotations

import argparse
import json
import socket
import sys
import threading
import time
from collections import OrderedDict, deque
from dataclasses import dataclass
from pathlib import Path

from ..exceptions import ClusterError, NetDebugError
from .campaign import (
    CampaignReport,
    ScenarioResult,
    _shard_jobs,
    assemble_report,
    matrix_from_dict,
)
from .cli import (
    ProgressPrinter,
    add_matrix_args,
    csv_list,
    finish_report,
    matrix_from_args,
    parse_address,
)
from .cluster import (
    DEFAULT_RETRY_BUDGET,
    DEFAULT_SLOTS,
    check_slots,
    normalize_tags,
    service_worker_main,
    tags_eligible,
)
from .diffing import diff_campaigns
from .regression import RegressionSuite
from .transport import SECRET_ENV, Channel, encode_job, resolve_secret, \
    stamp_cache_version

__all__ = [
    "DEFAULT_RECONNECT_GRACE_S",
    "DEFAULT_STEAL_AFTER_S",
    "DEFAULT_RETRY_BUDGET",
    "DEFAULT_SLOTS",
    "CampaignService",
    "main",
]

#: How long a disconnected worker's assignments stay alive awaiting its
#: reconnect before they are requeued on the surviving fleet.
DEFAULT_RECONNECT_GRACE_S = 5.0

#: Age at which an in-flight shard becomes stealable: an idle eligible
#: worker duplicates it rather than sitting empty behind a slow peer.
DEFAULT_STEAL_AFTER_S = 4.0

#: Completed campaigns retained in memory for late ``gate`` queries.
DEFAULT_KEEP_REPORTS = 32


@dataclass
class _Assignment:
    """One dispatch of one shard to one worker session."""

    aid: int
    cid: int
    job_index: int
    session: str
    dispatched_at: float


def _hello_assignment_ids(hello: dict, field: str) -> set[int]:
    """The hello's ``field`` list as assignment ids, or a
    :class:`ClusterError` naming the field and the value: the ids key
    the assignment table, so a bad one is refused rather than coerced."""
    values = hello.get(field, [])
    if not isinstance(values, list):
        raise ClusterError(
            f"hello {field!r} must be a list of assignment ids, "
            f"got {values!r}"
        )
    for aid in values:
        if isinstance(aid, bool) or not isinstance(aid, int):
            raise ClusterError(
                f"hello {field!r} must hold integer assignment ids, "
                f"got {aid!r}"
            )
    return set(values)


class _Campaign:
    """Service-side state of one campaign.

    Built from :func:`~repro.netdebug.campaign._run_shard` job tuples:
    a wire ``submit`` expands its matrix into them, and the in-process
    launcher (:meth:`CampaignService.run_jobs`) passes the ones
    :func:`~repro.netdebug.campaign.run_campaign` built. Each job is
    encoded once, up front, so a job that cannot travel (a predicate
    fault) is refused at admission.
    """

    def __init__(
        self,
        cid: int,
        name: str,
        tenant: str,
        priority: int,
        weight: float,
        jobs: list[tuple],
    ):
        self.cid = cid
        self.name = name
        self.tenant = tenant
        self.priority = priority
        self.weight = weight
        self.jobs = list(jobs)
        self.payloads = [
            encode_job(scenario, faults, record=record)
            for scenario, faults, record in self.jobs
        ]
        self.pending: deque[int] = deque(range(len(self.jobs)))
        #: job index -> aids currently dispatched for it (>1 = stolen).
        self.inflight: dict[int, set[int]] = {}
        #: job index -> result, in arrival order.
        self.results: dict[int, ScenarioResult] = {}
        #: job index -> times a worker failure lost it (the retry
        #: budget's currency; resumed drops and steals are free).
        self.failures: dict[int, int] = {}
        #: Deficit-round-robin credit (1 credit = 1 shard dispatch).
        self.credit = 0.0
        #: Dispatches made while at least one other campaign was also
        #: placeable — the denominator fairness is measured over.
        self.contended = 0
        self.dispatched = 0
        self.requeues = 0
        self.failed_error: str | None = None
        self.subscribers: list[Channel] = []

    @property
    def total(self) -> int:
        return len(self.jobs)

    def key(self, job_index: int) -> str:
        return self.jobs[job_index][0].key

    @property
    def done(self) -> bool:
        return (
            self.failed_error is not None
            or len(self.results) == self.total
        )

    def required_tags(self, job_index: int) -> tuple[str]:
        return (f"target:{self.jobs[job_index][0].target}",)

    def job_frame(self, aid: int, job_index: int) -> dict:
        return stamp_cache_version(
            {
                "type": "job",
                "assignment": aid,
                "campaign": self.cid,
                "id": job_index,
                "job": self.payloads[job_index],
            }
        )

    def progress(self) -> dict:
        failed = sum(
            1 for result in self.results.values() if not result.passed
        )
        return {
            "completed": len(self.results),
            "total": self.total,
            "failed": failed,
        }

    def describe(self) -> dict:
        return {
            "campaign": self.cid,
            "name": self.name,
            "tenant": self.tenant,
            "priority": self.priority,
            "weight": self.weight,
            "completed": len(self.results),
            "total": self.total,
            "pending": len(self.pending),
            "inflight": sum(len(v) for v in self.inflight.values()),
            "dispatched": self.dispatched,
            "contended": self.contended,
            "requeues": self.requeues,
        }


class _FleetWorker:
    """Service-side record of one worker session."""

    def __init__(
        self,
        session: str,
        name: str,
        channel: Channel,
        slots: int,
        tags: tuple[str, ...],
    ):
        self.session = session
        self.name = name
        self.channel = channel
        self.slots = slots
        self.tags = tags
        self.outstanding: dict[int, _Assignment] = {}
        self.completed = 0
        self.lost_at: float | None = None

    @property
    def free_slots(self) -> int:
        return self.slots - len(self.outstanding)

    def describe(self, alive: bool) -> dict:
        return {
            "session": self.session,
            "name": self.name,
            "alive": alive,
            "slots": self.slots,
            "tags": list(self.tags),
            "outstanding": len(self.outstanding),
            "completed": self.completed,
        }


class CampaignService:
    """The long-running coordinator daemon.

    One instance owns the listener, the worker fleet, and every active
    campaign. ``secret=None`` runs unauthenticated (tests, localhost);
    anything else enables HMAC frame authentication on every
    connection. All mutable state is guarded by one condition
    variable. Slots are filled wherever they free up or work arrives
    (a reply, an admission, a worker joining); a scheduler thread
    expires reconnect graces, ages steals and fails stranded
    campaigns.
    """

    def __init__(
        self,
        host: str = "127.0.0.1",
        port: int = 0,
        secret: str | bytes | None = None,
        retry_budget: int = DEFAULT_RETRY_BUDGET,
        reconnect_grace_s: float = DEFAULT_RECONNECT_GRACE_S,
        steal_after_s: float = DEFAULT_STEAL_AFTER_S,
        keep_reports: int = DEFAULT_KEEP_REPORTS,
    ):
        self.secret = resolve_secret(secret) if secret is not None else None
        self.retry_budget = retry_budget
        self.reconnect_grace_s = reconnect_grace_s
        self.steal_after_s = steal_after_s
        self.keep_reports = keep_reports
        self._listener = socket.create_server((host, port))
        self._cond = threading.Condition()
        self._campaigns: dict[int, _Campaign] = {}
        self._workers: dict[str, _FleetWorker] = {}
        self._lost: dict[str, _FleetWorker] = {}
        self._assignments: dict[int, _Assignment] = {}
        #: cid -> {"report": CampaignReport, "meta": {...}, ...}.
        self._completed: OrderedDict[int, dict] = OrderedDict()
        self._next_cid = 1
        self._next_aid = 1
        self._rr_last = 0
        self._closing = False
        self._threads: list[threading.Thread] = []
        #: Campaigns ever accepted / completed (observability + tests).
        self.campaigns_seen = 0
        self.steals = 0
        #: Shards put back on the queue after their worker lost them.
        self.requeues = 0

    # -- lifecycle ------------------------------------------------------

    @property
    def address(self) -> tuple[str, int]:
        host, port = self._listener.getsockname()[:2]
        return host, port

    def start(self) -> "CampaignService":
        for target, name in (
            (self._accept_loop, "service-accept"),
            (self._scheduler_loop, "service-scheduler"),
        ):
            thread = threading.Thread(target=target, name=name, daemon=True)
            thread.start()
            self._threads.append(thread)
        return self

    def serve_forever(self) -> None:
        self.start()
        with self._cond:
            while not self._closing:
                self._cond.wait(timeout=1.0)

    def close(self) -> None:
        with self._cond:
            self._closing = True
            workers = list(self._workers.values()) + list(
                self._lost.values()
            )
            subscribers = [
                channel
                for campaign in self._campaigns.values()
                for channel in campaign.subscribers
            ]
            self._cond.notify_all()
        try:
            self._listener.close()
        except OSError:
            pass
        for worker in workers:
            try:
                worker.channel.send({"type": "shutdown"})
            except (OSError, ClusterError):
                pass
            worker.channel.close()
        for channel in subscribers:
            channel.close()

    # -- connection intake ----------------------------------------------

    def _accept_loop(self) -> None:
        while True:
            try:
                conn, peer = self._listener.accept()
            except OSError:
                return
            thread = threading.Thread(
                target=self._serve_connection,
                args=(conn, f"{peer[0]}:{peer[1]}"),
                name=f"service-conn-{peer[1]}",
                daemon=True,
            )
            thread.start()

    def _serve_connection(self, conn: socket.socket, name: str) -> None:
        channel = Channel(conn, secret=self.secret)
        # Pre-handshake the peer is untrusted: a bounded wait and —
        # with a secret — a valid HMAC tag before the first byte of
        # body is even parsed (non-JSON kind bytes never get that far).
        conn.settimeout(10.0)
        try:
            first = channel.recv()
        except (ClusterError, OSError):
            channel.close()
            return
        if first is None:
            channel.close()
            return
        conn.settimeout(None)
        kind = first.get("type")
        try:
            if kind == "hello" and first.get("mode") == "service":
                self._serve_worker(channel, name, first)
            elif kind == "submit":
                self._serve_client(channel, first)
            elif kind == "workers":
                channel.send(
                    {"type": "workers", "workers": self.worker_listing()}
                )
            elif kind == "status":
                channel.send(
                    {"type": "status", "campaigns": self.campaign_listing()}
                )
            elif kind == "gate":
                self._handle_gate(channel, first)
            elif kind == "stop":
                channel.send({"type": "ok"})
                with self._cond:
                    self._closing = True
                    self._cond.notify_all()
            else:
                channel.send(
                    {
                        "type": "rejected",
                        "error": f"unknown request type {kind!r}",
                    }
                )
        except (OSError, ClusterError):
            pass
        finally:
            channel.close()

    # -- worker protocol -------------------------------------------------

    def _serve_worker(
        self, channel: Channel, name: str, hello: dict
    ) -> None:
        session = str(hello.get("session") or "")
        if not session:
            channel.send(
                {"type": "rejected", "error": "hello carries no session id"}
            )
            return
        try:
            tags = normalize_tags(hello.get("tags", ()))
            slots = check_slots(hello.get("slots", DEFAULT_SLOTS))
            done = _hello_assignment_ids(hello, "done")
            holding = _hello_assignment_ids(hello, "holding")
        except ClusterError as exc:
            channel.send({"type": "rejected", "error": str(exc)})
            return
        worker = _FleetWorker(
            session=session,
            name=name,
            channel=channel,
            slots=slots,
            tags=tags,
        )
        with self._cond:
            stale = self._lost.pop(session, None) or self._workers.pop(
                session, None
            )
            if stale is not None:
                worker.completed = stale.completed
                stale.channel.close()
            want: list[int] = []
            ack: list[int] = []
            for aid in sorted(done):
                assignment = self._assignments.get(aid)
                if (
                    assignment is not None
                    and assignment.session == session
                    and not self._job_complete(assignment)
                ):
                    worker.outstanding[aid] = assignment
                    want.append(aid)
                else:
                    ack.append(aid)
            for aid in sorted(holding):
                assignment = self._assignments.get(aid)
                if assignment is not None and assignment.session == session:
                    worker.outstanding[aid] = assignment
            # Whatever this session was assigned but neither finished
            # nor still holds was lost in transit across the drop:
            # requeue it now. The worker came back, so no worker
            # failed — the shard's retry budget is not charged.
            for assignment in [
                a
                for a in self._assignments.values()
                if a.session == session
                and a.aid not in done
                and a.aid not in holding
            ]:
                self._retire_assignment_locked(
                    assignment, requeue=True, charge=False
                )
            self._workers[session] = worker
            worker.channel.send(
                {
                    "type": "welcome",
                    "session": session,
                    "want": want,
                    "ack": ack,
                }
            )
            self._fill_slots_locked()
            self._cond.notify_all()
        self._worker_recv_loop(worker)

    def _worker_recv_loop(self, worker: _FleetWorker) -> None:
        while True:
            try:
                message = worker.channel.recv()
            except (OSError, ClusterError):
                message = None
            if message is None:
                break
            kind = message.get("type")
            if kind in ("result", "error"):
                self._ingest_worker_reply(worker, message)
            else:
                # A foreign worker build speaking garbage: drop the
                # connection; its shards requeue via the grace path.
                break
        self._worker_lost(worker)

    def _ingest_worker_reply(
        self, worker: _FleetWorker, message: dict
    ) -> None:
        with self._cond:
            self._ingest_reply_locked(worker, message)
            # Dispatch on reply: refill the slot this reply freed in
            # the same locked section, not on the scheduler thread's
            # next wake-up.
            self._fill_slots_locked()
            self._cond.notify_all()

    def _ingest_reply_locked(
        self, worker: _FleetWorker, message: dict
    ) -> None:
        aid = message.get("assignment")
        # Always ack so the worker's ledger drains — even for a
        # duplicate (stolen elsewhere, finished twice) or a stale
        # assignment from before a requeue.
        try:
            worker.channel.send({"type": "ack", "assignments": [aid]})
        except (OSError, ClusterError):
            pass
        assignment = self._assignments.get(aid)
        if assignment is None:
            return
        campaign = self._campaigns.get(assignment.cid)
        worker.outstanding.pop(aid, None)
        worker.completed += 1
        if campaign is None or campaign.done:
            self._assignments.pop(aid, None)
            return
        job_index = assignment.job_index
        if message.get("type") == "error":
            self._assignments.pop(aid, None)
            campaign.inflight.get(job_index, set()).discard(aid)
            # A shard raising is deterministic — requeueing cannot
            # help; fail the campaign with the remote traceback.
            self._fail_campaign_locked(
                campaign,
                f"worker {worker.name} failed shard {job_index} "
                f"({campaign.key(job_index)}):\n"
                f"{message.get('error')}",
            )
            return
        # Retire EVERY assignment of this job (steals included): first
        # result wins, later duplicates hit the assignment-is-gone
        # guard above and are ack-dropped.
        for dup in campaign.inflight.pop(job_index, {aid}):
            retired = self._assignments.pop(dup, None)
            if retired is not None and dup != aid:
                holder = self._workers.get(
                    retired.session
                ) or self._lost.get(retired.session)
                if holder is not None:
                    holder.outstanding.pop(dup, None)
        if job_index in campaign.results:
            return
        try:
            result = ScenarioResult.from_dict(message["result"])
            # cache_stats and a recorded suite and arrival process
            # ride the frame as sidecars (none is part of the golden
            # to_dict bytes); restoring them keeps
            # meta["compile_cache"] meaningful and lets a recording
            # write its manifest.
            stats = message.get("cache_stats")
            if stats:
                result.cache_stats = {
                    str(k): int(v) for k, v in stats.items()
                }
            if "suite" in message:
                result.suite = RegressionSuite.from_dict(message["suite"])
            if "arrivals" in message:
                result.arrivals = dict(message["arrivals"])
        except (KeyError, TypeError, ValueError, NetDebugError) as exc:
            self._fail_campaign_locked(
                campaign,
                f"worker {worker.name} sent an undecodable result for "
                f"shard {job_index}: {exc!r}",
            )
            return
        campaign.results[job_index] = result
        self._push_result_locked(campaign, result, message["result"])
        if campaign.done:
            self._complete_campaign_locked(campaign)

    def _worker_lost(self, worker: _FleetWorker) -> None:
        with self._cond:
            self._mark_lost_locked(worker)
        worker.channel.close()

    def _mark_lost_locked(self, worker: _FleetWorker) -> None:
        """Stop dispatching to ``worker``; its assignments wait out the
        reconnect grace in :attr:`_lost`."""
        if self._workers.get(worker.session) is not worker:
            return  # already lost, or replaced by a reconnect
        del self._workers[worker.session]
        worker.lost_at = time.monotonic()
        self._lost[worker.session] = worker
        self._cond.notify_all()

    # -- campaign bookkeeping (call with the lock held) ------------------

    def _job_complete(self, assignment: _Assignment) -> bool:
        campaign = self._campaigns.get(assignment.cid)
        if campaign is None:
            return True
        return assignment.job_index in campaign.results

    def _retire_assignment_locked(
        self, assignment: _Assignment, requeue: bool, charge: bool = True
    ) -> None:
        """Drop one assignment; optionally requeue its job if that was
        the last copy in flight and the job is still unfinished.

        ``charge`` counts the loss against the job's retry budget: a
        worker holding the shard failed. A frame that never reached a
        worker, or a resumed session that lost it in transit, is not
        a worker failure and is requeued free."""
        self._assignments.pop(assignment.aid, None)
        holder = self._workers.get(assignment.session) or self._lost.get(
            assignment.session
        )
        if holder is not None:
            holder.outstanding.pop(assignment.aid, None)
        campaign = self._campaigns.get(assignment.cid)
        if campaign is None or campaign.done:
            return
        job_index = assignment.job_index
        copies = campaign.inflight.get(job_index)
        if copies is not None:
            copies.discard(assignment.aid)
            if not copies:
                del campaign.inflight[job_index]
        if (
            requeue
            and job_index not in campaign.results
            and job_index not in campaign.inflight
            and job_index not in campaign.pending
        ):
            failures = campaign.failures.get(job_index, 0) + int(charge)
            campaign.failures[job_index] = failures
            if failures > self.retry_budget:
                self._fail_campaign_locked(
                    campaign,
                    f"shard {job_index} ({campaign.key(job_index)}) was "
                    f"lost to worker failures {failures} times; retry "
                    f"budget of {self.retry_budget} exhausted",
                )
            else:
                campaign.pending.appendleft(job_index)
                campaign.requeues += 1
                self.requeues += 1

    def _push_result_locked(
        self, campaign: _Campaign, result: ScenarioResult, payload: dict
    ) -> None:
        """Relay one result to the campaign's clients.

        ``payload`` is the result dict exactly as the worker sent it
        (it decoded to ``result``), so the service forwards it instead
        of encoding the same bytes again."""
        if not campaign.subscribers:
            return  # in-process campaign: run_jobs reads results
        frame = {
            "type": "result",
            "campaign": campaign.cid,
            "index": result.scenario.index,
            "key": result.scenario.key,
            "result": payload,
            "progress": campaign.progress(),
        }
        self._push_frame_locked(campaign, frame)

    def _push_frame_locked(self, campaign: _Campaign, frame: dict) -> None:
        for channel in list(campaign.subscribers):
            try:
                channel.send(frame)
            except (OSError, ClusterError):
                campaign.subscribers.remove(channel)

    def _complete_campaign_locked(self, campaign: _Campaign) -> None:
        results = [
            campaign.results[index] for index in range(campaign.total)
        ]
        report = assemble_report(
            campaign.name, results, expected=campaign.total
        )
        meta = dict(report.meta)
        meta["service"] = {
            "campaign": campaign.cid,
            "tenant": campaign.tenant,
            "priority": campaign.priority,
            "weight": campaign.weight,
            "dispatched": campaign.dispatched,
            "contended": campaign.contended,
            "requeues": campaign.requeues,
        }
        record = {
            "campaign": campaign.cid,
            "name": campaign.name,
            "tenant": campaign.tenant,
            "report": report,
            "meta": meta,
        }
        self._completed[campaign.cid] = record
        while len(self._completed) > self.keep_reports:
            self._completed.popitem(last=False)
        if campaign.subscribers:
            # Every result already reached the client as a result
            # frame; it reassembles the report itself.
            self._push_frame_locked(
                campaign,
                {
                    "type": "complete",
                    "campaign": campaign.cid,
                    "meta": meta,
                },
            )
        del self._campaigns[campaign.cid]

    def _fail_campaign_locked(
        self, campaign: _Campaign, error: str
    ) -> None:
        if campaign.failed_error is not None:
            return
        campaign.failed_error = error
        for job_index in list(campaign.inflight):
            for aid in campaign.inflight.pop(job_index, set()):
                assignment = self._assignments.pop(aid, None)
                if assignment is not None:
                    holder = self._workers.get(
                        assignment.session
                    ) or self._lost.get(assignment.session)
                    if holder is not None:
                        holder.outstanding.pop(aid, None)
        campaign.pending.clear()
        self._push_frame_locked(
            campaign,
            {
                "type": "failed",
                "campaign": campaign.cid,
                "error": error,
            },
        )
        del self._campaigns[campaign.cid]

    # -- scheduler --------------------------------------------------------

    def _scheduler_loop(self) -> None:
        while True:
            with self._cond:
                if self._closing:
                    return
                self._expire_lost_locked()
                self._fill_slots_locked()
                self._check_stranded_locked()
                self._cond.wait(timeout=0.2)

    def _expire_lost_locked(self) -> None:
        now = time.monotonic()
        for session in list(self._lost):
            worker = self._lost[session]
            if now - (worker.lost_at or now) < self.reconnect_grace_s:
                continue
            del self._lost[session]
            # A worker runs its queue in dispatch order, so only its
            # oldest assignment was executing when it was lost. That
            # one is charged to the retry budget; the rest never
            # started and requeue free.
            held = sorted(worker.outstanding.values(), key=lambda a: a.aid)
            for position, assignment in enumerate(held):
                self._retire_assignment_locked(
                    assignment, requeue=True, charge=position == 0
                )

    def _fill_slots_locked(self) -> None:
        progressed = True
        while progressed:
            progressed = False
            for worker in list(self._workers.values()):
                if worker.free_slots <= 0:
                    continue
                pick = self._pick_job_locked(worker)
                stolen = False
                if pick is None and not worker.outstanding:
                    # Only an idle worker steals: a copy queued behind
                    # its own running shard would start no sooner.
                    pick = self._pick_steal_locked(worker)
                    stolen = pick is not None
                if pick is None:
                    continue
                campaign, job_index = pick
                self._dispatch_locked(
                    worker, campaign, job_index, stolen=stolen
                )
                progressed = True

    def _placeable_locked(
        self, campaign: _Campaign, worker: _FleetWorker
    ) -> int | None:
        """First pending job of ``campaign`` this worker may run."""
        for job_index in campaign.pending:
            if tags_eligible(
                worker.tags, campaign.required_tags(job_index)
            ):
                return job_index
        return None

    def _pick_job_locked(
        self, worker: _FleetWorker
    ) -> tuple[_Campaign, int] | None:
        """Strict-priority tiers, deficit-round-robin within the tier.

        Candidates are the campaigns with a pending shard this worker's
        tags allow; of those only the highest priority tier competes.
        Each campaign spends 1 credit per dispatch and replenishes by
        its weight when the tier runs dry, so contended dispatch shares
        converge to the weight ratio. Bookkeeping (credit, rotation) is
        only touched under contention — a lone campaign must not bank
        unbounded credit for later.
        """
        candidates: list[tuple[_Campaign, int]] = []
        for campaign in self._campaigns.values():
            if campaign.done:
                continue
            job_index = self._placeable_locked(campaign, worker)
            if job_index is not None:
                candidates.append((campaign, job_index))
        if not candidates:
            return None
        if len(candidates) == 1:
            campaign, job_index = candidates[0]
            return campaign, job_index
        tier = max(campaign.priority for campaign, _ in candidates)
        contenders = sorted(
            (
                (campaign, job_index)
                for campaign, job_index in candidates
                if campaign.priority == tier
            ),
            key=lambda pair: pair[0].cid,
        )
        if len(contenders) == 1:
            return contenders[0]
        # Rotate so the scan starts after the last served campaign.
        start = 0
        for position, (campaign, _) in enumerate(contenders):
            if campaign.cid > self._rr_last:
                start = position
                break
        rotation = contenders[start:] + contenders[:start]
        # Replenish rounds are bounded: each adds >= the smallest
        # weight, so some contender reaches a full credit within
        # ceil(1 / min_weight) rounds.
        min_weight = min(c.weight for c, _ in rotation)
        for _ in range(int(1 / min_weight) + 2):
            for campaign, job_index in rotation:
                if campaign.credit >= 1.0:
                    return campaign, job_index
            for campaign, _ in rotation:
                campaign.credit = min(
                    campaign.credit + campaign.weight,
                    max(1.0, campaign.weight) * 2.0,
                )
        return rotation[0]  # unreachable fallback

    def _pick_steal_locked(
        self, worker: _FleetWorker
    ) -> tuple[_Campaign, int] | None:
        """Oldest sufficiently-aged in-flight shard this idle worker
        could duplicate (no second copy yet, not its own work)."""
        now = time.monotonic()
        best: tuple[float, _Campaign, int] | None = None
        for assignment in self._assignments.values():
            age = now - assignment.dispatched_at
            if age < self.steal_after_s:
                continue
            if assignment.session == worker.session:
                continue
            campaign = self._campaigns.get(assignment.cid)
            if campaign is None or campaign.done:
                continue
            copies = campaign.inflight.get(assignment.job_index, set())
            if len(copies) != 1:
                continue  # already duplicated (or being retired)
            if not tags_eligible(
                worker.tags, campaign.required_tags(assignment.job_index)
            ):
                continue
            if best is None or assignment.dispatched_at < best[0]:
                best = (
                    assignment.dispatched_at,
                    campaign,
                    assignment.job_index,
                )
        if best is None:
            return None
        return best[1], best[2]

    def _dispatch_locked(
        self,
        worker: _FleetWorker,
        campaign: _Campaign,
        job_index: int,
        stolen: bool = False,
    ) -> None:
        aid = self._next_aid
        self._next_aid += 1
        assignment = _Assignment(
            aid=aid,
            cid=campaign.cid,
            job_index=job_index,
            session=worker.session,
            dispatched_at=time.monotonic(),
        )
        if stolen:
            self.steals += 1
        else:
            campaign.pending.remove(job_index)
            # Contention = another campaign also had placeable work at
            # this instant; fairness shares are measured over these.
            others = any(
                other is not campaign
                and not other.done
                and self._placeable_locked(other, worker) is not None
                for other in self._campaigns.values()
            )
            if others:
                campaign.contended += 1
                campaign.credit = max(0.0, campaign.credit - 1.0)
                self._rr_last = campaign.cid
        campaign.dispatched += 1
        campaign.inflight.setdefault(job_index, set()).add(aid)
        self._assignments[aid] = assignment
        worker.outstanding[aid] = assignment
        try:
            worker.channel.send(campaign.job_frame(aid, job_index))
        except (OSError, ClusterError):
            # The connection is gone (the recv loop will notice too):
            # stop filling its slots at once — otherwise the scheduler
            # re-dispatches to the dead socket in a tight loop — and
            # requeue the shard without waiting out the grace. The
            # frame never arrived, so no worker failed on it.
            self._mark_lost_locked(worker)
            self._retire_assignment_locked(
                assignment, requeue=True, charge=False
            )

    def _check_stranded_locked(self) -> None:
        """Fail campaigns no worker on the fleet could ever place.

        Only with a non-empty fleet: an empty fleet means workers are
        still joining, and campaigns legitimately wait for them.
        """
        fleet = list(self._workers.values()) + list(self._lost.values())
        if not fleet:
            return
        for campaign in list(self._campaigns.values()):
            if campaign.done or not campaign.pending:
                continue
            if campaign.inflight:
                continue
            for job_index in campaign.pending:
                required = campaign.required_tags(job_index)
                if not any(
                    tags_eligible(worker.tags, required)
                    for worker in fleet
                ):
                    self._fail_campaign_locked(
                        campaign,
                        f"shard {job_index} "
                        f"({campaign.key(job_index)}) requires "
                        f"capabilities {list(required)} but no connected "
                        "worker declares them; tag a worker or widen the "
                        "fleet",
                    )
                    break

    # -- client protocol --------------------------------------------------

    def _admit_locked(self, campaign: _Campaign) -> None:
        if self._closing:
            raise ClusterError("service is shutting down")
        self._campaigns[campaign.cid] = campaign
        self.campaigns_seen += 1
        self._fill_slots_locked()
        self._cond.notify_all()

    def run_jobs(
        self,
        jobs: list[tuple],
        on_result=None,
        timeout: float | None = None,
        liveness=None,
    ) -> list[ScenarioResult]:
        """Run ``jobs`` as one campaign submitted from this process.

        ``jobs`` are :func:`~repro.netdebug.campaign._run_shard` tuples;
        they go through the same scheduler, workers and codec as a wire
        ``submit``, but the results come back as
        :class:`ScenarioResult` objects (recorded suites and cache stats
        included), in job order, for the caller to reassemble.
        ``on_result(result)`` fires in the calling thread, in arrival
        order, off the service lock. ``liveness`` is polled while
        waiting: False with shards unfinished fails the campaign instead
        of hanging, as does passing ``timeout`` seconds.
        """
        campaign = self._new_campaign("campaign", jobs)
        deadline = (
            time.monotonic() + timeout if timeout is not None else None
        )
        delivered = 0
        with self._cond:
            self._admit_locked(campaign)
        while True:
            with self._cond:
                while (
                    not campaign.done
                    and len(campaign.results) == delivered
                ):
                    self._cond.wait(timeout=0.1)
                    if liveness is not None and not liveness():
                        self._fail_campaign_locked(
                            campaign,
                            "every worker exited with "
                            f"{campaign.total - len(campaign.results)} "
                            "shards unfinished; nothing can complete "
                            "the campaign",
                        )
                    elif deadline is not None and (
                        time.monotonic() > deadline
                    ):
                        self._fail_campaign_locked(
                            campaign,
                            f"campaign timed out after {timeout}s with "
                            f"{len(campaign.results)}/{campaign.total} "
                            "shards complete",
                        )
                if campaign.failed_error is not None:
                    raise ClusterError(campaign.failed_error)
                arrived = list(campaign.results.values())[delivered:]
                delivered += len(arrived)
                finished = campaign.done
            if on_result is not None:
                for result in arrived:
                    on_result(result)
            if finished:
                return [
                    campaign.results[index]
                    for index in range(campaign.total)
                ]

    def _serve_client(self, channel: Channel, message: dict) -> None:
        try:
            campaign = self._build_campaign(message)
            with self._cond:
                self._admit_locked(campaign)
                campaign.subscribers.append(channel)
                # Under the lock: result pushes also hold it, so the
                # accepted frame is on the wire before any result frame.
                channel.send(
                    {
                        "type": "accepted",
                        "campaign": campaign.cid,
                        "name": campaign.name,
                        "total": campaign.total,
                    }
                )
        except (NetDebugError, ClusterError, KeyError, TypeError,
                ValueError) as exc:
            channel.send({"type": "rejected", "error": str(exc)})
            return
        # Keep serving this connection: gate requests after completion,
        # EOF when the client goes away.
        while True:
            try:
                follow_up = channel.recv()
            except (OSError, ClusterError):
                follow_up = None
            if follow_up is None:
                break
            if follow_up.get("type") == "gate":
                follow_up.setdefault("campaign", campaign.cid)
                self._handle_gate(channel, follow_up)
            else:
                channel.send(
                    {
                        "type": "rejected",
                        "error": "only gate requests are accepted on a "
                        "campaign connection",
                    }
                )
        with self._cond:
            if channel in campaign.subscribers:
                campaign.subscribers.remove(channel)

    def _build_campaign(self, message: dict) -> _Campaign:
        matrix = matrix_from_dict(message["matrix"])
        priority = int(message.get("priority", 0))
        weight = float(message.get("weight", 1.0))
        if not 0 < weight <= 1000:
            raise NetDebugError(
                f"campaign weight must be in (0, 1000], got {weight!r}"
            )
        jobs = _shard_jobs(matrix.expand(), matrix.faults)
        if not jobs:
            raise NetDebugError("campaign matrix expands to zero cells")
        return self._new_campaign(
            str(message.get("name", "campaign")),
            jobs,
            tenant=str(message.get("tenant", "default")),
            priority=priority,
            weight=weight,
        )

    def _new_campaign(
        self,
        name: str,
        jobs: list[tuple],
        tenant: str = "default",
        priority: int = 0,
        weight: float = 1.0,
    ) -> _Campaign:
        with self._cond:
            cid = self._next_cid
            self._next_cid += 1
        return _Campaign(cid, name, tenant, priority, weight, jobs)

    def _handle_gate(self, channel: Channel, message: dict) -> None:
        cid = message.get("campaign")
        with self._cond:
            record = self._completed.get(cid)
        if record is None:
            channel.send(
                {
                    "type": "rejected",
                    "error": f"no completed campaign {cid!r} is retained "
                    "on this service",
                }
            )
            return
        try:
            baseline = CampaignReport.from_dict(message["baseline"])
        except (KeyError, TypeError, ValueError, NetDebugError) as exc:
            channel.send(
                {
                    "type": "rejected",
                    "error": f"undecodable baseline report: {exc!r}",
                }
            )
            return
        report: CampaignReport = record["report"]
        diff = diff_campaigns(baseline, report)
        channel.send(
            {
                "type": "gated",
                "campaign": cid,
                "regression": diff.is_regression,
                "identical": baseline.to_json() == report.to_json(),
                "summary": diff.summary(),
            }
        )

    # -- listings ----------------------------------------------------------

    def worker_listing(self) -> list[dict]:
        with self._cond:
            listing = [
                worker.describe(alive=True)
                for worker in self._workers.values()
            ]
            listing += [
                worker.describe(alive=False)
                for worker in self._lost.values()
            ]
        return sorted(listing, key=lambda w: w["session"])

    def campaign_listing(self) -> list[dict]:
        with self._cond:
            active = [
                campaign.describe()
                for campaign in self._campaigns.values()
            ]
            finished = [
                {
                    "campaign": record["campaign"],
                    "name": record["name"],
                    "tenant": record["tenant"],
                    "completed": record["report"].scenarios,
                    "total": record["report"].scenarios,
                    **{
                        key: record["meta"]["service"][key]
                        for key in ("priority", "weight", "dispatched",
                                    "contended", "requeues")
                    },
                }
                for record in self._completed.values()
            ]
        return sorted(active + finished, key=lambda c: c["campaign"])


# ---------------------------------------------------------------------------
# CLI
# ---------------------------------------------------------------------------

def _require_cli_secret(args) -> bytes | None:
    secret = resolve_secret(None)
    if secret is None and not getattr(args, "insecure", False):
        raise ClusterError(
            f"no frame-authentication secret: export {SECRET_ENV} "
            "(any non-empty string, same on every end) or pass "
            "--insecure to run unauthenticated"
        )
    return secret


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.netdebug.service",
        description=__doc__,
        formatter_class=argparse.RawDescriptionHelpFormatter,
    )
    commands = parser.add_subparsers(dest="command", required=True)

    def _common(sub, connect=True):
        if connect:
            sub.add_argument("--connect", required=True, help="HOST:PORT")
        sub.add_argument(
            "--insecure", action="store_true",
            help=f"allow running without {SECRET_ENV}",
        )

    serve = commands.add_parser(
        "serve", help="run the campaign-service daemon"
    )
    serve.add_argument("--listen", default="127.0.0.1:47816",
                       help="HOST:PORT to bind")
    serve.add_argument("--retry-budget", type=int,
                       default=DEFAULT_RETRY_BUDGET)
    serve.add_argument("--grace", type=float,
                       default=DEFAULT_RECONNECT_GRACE_S,
                       help="seconds a dropped worker may reconnect "
                            "before its shards requeue")
    serve.add_argument("--steal-after", type=float,
                       default=DEFAULT_STEAL_AFTER_S,
                       help="seconds before an in-flight shard becomes "
                            "stealable by an idle worker")
    _common(serve, connect=False)

    worker = commands.add_parser(
        "worker", help="run one persistent service worker"
    )
    _common(worker)
    worker.add_argument("--slots", type=int, default=DEFAULT_SLOTS,
                        help="queue depth: shards the service keeps "
                             "outstanding on this worker, one running "
                             f"and the rest queued (default "
                             f"{DEFAULT_SLOTS}; must be >= 1)")
    worker.add_argument("--tags", default="",
                        help="comma-separated capability tags, "
                             "e.g. target:tofino")
    worker.add_argument("--crash-after", type=int, default=None,
                        help="chaos: hard-exit after this many shards")
    worker.add_argument("--drop-after", type=int, default=None,
                        help="chaos: drop the connection (and "
                             "reconnect) after this many shards")

    submit = commands.add_parser(
        "submit", help="submit a campaign and stream its results"
    )
    _common(submit)
    submit.add_argument("--tenant", default="default")
    submit.add_argument("--priority", type=int, default=0,
                        help="strict-priority tier (higher runs first)")
    submit.add_argument("--weight", type=float, default=1.0,
                        help="fair-share weight within the tier")
    submit.add_argument("--gate-baseline", default="",
                        help="after completion, diff-gate against this "
                             "baseline report server-side; exit 3 on "
                             "regression")
    add_matrix_args(submit)

    workers = commands.add_parser(
        "workers", help="list the connected worker fleet"
    )
    _common(workers)

    gate = commands.add_parser(
        "gate", help="diff-gate a retained campaign against a baseline"
    )
    _common(gate)
    gate.add_argument("--campaign", type=int, required=True)
    gate.add_argument("--baseline", required=True,
                      help="path to the golden baseline report JSON")

    args = parser.parse_args(argv)
    from .client import ServiceClient  # deferred: client imports us not

    try:
        secret = _require_cli_secret(args)
        if args.command == "serve":
            host, port = parse_address(args.listen)
            service = CampaignService(
                host=host,
                port=port,
                secret=secret,
                retry_budget=args.retry_budget,
                reconnect_grace_s=args.grace,
                steal_after_s=args.steal_after,
            )
            bound = service.address
            print(
                f"campaign service listening on {bound[0]}:{bound[1]} "
                f"({'HMAC-authenticated' if secret else 'INSECURE'})",
                flush=True,
            )
            try:
                service.serve_forever()
            except KeyboardInterrupt:
                pass
            finally:
                service.close()
            return 0
        if args.command == "worker":
            service_worker_main(
                parse_address(args.connect),
                slots=args.slots,
                tags=csv_list(args.tags),
                secret=secret,
                crash_after=args.crash_after,
                drop_after=args.drop_after,
            )
            return 0
        client = ServiceClient(
            parse_address(args.connect), secret=secret
        )
        if args.command == "workers":
            for entry in client.workers():
                state = "up" if entry["alive"] else "reconnecting"
                tags = ",".join(entry["tags"]) or "-"
                print(
                    f"{entry['session']}  {entry['name']:<21} {state:<12} "
                    f"slots={entry['slots']} tags={tags} "
                    f"outstanding={entry['outstanding']} "
                    f"completed={entry['completed']}"
                )
            return 0
        if args.command == "gate":
            baseline = CampaignReport.from_dict(
                json.loads(Path(args.baseline).read_text())
            )
            verdict = client.gate(args.campaign, baseline)
            print(verdict["summary"])
            if verdict["identical"]:
                print("reports are byte-identical")
            return 3 if verdict["regression"] else 0
        # submit
        matrix, name = matrix_from_args(args)
        handle = client.submit(
            matrix,
            name=name,
            tenant=args.tenant,
            priority=args.priority,
            weight=args.weight,
        )
        print(f"campaign {handle.campaign} accepted "
              f"({handle.total} scenarios)", flush=True)
        report = handle.stream(
            on_result=None if args.quiet else ProgressPrinter()
        )
        finish_report(report, args.out)
        if args.gate_baseline:
            baseline = CampaignReport.from_dict(
                json.loads(Path(args.gate_baseline).read_text())
            )
            verdict = handle.gate(baseline)
            print(verdict["summary"])
            if verdict["identical"]:
                print("reports are byte-identical")
            if verdict["regression"]:
                return 3
        return 0
    except (ClusterError, NetDebugError) as exc:
        print(f"service error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":  # pragma: no cover - exercised via CI smoke
    sys.exit(main())
