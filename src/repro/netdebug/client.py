"""Client API for the campaign service (:mod:`repro.netdebug.service`).

The submit → stream → diff-gate loop as three calls::

    from repro.netdebug.client import ServiceClient

    client = ServiceClient(("ci-fleet", 47816))   # secret from env
    handle = client.submit(matrix, priority=1, tenant="ci", weight=3.0)
    report = handle.stream(on_result=lambda key, rep, prog: ...)
    verdict = handle.gate(golden_report)          # server-side diff

Everything rides one JSON-only, HMAC-authenticated connection per
campaign (key from ``REPRO_SERVICE_SECRET`` unless passed explicitly).
``handle.result()`` / ``handle.stream()`` return a
:class:`~repro.netdebug.campaign.CampaignReport` whose canonical JSON
is **byte-identical** to a serial ``run_campaign`` of the same matrix,
so existing golden baselines gate service-mode runs unchanged. The
service sends each shard result once, as it lands; the handle
reassembles the report from that stream through
:func:`~repro.netdebug.campaign.assemble_report`, the same reassembly
every other execution path uses, and takes ``meta`` from the closing
``complete`` frame.
"""

from __future__ import annotations

import socket

from ..exceptions import ClusterError
from .campaign import (
    CampaignProgress,
    CampaignReport,
    ScenarioMatrix,
    ScenarioResult,
    assemble_report,
    matrix_to_dict,
)
from .transport import Channel, resolve_secret

__all__ = ["ServiceClient", "CampaignHandle"]


class CampaignHandle:
    """One accepted campaign: its id and its live result stream."""

    def __init__(self, channel: Channel, campaign: int, name: str,
                 total: int):
        self._channel = channel
        self.campaign = campaign
        self.name = name
        self.total = total
        self._report: CampaignReport | None = None
        self.meta: dict = {}

    def stream(self, on_result=None) -> CampaignReport:
        """Consume the live result stream until the campaign completes.

        ``on_result(scenario_key, session_report, progress)`` fires for
        every shard the moment the service relays it — the same hook
        shape :func:`~repro.netdebug.campaign.run_campaign` takes, so a
        :class:`~repro.netdebug.cli.ProgressPrinter` plugs in
        unchanged. Every result frame is decoded, hook or not: the
        returned :class:`~repro.netdebug.campaign.CampaignReport` is
        reassembled from them, with ``meta`` from the ``complete``
        frame. Raises :class:`ClusterError` if the campaign fails or
        the connection drops mid-stream.
        """
        if self._report is not None:
            return self._report
        results: list[ScenarioResult] = []
        while True:
            frame = self._channel.recv()
            if frame is None:
                raise ClusterError(
                    f"service connection closed with campaign "
                    f"{self.campaign} incomplete"
                )
            kind = frame.get("type")
            if kind == "result":
                result = ScenarioResult.from_dict(frame["result"])
                results.append(result)
                if on_result is not None:
                    progress = frame.get("progress", {})
                    on_result(
                        result.scenario.key,
                        result.report,
                        CampaignProgress(
                            completed=progress.get("completed", 0),
                            total=progress.get("total", self.total),
                            failed=progress.get("failed", 0),
                        ),
                    )
            elif kind == "complete":
                report = assemble_report(
                    self.name, results, expected=self.total
                )
                meta = frame.get("meta", {})
                report.meta = dict(meta)
                self.meta = dict(meta)
                self._report = report
                return report
            elif kind == "failed":
                raise ClusterError(
                    f"campaign {self.campaign} failed: "
                    f"{frame.get('error')}"
                )
            else:
                raise ClusterError(
                    f"service sent unexpected frame type {kind!r} "
                    "mid-stream"
                )

    def result(self) -> CampaignReport:
        """The completed report (drains the stream without a hook)."""
        return self.stream()

    def gate(self, baseline: CampaignReport) -> dict:
        """Run the diff kernel server-side against ``baseline``.

        Returns the verdict frame payload:
        ``{"regression": bool, "identical": bool, "summary": str}``.
        The campaign must have completed (call after :meth:`result`).
        """
        self.result()
        self._channel.send(
            {
                "type": "gate",
                "campaign": self.campaign,
                "baseline": baseline.to_dict(),
            }
        )
        reply = self._channel.recv()
        if reply is None or reply.get("type") != "gated":
            raise ClusterError(
                f"gate request for campaign {self.campaign} was "
                f"refused: {(reply or {}).get('error', 'connection lost')}"
            )
        return reply

    def close(self) -> None:
        self._channel.close()


class ServiceClient:
    """Talks to one campaign-service daemon.

    ``secret=None`` resolves ``REPRO_SERVICE_SECRET`` from the
    environment (no env either → unauthenticated, matching a daemon
    run ``--insecure``). Every method opens its own connection except
    :meth:`submit`, whose connection lives on in the returned
    :class:`CampaignHandle` as the result stream.
    """

    def __init__(
        self,
        address: tuple[str, int],
        secret: str | bytes | None = None,
        timeout: float | None = None,
    ):
        self.address = address
        self.timeout = timeout
        # Explicit secret, else the environment; None (no env either)
        # speaks unauthenticated — matching a daemon run --insecure.
        self.secret = resolve_secret(secret)

    def _connect(self) -> Channel:
        try:
            sock = socket.create_connection(self.address, timeout=10.0)
        except OSError as exc:
            raise ClusterError(
                f"could not reach the campaign service at "
                f"{self.address[0]}:{self.address[1]}: {exc}"
            ) from exc
        sock.settimeout(self.timeout)
        return Channel(sock, secret=self.secret)

    def _request(self, message: dict, expect: str) -> dict:
        channel = self._connect()
        try:
            channel.send(message)
            reply = channel.recv()
        finally:
            channel.close()
        if reply is None:
            raise ClusterError(
                "campaign service closed the connection without replying"
            )
        if reply.get("type") != expect:
            raise ClusterError(
                f"campaign service refused the request: "
                f"{reply.get('error', reply)}"
            )
        return reply

    def submit(
        self,
        matrix: ScenarioMatrix,
        name: str = "campaign",
        priority: int = 0,
        weight: float = 1.0,
        tenant: str = "default",
    ) -> CampaignHandle:
        """Submit ``matrix``; returns immediately with the live handle.

        ``priority`` picks the strict tier (higher preempts lower for
        every dispatch); ``weight`` is the deficit-round-robin share
        within the tier. The matrix must be fully declarative
        (predicate-carrying faults are refused — service job frames are
        data, never code).
        """
        channel = self._connect()
        try:
            channel.send(
                {
                    "type": "submit",
                    "name": name,
                    "tenant": tenant,
                    "priority": int(priority),
                    "weight": float(weight),
                    "matrix": matrix_to_dict(matrix),
                }
            )
            reply = channel.recv()
        except BaseException:
            channel.close()
            raise
        if reply is None or reply.get("type") != "accepted":
            channel.close()
            raise ClusterError(
                f"campaign submission refused: "
                f"{(reply or {}).get('error', 'connection lost')}"
            )
        return CampaignHandle(
            channel,
            campaign=reply["campaign"],
            name=reply.get("name", name),
            total=reply["total"],
        )

    def run(self, matrix: ScenarioMatrix, on_result=None, **kwargs
            ) -> CampaignReport:
        """Submit and block until complete — the one-call convenience."""
        handle = self.submit(matrix, **kwargs)
        try:
            return handle.stream(on_result=on_result)
        finally:
            handle.close()

    def workers(self) -> list[dict]:
        """The fleet: session, tags, slots, liveness, work counters."""
        return self._request({"type": "workers"}, "workers")["workers"]

    def campaigns(self) -> list[dict]:
        """Active + retained campaigns with scheduling counters."""
        return self._request({"type": "status"}, "status")["campaigns"]

    def gate(self, campaign: int, baseline: CampaignReport) -> dict:
        """Server-side diff of a retained campaign against ``baseline``."""
        return self._request(
            {
                "type": "gate",
                "campaign": campaign,
                "baseline": baseline.to_dict(),
            },
            "gated",
        )

    def stop(self) -> None:
        """Ask the daemon to shut down."""
        self._request({"type": "stop"}, "ok")
