"""Span tracer that measures ``repro`` layers from outside.

:class:`Tracer` wraps the public entry point of each ``repro`` module a
workload calls (the :data:`SPANS` table) and keeps every call as an
in-memory span: layer, label, start, end, parent span and campaign id.
Nothing in ``src/`` knows it is traced; :meth:`Tracer.uninstall` puts
every original back.

Two kinds of wrapper:

* **spans** time one call. A call that returns a generator is timed per
  ``next()`` instead — ``StreamSpec.materialize`` is lazy, so timing the
  call alone would measure nothing and leave the work in the caller.
* **counters** (:data:`COUNTERS`) only count calls and add up their
  time. ``Packet.pack`` runs inside several layers, so its time overlaps
  theirs; it is kept out of the span tree and out of self-time sums.

Spans are recorded per thread (each thread has its own parent stack) and
per process: forked service workers run their own tracer and hand their
spans back through :meth:`Tracer.dump`.
"""

from __future__ import annotations

import importlib
import inspect
import itertools
import json
import os
import threading
import time
from contextlib import contextmanager
from functools import wraps


def _campaign_of_job(args, kwargs):
    """Campaign id of a service job frame (``_service_execute(message)``)."""
    return args[0].get("campaign")


#: (layer, module, attribute, campaign-id extractor or None). A module
#: function is patched where it is *called from*: ``campaign`` imports
#: ``build_workload`` and ``run_session`` by name, so patching their home
#: modules would miss every call.
SPANS = (
    ("campaign", "repro.netdebug.campaign", "run_campaign", None),
    ("shard", "repro.netdebug.campaign", "_run_shard", None),
    ("shard", "repro.netdebug.cluster", "_service_execute",
     _campaign_of_job),
    ("artifact", "repro.target.device", "NetworkDevice.load", None),
    ("artifact", "repro.target.device", "NetworkDevice.install", None),
    ("artifact", "repro.target.artifact_cache", "ArtifactCache.key_for",
     None),
    ("artifact", "repro.target.artifact_cache", "ArtifactCache.load", None),
    ("artifact", "repro.target.artifact_cache", "ArtifactCache.store", None),
    ("traffic", "repro.netdebug.campaign", "build_workload", None),
    ("coverage", "repro.netdebug.coverage", "covering_set", None),
    # The stateful oracle builds its one interpreter at construction.
    ("oracle", "repro.netdebug.oracle", "ReferenceOracle.__init__", None),
    ("oracle", "repro.netdebug.oracle", "ReferenceOracle.expect_all", None),
    ("interp", "repro.p4.interpreter", "Interpreter.__init__", None),
    ("interp", "repro.p4.interpreter", "Interpreter.process", None),
    ("session", "repro.netdebug.campaign", "run_session", None),
    ("generator", "repro.netdebug.generator", "StreamSpec.materialize",
     None),
    ("device", "repro.target.device", "NetworkDevice.inject", None),
    ("device", "repro.target.device", "NetworkDevice.inject_batch", None),
    ("device", "repro.target.device", "NetworkDevice.inject_block", None),
    ("checker", "repro.netdebug.checker", "ExpectedOutput.matches", None),
    ("checker", "repro.netdebug.checker", "OutputChecker.arm", None),
    ("checker", "repro.netdebug.checker", "OutputChecker.disarm", None),
    ("checker", "repro.netdebug.checker", "OutputChecker.finalize", None),
    ("report", "repro.netdebug.report", "CanonicalJsonReport.to_json", None),
    ("report", "repro.netdebug.campaign", "CampaignReport.to_dict", None),
    ("report", "repro.netdebug.campaign", "CampaignReport.from_dict", None),
    ("report", "repro.netdebug.campaign", "ScenarioResult.to_dict", None),
    ("report", "repro.netdebug.campaign", "ScenarioResult.from_dict", None),
    ("client", "repro.netdebug.client", "ServiceClient.submit", None),
    ("transport", "repro.netdebug.transport", "send_message", None),
    ("hmac", "repro.netdebug.transport", "FrameAuth.tag", None),
    ("hmac", "repro.netdebug.transport", "FrameAuth.verify", None),
    ("codec", "repro.netdebug.service", "encode_job", None),
    ("codec", "repro.netdebug.cluster", "decode_job", None),
)

#: (counter, module, attribute): counted and timed, never spans.
COUNTERS = (
    ("packet.pack", "repro.packet.packet", "Packet.pack"),
)

#: Frame header (4-byte length + kind byte) and HMAC tag, for
#: ``transport.bytes``; the body is re-encoded the way send_message does.
_FRAME_HEADER_BYTES = 5
_TAG_BYTES = 32


def _resolve(module_name: str, attribute: str):
    """(owner, name) for ``module.Class.method`` or ``module.function``."""
    owner = importlib.import_module(module_name)
    *path, name = attribute.split(".")
    for part in path:
        owner = getattr(owner, part)
    return owner, name


class Tracer:
    """In-memory span recorder plus the patches that feed it.

    ``campaign`` is the id stamped on every span opened from now on. The
    benchmark's closed loop sets it before each campaign; with one
    client in flight at a time, every thread of the process works for
    that campaign.
    """

    def __init__(self) -> None:
        #: (sid, parent sid or 0, layer, label, start_ns, end_ns,
        #: campaign, thread id): plain tuples, appended as spans close.
        self.spans: list[tuple] = []
        #: (counter, campaign) -> [calls, ns]
        self.counters: dict[tuple[str, object], list[int]] = {}
        #: campaign -> [frames, bytes] sent through send_message.
        self.frames: dict[object, list[int]] = {}
        self.campaign: object = None
        self._ids = itertools.count(1)
        self._local = threading.local()
        #: (owner, attribute, original, owned by owner), in patch order.
        self._patches: list[tuple[object, str, object, bool]] = []

    # -- recording ---------------------------------------------------------

    def _stack(self) -> list[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _open(self) -> tuple:
        stack = self._stack()
        sid = next(self._ids)
        parent = stack[-1] if stack else 0
        stack.append(sid)
        return sid, parent, self.campaign, time.perf_counter_ns()

    def _close(self, layer: str, label: str, opened: tuple) -> None:
        end = time.perf_counter_ns()
        sid, parent, cid, start = opened
        self._stack().pop()
        self.spans.append(
            (sid, parent, layer, label, start, end, cid,
             threading.get_ident())
        )

    @contextmanager
    def span(self, layer: str, label: str):
        """Record the body of a ``with`` block as one span."""
        opened = self._open()
        try:
            yield
        finally:
            self._close(layer, label, opened)

    def _span_wrapper(self, fn, layer, label, campaign_of):
        tracer = self

        @wraps(fn)
        def traced(*args, **kwargs):
            if campaign_of is not None:
                tracer.campaign = campaign_of(args, kwargs)
            opened = tracer._open()
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer._close(layer, label, opened)
            if inspect.isgenerator(result):
                return tracer._iterate(result, layer, label)
            return result

        return traced

    def _iterate(self, iterator, layer, label):
        """Re-yield ``iterator``, timing each ``next()`` as a span."""
        try:
            while True:
                with self.span(layer, label):
                    try:
                        item = next(iterator)
                    except StopIteration:
                        return
                yield item
        finally:
            iterator.close()

    def _counter_wrapper(self, fn, name):
        counters = self.counters
        tracer = self

        @wraps(fn)
        def counted(*args, **kwargs):
            start = time.perf_counter_ns()
            try:
                return fn(*args, **kwargs)
            finally:
                elapsed = time.perf_counter_ns() - start
                slot = counters.get((name, tracer.campaign))
                if slot is None:
                    slot = counters[(name, tracer.campaign)] = [0, 0]
                slot[0] += 1
                slot[1] += elapsed

        return counted

    def _send_wrapper(self, traced_send):
        """Count frames and bytes around the traced ``send_message``.

        The byte count re-encodes the JSON body after the span has
        closed, so it adds time to the caller but not to the transport
        layer. Pickle frames (never sent by the service) count as
        frames without bytes.
        """
        frames = self.frames
        tracer = self

        @wraps(traced_send)
        def counted(sock, message, binary=False, auth=None, seq=0):
            traced_send(sock, message, binary=binary, auth=auth, seq=seq)
            size = 0
            if not binary:
                size = _FRAME_HEADER_BYTES + len(json.dumps(message).encode())
                if auth is not None:
                    size += _TAG_BYTES
            slot = frames.get(tracer.campaign)
            if slot is None:
                slot = frames[tracer.campaign] = [0, 0]
            slot[0] += 1
            slot[1] += size

        return counted

    # -- patching ----------------------------------------------------------

    def _patch(self, owner, name, make_wrapper) -> None:
        own = name in vars(owner)
        original = vars(owner)[name] if own else getattr(owner, name)
        if isinstance(original, classmethod):
            replacement = classmethod(make_wrapper(original.__func__))
        else:
            replacement = make_wrapper(original)
        setattr(owner, name, replacement)
        self._patches.append((owner, name, original, own))

    def install(self) -> "Tracer":
        """Wrap every entry point in :data:`SPANS` and :data:`COUNTERS`."""
        if self._patches:
            raise RuntimeError("a tracer installs once")
        try:
            for layer, module, attribute, campaign_of in SPANS:
                owner, name = _resolve(module, attribute)
                label = f"{module.rsplit('.', 1)[-1]}.{attribute}"

                def make(fn, layer=layer, label=label, campaign_of=campaign_of):
                    traced = self._span_wrapper(fn, layer, label, campaign_of)
                    if layer == "transport":
                        return self._send_wrapper(traced)
                    return traced

                self._patch(owner, name, make)
            for counter, module, attribute in COUNTERS:
                owner, name = _resolve(module, attribute)
                self._patch(
                    owner, name,
                    lambda fn, counter=counter: self._counter_wrapper(
                        fn, counter
                    ),
                )
        except BaseException:
            self.uninstall()
            raise
        return self

    def uninstall(self) -> None:
        """Put every original back, newest patch first."""
        for owner, name, original, own in reversed(self._patches):
            if own:
                setattr(owner, name, original)
            elif name in vars(owner):
                delattr(owner, name)

    def restored(self) -> bool:
        """True when every patched attribute is the original object
        again (checked after :meth:`uninstall`)."""
        for owner, name, original, own in self._patches:
            if own and vars(owner).get(name) is not original:
                return False
            if not own and name in vars(owner):
                return False
        return True

    # -- hand-off between processes ------------------------------------------

    def export(self) -> dict:
        """This process's spans and counts as JSON data."""
        return {
            "pid": os.getpid(),
            "spans": self.spans,
            "counters": [
                [name, cid, calls, ns]
                for (name, cid), (calls, ns) in self.counters.items()
            ],
            "frames": [
                [cid, frames, size]
                for cid, (frames, size) in self.frames.items()
            ],
        }

    def dump(self, path) -> None:
        with open(path, "w") as fh:
            json.dump(self.export(), fh)


def _child_ns(spans) -> dict[int, int]:
    """sid -> summed duration of its direct child spans."""
    child_ns: dict[int, int] = {}
    for span in spans:
        child_ns[span[1]] = child_ns.get(span[1], 0) + span[5] - span[4]
    return child_ns


def _summarize_layers(processes: list[dict], measured: set) -> tuple:
    """(per layer, per label) busy time, self time and call count over
    the spans of the measured campaigns, across every process.

    Busy time counts only a layer's outermost spans (a span nested in a
    span of its own layer adds no busy time); self time is a span's
    duration minus its direct children's.
    """
    layers: dict[str, dict] = {}
    labels: dict[str, dict] = {}
    unions: dict[tuple, frozenset] = {}
    for process in processes:
        spans = sorted(process["spans"])  # sid order = open order
        child_ns = _child_ns(spans)
        #: sid -> layers of the span and its ancestors.
        above: dict[int, frozenset] = {0: frozenset()}
        for sid, parent, layer, label, start, end, cid, _tid in spans:
            parents = above.get(parent, frozenset())
            key = (parents, layer)
            if key not in unions:
                unions[key] = parents | {layer}
            above[sid] = unions[key]
            if cid not in measured:
                continue
            duration = end - start
            entry = layers.setdefault(
                layer, {"busy_ns": 0, "self_ns": 0, "count": 0}
            )
            entry["count"] += 1
            entry["self_ns"] += duration - child_ns.get(sid, 0)
            if layer not in parents:
                entry["busy_ns"] += duration
            by_label = labels.setdefault(label, {"busy_ns": 0, "count": 0,
                                                 "under_oracle": 0})
            by_label["count"] += 1
            by_label["busy_ns"] += duration
            if "oracle" in parents:
                by_label["under_oracle"] += 1
    return layers, labels


def _self_time_coverage(processes: list[dict], measured: set) -> float:
    """Self times of the measured campaigns' spans on the campaign
    thread ÷ the campaigns' busy time.

    Only the benchmark's own byte checks (``bench.check_bytes``) are
    left out. A span that escaped its campaign — opened with the wrong
    parent, say by a lazy iterator timed in the wrong place — lands
    outside every campaign's busy time and pushes the ratio above 1.
    """
    covered = 0
    busy = 0
    for process in processes:
        spans = sorted(process["spans"])
        child_ns = _child_ns(spans)
        threads = {
            s[7] for s in spans
            if not s[1] and s[2] == "campaign" and s[6] in measured
        }
        excluded: set[int] = set()
        for sid, parent, layer, label, start, end, cid, tid in spans:
            if tid not in threads or cid not in measured:
                continue
            if label == "bench.check_bytes" or parent in excluded:
                excluded.add(sid)
                continue
            if not parent and layer == "campaign":
                busy += end - start
            covered += end - start - child_ns.get(sid, 0)
    return covered / busy if busy else 0.0


def per_layer_metrics(
    processes: list[dict],
    measured: set,
    campaigns: int,
    packets: int,
    shards: int,
    workers: int,
    campaign_wall_s: float,
    cache: dict,
) -> tuple[dict, dict]:
    """(per-layer metric values, layer table) for one traced workload.

    ``processes`` are :meth:`Tracer.export` payloads whose span campaign
    ids are already in the benchmark's numbering; ``measured`` holds the
    ids of the measured campaigns; ``cache`` carries the compile-cache
    counters (``hits``/``memory_hits`` summed over the measured
    campaigns, ``misses`` from the set-up campaign).
    """
    layers, labels = _summarize_layers(processes, measured)

    def busy_ms(layer):
        return layers.get(layer, {}).get("busy_ns", 0) / 1e6

    def self_ms(layer):
        return layers.get(layer, {}).get("self_ns", 0) / 1e6

    def label_sum(suffix, field):
        return sum(v[field] for k, v in labels.items() if k.endswith(suffix))

    n = max(campaigns, 1)
    p = max(packets, 1)
    pack_calls = pack_ns = 0
    frames = size = 0
    for process in processes:
        for name, cid, calls, ns in process["counters"]:
            if name == "packet.pack" and cid in measured:
                pack_calls += calls
                pack_ns += ns
        for cid, count, nbytes in process["frames"]:
            if cid in measured:
                frames += count
                size += nbytes
    process_calls = label_sum("Interpreter.process", "count")
    process_ns = label_sum("Interpreter.process", "busy_ns")
    oracle_interpreters = label_sum("Interpreter.__init__", "under_oracle")
    per_packet_injects = label_sum("NetworkDevice.inject", "count")
    shard_ms = busy_ms("shard")
    metrics = {
        "campaign.self_ms": self_ms("campaign") / n,
        "artifact.busy_ms": busy_ms("artifact") / n,
        "artifact.cache_hits": cache.get("hits", 0) / n,
        "artifact.cache_misses": cache.get("misses", 0),
        "artifact.memory_hits": cache.get("memory_hits", 0) / n,
        "traffic.busy_ms": busy_ms("traffic") / n,
        "traffic.us_per_packet": busy_ms("traffic") * 1e3 / p,
        "coverage.busy_ms": busy_ms("coverage") / n,
        "oracle.busy_ms": busy_ms("oracle") / n,
        "oracle.us_per_expectation": busy_ms("oracle") * 1e3 / p,
        "oracle.interpreters_per_packet": oracle_interpreters / p,
        "interp.process_us": (
            process_ns / 1e3 / process_calls if process_calls else 0.0
        ),
        "session.self_ms": self_ms("session") / n,
        "session.block_share": max(0.0, 1.0 - per_packet_injects / p),
        "generator.busy_ms": busy_ms("generator") / n,
        "device.busy_ms": busy_ms("device") / n,
        "device.us_per_packet": self_ms("device") * 1e3 / p,
        "checker.busy_ms": busy_ms("checker") / n,
        "packet.packs_per_packet": pack_calls / p,
        "packet.pack_ms": pack_ns / 1e6 / n,
        "report.serialize_ms": busy_ms("report") / n,
        "client.submit_ms": busy_ms("client") / n,
        "transport.frames": frames / n,
        "transport.bytes": size / n,
        "transport.send_ms": busy_ms("transport") / n,
        "hmac.ms": busy_ms("hmac") / n,
        "codec.ms": busy_ms("codec") / n,
        "service.shard_exec_ms": shard_ms / max(shards, 1),
        "service.idle_ms_per_shard": (
            (workers * campaign_wall_s * 1e3 - shard_ms) / max(shards, 1)
        ),
    }
    total_self = sum(v["self_ns"] for v in layers.values()) or 1
    table = {
        layer: {
            "busy_ms": v["busy_ns"] / 1e6,
            "self_ms": v["self_ns"] / 1e6,
            "count": v["count"],
            "share": v["self_ns"] / total_self,
        }
        for layer, v in sorted(layers.items())
    }
    table["packet.pack (inclusive)"] = {
        "busy_ms": pack_ns / 1e6,
        "self_ms": None,
        "count": pack_calls,
        "share": None,
    }
    coverage = _self_time_coverage(processes, measured)
    return metrics, {"layers": table, "self_time_coverage": coverage}


def chrome_events(processes: list[dict], names: dict[int, str]) -> list[dict]:
    """Chrome trace-event records (``ph: X``) for every span, with one
    ``process_name`` record per process; times in µs from the earliest
    span."""
    starts = [s[4] for process in processes for s in process["spans"]]
    origin = min(starts) if starts else 0
    events: list[dict] = []
    for process in processes:
        pid = process["pid"]
        events.append({
            "name": "process_name", "ph": "M", "pid": pid, "tid": 0,
            "args": {"name": names.get(pid, str(pid))},
        })
        for sid, parent, layer, label, start, end, cid, tid in process[
            "spans"
        ]:
            events.append({
                "name": label,
                "cat": layer,
                "ph": "X",
                "ts": (start - origin) / 1e3,
                "dur": (end - start) / 1e3,
                "pid": pid,
                "tid": tid,
                "args": {"span": sid, "parent": parent, "campaign": cid},
            })
    return events
