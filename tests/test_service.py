"""Campaign-service tests: the hardened wire, the JSON job codec,
capability tags, and the multi-tenant fleet end to end.

The contract under test (the service acceptance criteria):

* frame fuzz — an HMAC-authenticated channel rejects truncated tags,
  wrong keys, tampered bodies, replayed frames, oversize frames and
  non-JSON kind bytes, and a pickle frame sent at the service is
  refused **without ever being unpickled**;
* job frames are data, never code: the codec round-trips declarative
  scenarios/faults and refuses predicate-carrying faults;
* two concurrent campaigns from different tenants both complete
  **byte-identical** to a serial ``run_campaign`` of the same matrix;
* a worker killed mid-campaign and a worker that drops + reconnects
  both recover with no dropped and no duplicated cells;
* fair-share: weights 3:1 yield contended dispatch shares within 2×
  of the weights; strict priority preempts across tiers;
* capability tags place shards only on eligible workers, and a
  campaign no fleet member could ever run fails loudly;
* pipelined dispatch: a default-slot worker holds two shards, a reply
  refills its slot in the same call, a lost worker is charged only for
  the shard it was running, a bad ``slots`` is refused on both ends,
  and each result reaches the client once.
"""

import inspect
import pickle
import socket
import struct
import sys
import threading
import time

import pytest

from repro.exceptions import ClusterError, NetDebugError
from repro.netdebug import service as service_module
from repro.netdebug.campaign import (
    ScenarioMatrix,
    _pool_context,
    _shard_jobs,
    run_campaign,
)
from repro.netdebug.client import ServiceClient
from repro.netdebug.cluster import (
    DEFAULT_SLOTS,
    _service_execute,
    normalize_tags,
    service_worker_main,
    tags_eligible,
)
from repro.netdebug.service import CampaignService
from repro.netdebug.transport import (
    Channel,
    FrameAuth,
    KIND_JSON,
    MAX_FRAME_BYTES,
    TAG_BYTES,
    decode_job,
    encode_job,
    recv_message,
    send_message,
)
from repro.target.faults import Fault, FaultKind

SECRET = "test-fleet-secret"

_HEADER = struct.Struct(">IB")


def service_matrix(labels=1, count=2, seed=13, **overrides):
    base = dict(
        programs=["strict_parser"],
        targets=["reference"],
        faults={f"fault{i}": () for i in range(labels)},
        workloads=["udp", "malformed"],
        count=count,
        seed=seed,
    )
    base.update(overrides)
    return ScenarioMatrix(**base)


# ---------------------------------------------------------------------------
# Frame fuzz: the hardened wire
# ---------------------------------------------------------------------------

class TestFrameAuth:
    def pair(self):
        return socket.socketpair()

    def test_authenticated_round_trip_both_directions(self):
        a, b = self.pair()
        left, right = Channel(a, secret=SECRET), Channel(b, secret=SECRET)
        for i in range(3):
            left.send({"type": "ping", "i": i})
            assert right.recv() == {"type": "ping", "i": i}
            right.send({"type": "pong", "i": i})
            assert left.recv() == {"type": "pong", "i": i}

    def test_unauthenticated_frame_too_short_for_tag(self):
        a, b = self.pair()
        send_message(a, {})  # 2-byte body, no tag
        with pytest.raises(ClusterError, match="authentication tag"):
            recv_message(b, auth=FrameAuth(SECRET))

    def test_wrong_key_rejected(self):
        a, b = self.pair()
        Channel(a, secret="not-the-fleet-secret").send({"type": "hello"})
        with pytest.raises(
            ClusterError, match="frame authentication failed"
        ):
            Channel(b, secret=SECRET).recv()

    def test_tampered_body_rejected(self):
        a, b = self.pair()
        auth = FrameAuth(SECRET)
        body = b'{"type": "job", "id": 1}'
        tag = auth.tag(0, KIND_JSON, body)
        evil = b'{"type": "job", "id": 9}'  # same length, flipped byte
        a.sendall(_HEADER.pack(len(evil + tag), KIND_JSON) + evil + tag)
        with pytest.raises(
            ClusterError, match="frame authentication failed"
        ):
            Channel(b, secret=SECRET).recv()

    def test_replayed_frame_rejected(self):
        # The exact bytes the receiver accepted at sequence 0 must fail
        # at sequence 1: the tag covers the implicit counter.
        a, b = self.pair()
        auth = FrameAuth(SECRET)
        body = b'{"type": "result", "assignment": 7}'
        tag = auth.tag(0, KIND_JSON, body)
        frame = _HEADER.pack(len(body + tag), KIND_JSON) + body + tag
        a.sendall(frame + frame)
        channel = Channel(b, secret=SECRET)
        assert channel.recv()["assignment"] == 7
        with pytest.raises(ClusterError, match="sequence 1"):
            channel.recv()

    def test_oversize_frame_rejected_before_allocation(self):
        a, b = self.pair()
        a.sendall(_HEADER.pack(MAX_FRAME_BYTES + 1, KIND_JSON))
        with pytest.raises(ClusterError, match="exceeds limit"):
            recv_message(b, auth=FrameAuth(SECRET))

    def test_unknown_kind_byte_rejected_by_json_only(self):
        # JSON is the only frame kind, authenticated or not.
        a, b = self.pair()
        a.sendall(_HEADER.pack(2, 0x5A) + b"{}")
        with pytest.raises(ClusterError, match="only JSON"):
            recv_message(b, auth=FrameAuth(SECRET))


# A class whose unpickling has an observable side effect: if the
# service ever feeds a pickle frame to pickle.loads, TRIPPED fills.
TRIPPED = []


def _trip():
    TRIPPED.append("unpickled")
    return {"owned": True}


class Boom:
    def __reduce__(self):
        return (_trip, ())


def test_service_rejects_pickle_frames_without_unpickling():
    service = CampaignService().start()
    try:
        sock = socket.create_connection(service.address, timeout=10.0)
        try:
            body = pickle.dumps({"job": Boom()})
            sock.sendall(_HEADER.pack(len(body), 0x50) + body)
            sock.settimeout(10.0)
            # The daemon drops the connection by kind byte alone.
            assert sock.recv(1) == b""
        finally:
            sock.close()
        assert TRIPPED == []
    finally:
        service.close()


def test_authenticated_service_rejects_wrong_key_client():
    service = CampaignService(secret=SECRET).start()
    try:
        client = ServiceClient(
            service.address, secret="wrong-key", timeout=10.0
        )
        with pytest.raises(ClusterError):
            client.workers()
    finally:
        service.close()


# ---------------------------------------------------------------------------
# JSON job codec
# ---------------------------------------------------------------------------

class TestJobCodec:
    def test_round_trip(self):
        matrix = service_matrix(
            labels=1,
            faults={
                "chaos": (
                    Fault(FaultKind.BLACKHOLE, stage="ingress.0"),
                ),
            },
        )
        scenario = matrix.expand()[0]
        payload = encode_job(scenario, matrix.faults[scenario.fault])
        decoded, faults, record = decode_job(payload)
        assert record is False
        assert decoded == scenario
        assert faults == matrix.faults[scenario.fault]

    def test_payload_carries_only_the_cell(self):
        # No execution knob travels: the worker runs the cell as a
        # serial run would.
        scenario = service_matrix().expand()[0]
        payload = encode_job(scenario, ())
        assert set(payload) == {"scenario", "faults"}
        assert decode_job(payload)[0] == scenario

    def test_predicate_faults_refused(self):
        matrix = service_matrix(
            faults={
                "picky": (
                    Fault(
                        FaultKind.BLACKHOLE,
                        stage="ingress.0",
                        predicate=lambda packet: True,
                    ),
                ),
            },
        )
        scenario = matrix.expand()[0]
        with pytest.raises(NetDebugError, match="predicate"):
            encode_job(scenario, matrix.faults[scenario.fault])

    def test_malformed_payload_refused(self):
        with pytest.raises(ClusterError, match="malformed JSON job"):
            decode_job({"faults": []})


# ---------------------------------------------------------------------------
# Capability tags
# ---------------------------------------------------------------------------

class TestTags:
    def test_normalize_sorts_and_dedupes(self):
        assert normalize_tags(
            ["target:tofino", "target:reference", " target:tofino ", ""]
        ) == ("target:reference", "target:tofino")

    def test_malformed_tag_rejected(self):
        with pytest.raises(ClusterError, match="dim:value"):
            normalize_tags(["tofino"])

    def test_eligibility_per_dimension(self):
        required = ("target:tofino",)
        assert tags_eligible((), required)  # untagged takes anything
        assert tags_eligible(("target:tofino",), required)
        assert tags_eligible(
            ("target:tofino", "target:sdnet"), required
        )
        assert not tags_eligible(("target:reference",), required)

    def test_stale_dimension_refused_at_hello(self):
        # An engine:batch worker would constrain no dimension a shard
        # requires and silently take every shard; the hello is refused
        # naming the tag, and the worker never joins the fleet.
        with pytest.raises(ClusterError, match="'engine:batch'"):
            normalize_tags(["target:tofino", "engine:batch"])
        service = CampaignService(secret=SECRET).start()
        try:
            sock = socket.create_connection(service.address, timeout=10)
            channel = Channel(sock, secret=SECRET)
            channel.send(
                {
                    "type": "hello",
                    "mode": "service",
                    "session": "stale",
                    "tags": ["engine:batch"],
                }
            )
            reply = channel.recv()
            channel.close()
            assert reply["type"] == "rejected"
            assert "engine:batch" in reply["error"]
            assert service.worker_listing() == []
        finally:
            service.close()


# ---------------------------------------------------------------------------
# The fleet, end to end
# ---------------------------------------------------------------------------

class Fleet:
    """One in-process daemon plus forked service workers."""

    def __init__(self, secret=SECRET, **service_kwargs):
        self.secret = secret
        self.service = CampaignService(
            secret=secret, **service_kwargs
        ).start()
        self.processes = []

    def add_worker(self, slots=DEFAULT_SLOTS, tags=(), **kwargs):
        kwargs.setdefault("connect_retry_s", 5.0)
        process = _pool_context().Process(
            target=service_worker_main,
            args=(self.service.address,),
            kwargs=dict(
                slots=slots, tags=tags, secret=self.secret, **kwargs
            ),
        )
        process.start()
        self.processes.append(process)
        return process

    def wait_workers(self, n, timeout=30.0):
        deadline = time.monotonic() + timeout
        while time.monotonic() < deadline:
            listing = self.service.worker_listing()
            if sum(1 for w in listing if w["alive"]) >= n:
                return listing
            time.sleep(0.05)
        raise AssertionError(f"fleet never reached {n} live workers")

    def client(self, timeout=120.0):
        return ServiceClient(
            self.service.address, secret=self.secret, timeout=timeout
        )

    def close(self):
        self.service.close()
        for process in self.processes:
            process.join(timeout=10.0)
            if process.is_alive():
                process.terminate()


@pytest.fixture
def fleet(request):
    fleets = []

    def make(**kwargs):
        f = Fleet(**kwargs)
        fleets.append(f)
        return f

    yield make
    for f in fleets:
        f.close()


class TestService:
    def test_concurrent_campaigns_byte_identical_and_gated(self, fleet):
        f = fleet()
        f.add_worker()
        f.add_worker()
        f.wait_workers(2)
        client = f.client()
        alpha_matrix = service_matrix(labels=2, seed=7)
        beta_matrix = service_matrix(labels=2, seed=9, count=3)
        alpha = client.submit(
            alpha_matrix, name="alpha", tenant="ci", priority=1, weight=3.0
        )
        beta = client.submit(
            beta_matrix, name="beta", tenant="nightly", weight=1.0
        )
        seen = []
        alpha_report = alpha.stream(
            on_result=lambda key, rep, prog: seen.append(key)
        )
        beta_report = beta.result()
        assert sorted(seen) == sorted(
            s.key for s in alpha_matrix.expand()
        )
        assert (
            alpha_report.to_json()
            == run_campaign(alpha_matrix, name="alpha").to_json()
        )
        assert (
            beta_report.to_json()
            == run_campaign(beta_matrix, name="beta").to_json()
        )
        assert alpha_report.meta["service"]["tenant"] == "ci"
        assert alpha_report.meta["service"]["priority"] == 1
        # Server-side diff gate against the serial twin: identical.
        verdict = alpha.gate(run_campaign(alpha_matrix, name="alpha"))
        assert verdict["identical"] and not verdict["regression"]
        alpha.close()
        beta.close()

    def test_execution_counts_reach_the_client(self, fleet):
        # A fault-armed cell's report reaches the client byte for byte
        # as a serial run renders it, and no execution record rides the
        # result frames.
        f = fleet()
        f.add_worker()
        f.wait_workers(1)
        matrix = service_matrix(
            faults={
                "baseline": (),
                "blackhole": (
                    Fault(FaultKind.BLACKHOLE, stage="ingress.0"),
                ),
            },
        )
        report = f.client().run(matrix, name="paths")
        serial = run_campaign(matrix, name="paths")
        assert "execution" not in report.meta
        assert report.to_json() == serial.to_json()

    def test_worker_crash_mid_campaign_recovers(self, fleet):
        # One worker hard-exits on its second shard; after the grace
        # its lost assignment requeues on the survivor. No dropped or
        # duplicated cells: the report is byte-identical to serial.
        f = fleet(reconnect_grace_s=0.5, steal_after_s=30.0)
        f.add_worker(crash_after=1)
        f.add_worker()
        f.wait_workers(2)
        matrix = service_matrix(labels=3, seed=21)
        report = f.client().run(matrix, name="chaos")
        assert (
            report.to_json()
            == run_campaign(matrix, name="chaos").to_json()
        )
        assert report.meta["service"]["requeues"] >= 1

    def test_worker_drop_and_reconnect_resumes_same_session(self, fleet):
        # The only worker drops its connection every 2 completions and
        # reconnects under the same session id; the outstanding-shard
        # ledger resumes the campaign with nothing lost or re-run.
        f = fleet(steal_after_s=30.0)
        f.add_worker(drop_after=2)
        f.wait_workers(1)
        matrix = service_matrix(labels=3, seed=33)
        report = f.client().run(matrix, name="flaky")
        assert (
            report.to_json()
            == run_campaign(matrix, name="flaky").to_json()
        )
        sessions = {
            w["session"] for w in f.service.worker_listing()
        }
        assert len(sessions) == 1

    def test_fair_share_within_2x_of_weights(self, fleet):
        # One worker, two same-tier tenants at weights 3:1: contended
        # dispatch shares must land within 2x of the weight ratio.
        f = fleet()
        f.add_worker()
        f.wait_workers(1)
        client = f.client()
        heavy = client.submit(
            service_matrix(labels=6, seed=51), name="heavy",
            tenant="t-heavy", weight=3.0,
        )
        light = client.submit(
            service_matrix(labels=6, seed=52), name="light",
            tenant="t-light", weight=1.0,
        )
        heavy_meta = heavy.result().meta["service"]
        light_meta = light.result().meta["service"]
        heavy.close()
        light.close()
        assert heavy_meta["contended"] > 0
        assert light_meta["contended"] > 0
        ratio = heavy_meta["contended"] / light_meta["contended"]
        assert 3.0 / 2.0 <= ratio <= 3.0 * 2.0, (heavy_meta, light_meta)

    def test_strict_priority_preempts_lower_tier(self, fleet):
        f = fleet()
        f.add_worker()
        f.wait_workers(1)
        client = f.client()
        low = client.submit(
            service_matrix(labels=6, seed=61), name="low", priority=0
        )
        high = client.submit(
            service_matrix(labels=1, seed=62), name="high", priority=5
        )
        high.result()
        listing = {
            c["campaign"]: c for c in client.campaigns()
        }
        low_live = listing[low.campaign]
        assert low_live["completed"] < low_live["total"]
        low.result()  # and the low tier still finishes afterwards
        low.close()
        high.close()

    def test_tagged_placement_pins_shards_to_eligible_workers(
        self, fleet
    ):
        # A worker pinned to another target's toolchain must receive
        # nothing from a reference-only campaign (not even steals).
        f = fleet(steal_after_s=30.0)
        f.add_worker(tags=("target:tofino",))
        f.add_worker()
        f.wait_workers(2)
        matrix = service_matrix(labels=2, seed=71)
        report = f.client().run(matrix, name="pinned")
        assert report.scenarios == len(matrix.expand())
        by_tags = {
            tuple(w["tags"]): w for w in f.service.worker_listing()
        }
        assert by_tags[("target:tofino",)]["completed"] == 0
        assert by_tags[()]["completed"] == report.scenarios

    def test_stranded_campaign_fails_naming_capabilities(self, fleet):
        f = fleet()
        f.add_worker(tags=("target:reference",))
        f.wait_workers(1)
        handle = f.client().submit(
            service_matrix(targets=["tofino"]), name="stranded"
        )
        with pytest.raises(ClusterError, match="requires capabilities"):
            handle.result()
        handle.close()

    def test_submit_refuses_compress(self, capsys):
        # Service campaigns run every cell; accepting --compress and
        # ignoring it would silently run the uncompressed matrix.
        from repro.netdebug.service import main

        with pytest.raises(SystemExit) as exit_info:
            main(["submit", "--connect", "127.0.0.1:1", "--insecure",
                  "--compress"])
        assert exit_info.value.code == 2
        assert "--compress" in capsys.readouterr().err

    def test_predicate_matrix_refused_at_submission(self, fleet):
        f = fleet()
        matrix = service_matrix(
            faults={
                "picky": (
                    Fault(
                        FaultKind.BLACKHOLE,
                        stage="ingress.0",
                        predicate=lambda packet: True,
                    ),
                ),
            },
        )
        with pytest.raises(NetDebugError, match="predicate"):
            f.client().submit(matrix, name="nope")


# ---------------------------------------------------------------------------
# Pipelined dispatch, driven by hand (no scheduler thread, no sleeps)
# ---------------------------------------------------------------------------

def _jobs(matrix):
    return _shard_jobs(matrix.expand(), matrix.faults)


class HandWorker:
    """A worker session whose far end the test reads frame by frame.

    ``_serve_worker`` runs in a thread, exactly as for a real
    connection; the service's scheduler thread is never started, so
    every dispatch the test sees came from the call it made.
    """

    def __init__(self, service, session="hand", **hello):
        ours, theirs = socket.socketpair()
        # A frame that never comes fails the test instead of hanging it.
        theirs.settimeout(10.0)
        self.service = service
        self.end = Channel(theirs)
        self.thread = threading.Thread(
            target=service._serve_worker,
            args=(
                Channel(ours),
                session,
                {"type": "hello", "mode": "service", "session": session,
                 **hello},
            ),
            daemon=True,
        )
        self.thread.start()
        assert self.end.recv()["type"] == "welcome"
        self.worker = service._workers[session]

    def jobs(self, n):
        frames = [self.end.recv() for _ in range(n)]
        assert [f["type"] for f in frames] == ["job"] * n
        return frames

    def close(self):
        self.end.close()
        self.thread.join(timeout=10.0)


@pytest.fixture
def hand_service():
    services, workers = [], []

    def make(**kwargs):
        service = CampaignService(**kwargs)
        services.append(service)
        return service

    def worker(service, **hello):
        hand = HandWorker(service, **hello)
        workers.append(hand)
        return hand

    make.worker = worker
    yield make
    for hand in workers:
        hand.close()
    for service in services:
        service.close()


def _admit(service, jobs):
    campaign = service._new_campaign("hand", jobs)
    with service._cond:
        service._admit_locked(campaign)
    return campaign


class TestPipelinedDispatch:
    def test_worker_defaults_to_two_slots(self, monkeypatch):
        # One constant sets the worker function's and the CLI's default.
        assert DEFAULT_SLOTS == 2
        assert inspect.signature(service_worker_main).parameters[
            "slots"
        ].default == DEFAULT_SLOTS
        seen = {}
        monkeypatch.setattr(
            service_module, "service_worker_main",
            lambda address, **kwargs: seen.update(kwargs),
        )
        assert service_module.main(
            ["worker", "--connect", "127.0.0.1:1", "--insecure"]
        ) == 0
        assert seen["slots"] == DEFAULT_SLOTS

    def test_default_slot_worker_holds_two_assignments(
        self, hand_service
    ):
        # The hello omits slots, so the service's default applies.
        service = hand_service()
        hand = hand_service.worker(service)
        campaign = _admit(service, _jobs(service_matrix(labels=2)))
        frames = hand.jobs(2)
        assert len(hand.worker.outstanding) == 2 == hand.worker.slots
        assert sorted(hand.worker.outstanding) == sorted(
            f["assignment"] for f in frames
        )
        assert len(campaign.pending) == campaign.total - 2 > 0

    def test_result_ingest_refills_the_freed_slot_in_the_same_call(
        self, hand_service
    ):
        service = hand_service()
        hand = hand_service.worker(service)
        campaign = _admit(service, _jobs(service_matrix(labels=2)))
        first, second = hand.jobs(2)
        reply = _service_execute(first)
        service._ingest_worker_reply(hand.worker, reply)
        # Synchronously, before any other thread could run: the result
        # counted, and the freed slot already holds the next shard.
        assert list(campaign.results) == [first["id"]]
        assert len(hand.worker.outstanding) == 2
        ack, refill = hand.end.recv(), hand.end.recv()
        assert ack == {"type": "ack", "assignments": [first["assignment"]]}
        assert refill["type"] == "job"
        assert set(hand.worker.outstanding) == {
            second["assignment"], refill["assignment"],
        }
        assert refill["id"] not in (first["id"], second["id"])

    def test_lost_worker_charges_only_the_shard_it_was_running(
        self, hand_service
    ):
        # Two slots: the lost worker was running its oldest assignment;
        # the one queued behind it never started and must requeue free.
        service = hand_service(reconnect_grace_s=0.0)
        hand = hand_service.worker(service)
        campaign = _admit(service, _jobs(service_matrix(labels=2)))
        running, queued = hand.jobs(2)
        assert running["assignment"] < queued["assignment"]
        with service._cond:
            service._mark_lost_locked(hand.worker)
            service._expire_lost_locked()
            failures = dict(campaign.failures)
            pending = set(campaign.pending)
        assert sum(failures.values()) == 1
        assert failures.get(running["id"]) == 1
        assert failures.get(queued["id"], 0) == 0
        assert {running["id"], queued["id"]} <= pending
        assert campaign.failed_error is None

    def test_only_an_idle_worker_steals(self, hand_service):
        # Every in-flight shard is stealable at once. A worker with a
        # shard still queued must not take a duplicate to run behind
        # it; once its queue drains, it steals.
        service = hand_service(steal_after_s=0.0)
        slow = hand_service.worker(service, session="slow", slots=1)
        busy = hand_service.worker(service, session="busy", slots=2)
        _admit(service, _jobs(service_matrix(labels=2))[:3])
        (stuck,) = slow.jobs(1)
        first, second = busy.jobs(2)
        service._ingest_worker_reply(busy.worker, _service_execute(first))
        assert service.steals == 0
        assert list(busy.worker.outstanding) == [second["assignment"]]
        service._ingest_worker_reply(busy.worker, _service_execute(second))
        assert service.steals == 1
        (copy,) = busy.worker.outstanding.values()
        assert copy.job_index == stuck["id"]

    @pytest.mark.parametrize("slots", ["two", 0, -1, 1.5, True, None])
    def test_hello_with_bad_slots_is_rejected_naming_the_value(
        self, slots
    ):
        service = CampaignService(secret=SECRET).start()
        try:
            sock = socket.create_connection(service.address, timeout=10)
            channel = Channel(sock, secret=SECRET)
            channel.send(
                {
                    "type": "hello",
                    "mode": "service",
                    "session": "bad-slots",
                    "slots": slots,
                }
            )
            reply = channel.recv()
            channel.close()
            assert reply["type"] == "rejected"
            assert repr(slots) in reply["error"]
            assert "slots" in reply["error"]
            assert service.worker_listing() == []
        finally:
            service.close()

    @pytest.mark.parametrize("field", ["done", "holding"])
    def test_hello_with_bad_assignment_id_is_rejected_naming_it(
        self, field
    ):
        # A non-integer id is refused with a reason, and the
        # connection thread survives to serve the next hello.
        service = CampaignService(secret=SECRET).start()
        try:
            for session, ids in ((f"bad-{field}", ["x"]),
                                 (f"good-{field}", [])):
                sock = socket.create_connection(service.address, timeout=10)
                channel = Channel(sock, secret=SECRET)
                channel.send(
                    {
                        "type": "hello",
                        "mode": "service",
                        "session": session,
                        field: ids,
                    }
                )
                reply = channel.recv()
                channel.close()
                if ids:
                    assert reply["type"] == "rejected"
                    assert repr(field) in reply["error"]
                    assert "'x'" in reply["error"]
                    assert service.worker_listing() == []
                else:
                    assert reply["type"] == "welcome"
        finally:
            service.close()

    @pytest.mark.parametrize("slots", [0, -2, "2"])
    def test_worker_refuses_bad_slots_before_connecting(self, slots):
        # Port 1 is never contacted: the check comes first.
        with pytest.raises(ClusterError, match="slots must be an integer"):
            service_worker_main(
                ("127.0.0.1", 1), slots=slots, connect_retry_s=0.0
            )

    def test_worker_cli_refuses_zero_slots(self, capsys):
        assert service_module.main(
            ["worker", "--connect", "127.0.0.1:1", "--insecure",
             "--slots", "0"]
        ) == 2
        assert "slots must be an integer >= 1, got 0" in (
            capsys.readouterr().err
        )

    @pytest.mark.parametrize("hook", [False, True])
    def test_client_reassembles_the_stream_without_a_report_frame(
        self, fleet, hook
    ):
        f = fleet()
        f.add_worker()
        f.wait_workers(1)
        matrix = service_matrix(labels=2, seed=83)
        handle = f.client().submit(matrix, name="once")
        frames = []
        recv = handle._channel.recv

        def spy():
            frame = recv()
            frames.append(frame)
            return frame

        handle._channel.recv = spy
        seen = []
        report = handle.stream(
            on_result=(lambda key, rep, prog: seen.append(key))
            if hook else None
        )
        handle.close()
        serial = run_campaign(matrix, name="once")
        assert report.to_json() == serial.to_json()
        complete = frames[-1]
        assert complete["type"] == "complete"
        assert "report" not in complete
        assert report.meta == complete["meta"] == handle.meta
        results = [fr for fr in frames if fr["type"] == "result"]
        assert len(results) == serial.scenarios
        assert len(seen) == (serial.scenarios if hook else 0)


def test_refill_on_reply_under_thread_stress(fleet):
    # More workers than cores, three campaigns at once, and a short
    # switch interval in this process (where the service's ingest and
    # client threads run): every shard is dispatched exactly once (no
    # steals at this age) and every report equals its serial twin.
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        f = fleet(steal_after_s=60.0)
        for _ in range(3):
            f.add_worker()
        f.wait_workers(3)
        client = f.client(timeout=60.0)
        matrices = {
            f"stress{seed}": service_matrix(labels=2, seed=seed)
            for seed in (91, 92, 93)
        }
        handles = {
            name: client.submit(matrix, name=name)
            for name, matrix in matrices.items()
        }
        reports = {name: h.result() for name, h in handles.items()}
        for handle in handles.values():
            handle.close()
    finally:
        sys.setswitchinterval(interval)
    for name, matrix in matrices.items():
        service_meta = reports[name].meta["service"]
        assert service_meta["dispatched"] == len(matrix.expand())
        assert service_meta["requeues"] == 0
        assert (
            reports[name].to_json()
            == run_campaign(matrix, name=name).to_json()
        )
