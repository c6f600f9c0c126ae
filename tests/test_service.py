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
  campaign no fleet member could ever run fails loudly.
"""

import pickle
import socket
import struct
import threading
import time

import pytest

from repro.exceptions import ClusterError, NetDebugError
from repro.netdebug.campaign import (
    CAMPAIGN_ENGINE,
    ScenarioMatrix,
    _pool_context,
    run_campaign,
)
from repro.netdebug.client import ServiceClient
from repro.netdebug.cluster import (
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
        payload = encode_job(
            scenario, matrix.faults[scenario.fault], engine="closure"
        )
        decoded, faults, record, engine, oracle = decode_job(payload)
        assert (record, engine, oracle) == (False, "closure", None)
        assert decoded == scenario
        assert faults == matrix.faults[scenario.fault]

    def test_default_engine_is_the_campaign_engine(self):
        scenario = service_matrix().expand()[0]
        payload = encode_job(scenario, ())
        assert payload["engine"] == CAMPAIGN_ENGINE == "batch"
        assert "epoch" not in payload
        assert decode_job(payload)[3] == CAMPAIGN_ENGINE

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
            ["engine:batch", "target:tofino", " engine:batch ", ""]
        ) == ("engine:batch", "target:tofino")

    def test_malformed_tag_rejected(self):
        with pytest.raises(ClusterError, match="dim:value"):
            normalize_tags(["tofino"])

    def test_eligibility_per_dimension(self):
        required = ("target:tofino", "engine:batch")
        assert tags_eligible((), required)  # untagged takes anything
        assert tags_eligible(("target:tofino",), required)
        assert tags_eligible(
            ("target:tofino", "engine:batch"), required
        )
        assert not tags_eligible(("target:reference",), required)
        assert not tags_eligible(
            ("target:tofino", "engine:closure"), required
        )


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

    def add_worker(self, slots=1, tags=(), **kwargs):
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
        # A batch-tagged worker takes default-engine shards, and the
        # per-cell execution path rides the result frames into the
        # client's report meta.
        f = fleet()
        f.add_worker(tags=("engine:batch",))
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
        assert report.meta["execution"] == serial.meta["execution"] == {
            "block": 2, "per_packet": 2, "reasons": {"faults armed": 2},
        }
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
