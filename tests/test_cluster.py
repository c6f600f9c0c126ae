"""Cluster subsystem tests: transport framing, the one-shot cluster
launcher (an ephemeral campaign service), streaming ingest,
fault-tolerant requeue, and the byte-identical determinism contract
across serial / pool / cluster."""

import pickle
import random
import socket
import struct
import threading

import pytest

from repro.exceptions import ClusterError
from repro.netdebug.campaign import (
    ScenarioMatrix,
    SerialExecutor,
    ShardExecutor,
    assemble_report,
    run_campaign,
)
from repro.netdebug.cluster import (
    ClusterExecutor,
    ProgressPrinter,
    main,
    run_cluster_campaign,
)
from repro.netdebug.controller import NetDebugController
from repro.netdebug.transport import (
    Channel,
    MAX_FRAME_BYTES,
    recv_message,
    send_message,
)
from repro.p4.stdlib import strict_parser
from repro.target.reference import make_reference_device


def small_matrix(**overrides) -> ScenarioMatrix:
    base = dict(
        programs=["strict_parser", "l2_switch"],
        targets=["reference", "sdnet"],
        faults={"baseline": ()},
        workloads=["udp", "malformed"],
        count=4,
        seed=11,
    )
    base.update(overrides)
    return ScenarioMatrix(**base)


# ---------------------------------------------------------------------------
# Transport framing
# ---------------------------------------------------------------------------

class TestTransport:
    def socket_pair(self):
        return socket.socketpair()

    def test_json_round_trip(self):
        a, b = self.socket_pair()
        send_message(a, {"type": "hello", "slots": 3})
        assert recv_message(b) == {"type": "hello", "slots": 3}

    def test_clean_eof_returns_none(self):
        a, b = self.socket_pair()
        a.close()
        assert recv_message(b) is None

    def test_mid_frame_eof_raises(self):
        a, b = self.socket_pair()
        # A header promising 100 bytes, then death.
        a.sendall(b"\x00\x00\x00\x64\x4a" + b"{")
        a.close()
        with pytest.raises(ClusterError, match="mid-frame"):
            recv_message(b)

    def test_oversized_length_prefix_rejected(self):
        a, b = self.socket_pair()
        length = MAX_FRAME_BYTES + 1
        a.sendall(length.to_bytes(4, "big") + b"\x4a")
        with pytest.raises(ClusterError, match="exceeds limit"):
            recv_message(b)

    def test_json_only_rejects_pickle_frames_unparsed(self):
        # JSON is the only frame kind: a pickle frame ("P", 0x50) is
        # refused from its header, and its body is never even read.
        a, b = self.socket_pair()
        body = pickle.dumps({"type": "hello"})
        a.sendall(struct.pack(">IB", len(body), 0x50) + body)
        with pytest.raises(ClusterError, match="only JSON"):
            recv_message(b)
        assert b.recv(len(body)) == body

    def test_binary_frames_cannot_be_sent(self):
        a, _ = self.socket_pair()
        with pytest.raises(ClusterError, match="JSON frames only"):
            send_message(a, {"type": "hello"}, binary=True)

    def test_tcp_channel_disables_nagle(self):
        # An ack frame followed by a job frame must not wait for the
        # peer's delayed ACK.
        listener = socket.create_server(("127.0.0.1", 0))
        client = socket.create_connection(listener.getsockname()[:2])
        server, _ = listener.accept()
        try:
            channel = Channel(client)
            assert client.getsockopt(
                socket.IPPROTO_TCP, socket.TCP_NODELAY
            ) == 1
            channel.send({"type": "ping"})
            assert recv_message(server) == {"type": "ping"}
        finally:
            client.close()
            server.close()
            listener.close()

    def test_unknown_kind_byte_rejected(self):
        a, b = self.socket_pair()
        a.sendall(b"\x00\x00\x00\x02\x5a{}")
        with pytest.raises(ClusterError, match="kind byte"):
            recv_message(b)

    def test_channel_send_is_locked_and_closable(self):
        a, b = self.socket_pair()
        channel = Channel(a)
        threads = [
            threading.Thread(
                target=channel.send, args=({"type": "t", "i": i},)
            )
            for i in range(8)
        ]
        for thread in threads:
            thread.start()
        seen = {recv_message(b)["i"] for _ in range(8)}
        for thread in threads:
            thread.join()
        assert seen == set(range(8))
        channel.close()
        assert recv_message(b) is None


# ---------------------------------------------------------------------------
# Determinism: serial vs pool vs distributed cluster
# ---------------------------------------------------------------------------

class TestClusterDeterminism:
    def test_serial_pool_and_cluster_byte_identical(self):
        matrix = small_matrix()
        serial = run_campaign(matrix, workers=1, name="det")
        pooled = run_campaign(matrix, workers=2, name="det")
        clustered = run_cluster_campaign(matrix, workers=2, name="det",
                                         timeout=300)
        assert serial.to_json() == pooled.to_json()
        assert serial.to_json() == clustered.to_json()

    def test_seeded_baseline_matrix_identical_on_all_three_paths(self):
        # The acceptance contract: the golden-baseline seeded matrix
        # produces the same bytes serially, on a pool, and distributed.
        from repro.netdebug.diffing import baseline_matrix

        matrix = baseline_matrix()
        serial = run_campaign(matrix, workers=1, name="baseline")
        pooled = run_campaign(matrix, workers=2, name="baseline")
        clustered = run_cluster_campaign(matrix, workers=2,
                                         name="baseline", timeout=300)
        assert serial.to_json() == pooled.to_json()
        assert serial.to_json() == clustered.to_json()

    def test_cluster_streams_results_with_progress(self):
        matrix = small_matrix(programs=["strict_parser"])
        events = []
        run_cluster_campaign(
            matrix, workers=2, name="stream", timeout=300,
            on_result=lambda key, report, progress: events.append(
                (key, progress.completed, progress.total)
            ),
        )
        total = len(matrix.expand())
        assert len(events) == total
        # Progress counts arrivals 1..N regardless of arrival order.
        assert [completed for _, completed, _ in events] == list(
            range(1, total + 1)
        )
        assert {key for key, _, _ in events} == {
            s.key for s in matrix.expand()
        }

    def test_record_dir_works_through_the_cluster(self, tmp_path):
        matrix = small_matrix(programs=["strict_parser"])
        recorded = run_cluster_campaign(
            matrix, workers=2, name="gold", record_dir=tmp_path,
            timeout=300,
        )
        assert (tmp_path / "gold.manifest.json").exists()
        assert (tmp_path / "scenario-0000.pcap").exists()
        from repro.netdebug.campaign import replay_campaign

        replayed = replay_campaign(tmp_path, name="gold")
        assert [r.verdict for r in replayed.results] == [
            r.verdict for r in recorded.results
        ]

    def test_stateful_oracle_travels_by_name(self):
        # A matrix naming the stateful oracle: workers must resolve it
        # by name and produce the serial run's bytes, which grade the
        # cells differently from the stateless oracle.
        axes = dict(
            programs=["stateful_firewall"],
            targets=["reference", "sdnet"],
            workloads=["tcp_bidir"],
            count=10,
            setup="",
        )
        matrix = small_matrix(oracle="stateful", **axes)
        serial = run_campaign(matrix, name="named")
        clustered = run_cluster_campaign(
            matrix, workers=2, name="named", timeout=300,
        )
        assert serial.to_json() == clustered.to_json()
        stateless = run_campaign(small_matrix(**axes), name="named")
        assert [r.verdict for r in serial.results] != [
            r.verdict for r in stateless.results
        ]


# ---------------------------------------------------------------------------
# Fault tolerance
# ---------------------------------------------------------------------------

class TestFaultTolerance:
    def test_worker_crash_mid_shard_requeues_and_stays_deterministic(self):
        matrix = small_matrix()
        serial = run_campaign(matrix, workers=1, name="crash")
        executor = ClusterExecutor(workers=2, crash_after=1, timeout=300)
        survived = run_campaign(matrix, name="crash", executor=executor)
        assert executor.requeues >= 1  # the dead worker's shard moved
        assert serial.to_json() == survived.to_json()

    def test_retry_budget_exhaustion_raises_cluster_error(self):
        matrix = small_matrix(programs=["strict_parser"],
                              targets=["reference"], workloads=["udp"])
        executor = ClusterExecutor(
            workers=1, crash_after=0, retry_budget=0, timeout=60
        )
        with pytest.raises(
            ClusterError, match="retry budget|every worker exited"
        ):
            run_campaign(matrix, name="doomed", executor=executor)

    def test_all_workers_lost_raises_instead_of_hanging(self):
        matrix = small_matrix(programs=["strict_parser"],
                              targets=["reference"], workloads=["udp"])
        executor = ClusterExecutor(
            workers=1, crash_after=0, retry_budget=10, timeout=60
        )
        with pytest.raises(
            ClusterError, match="every worker exited|retry budget"
        ):
            run_campaign(matrix, name="lost", executor=executor)

    def test_rejected_hello_is_terminal_and_names_the_reason(self):
        # A refused hello is not a lost coordinator: the worker must
        # stop on the first refusal, naming the service's reason,
        # instead of reconnecting until its budget runs out.
        from repro.netdebug.cluster import service_worker_main

        listener = socket.create_server(("127.0.0.1", 0))
        listener.settimeout(0.2)
        hellos = []
        stop = threading.Event()

        def refuse_every_hello():
            while not stop.is_set():
                try:
                    sock, _ = listener.accept()
                except socket.timeout:
                    continue
                channel = Channel(sock)
                hellos.append(channel.recv())
                channel.send(
                    {"type": "rejected", "error": "bad tag 'target'"}
                )
                channel.close()

        refuser = threading.Thread(target=refuse_every_hello, daemon=True)
        refuser.start()
        try:
            with pytest.raises(
                ClusterError, match="rejected this worker: bad tag 'target'"
            ):
                service_worker_main(
                    listener.getsockname()[:2], connect_retry_s=5.0
                )
        finally:
            stop.set()
            refuser.join(timeout=5)
            listener.close()
        assert [hello["type"] for hello in hellos] == ["hello"]

    def test_worker_socket_has_no_lingering_connect_timeout(self):
        # The connect timeout must not apply to later recv()s: an idle
        # worker waits far longer than 10s on real campaigns.
        from repro.netdebug.cluster import _connect_with_retry

        listener = socket.create_server(("127.0.0.1", 0))
        sock = _connect_with_retry(listener.getsockname()[:2], 5.0)
        assert sock.gettimeout() is None
        sock.close()
        listener.close()

    def test_malformed_result_message_fails_loudly(self):
        # A foreign worker replying without a 'result' key must fail
        # the campaign with ClusterError, not strand the shard or
        # corrupt the result map.
        from repro.netdebug.campaign import _shard_jobs
        from repro.netdebug.service import CampaignService

        matrix = small_matrix(programs=["strict_parser"],
                              targets=["reference"], workloads=["udp"])
        jobs = _shard_jobs(matrix.expand(), matrix.faults)
        service = CampaignService().start()

        def rogue_worker():
            channel = Channel(socket.create_connection(service.address))
            channel.send({"type": "hello", "mode": "service",
                          "session": "rogue"})
            channel.recv()  # welcome
            job = channel.recv()  # take the job...
            channel.send({"type": "result",  # ...bungle it
                          "assignment": job["assignment"]})

        threading.Thread(target=rogue_worker, daemon=True).start()
        try:
            with pytest.raises(ClusterError, match="undecodable result"):
                service.run_jobs(jobs, timeout=30)
        finally:
            service.close()

    def test_unregistered_shard_fn_rejected(self):
        executor = ClusterExecutor(workers=1)
        with pytest.raises(ClusterError, match="live campaign shards"):
            executor.execute([], lambda job: job)


# ---------------------------------------------------------------------------
# Out-of-order reassembly (the streaming-ingest determinism property)
# ---------------------------------------------------------------------------

class ShuffledExecutor(ShardExecutor):
    """Executes serially, then delivers results in a seeded random
    order — a worst-case model of out-of-order cluster arrival."""

    def __init__(self, seed: int):
        self.seed = seed

    def execute(self, jobs, shard_fn, on_result=None):
        results = [shard_fn(job) for job in jobs]
        random.Random(self.seed).shuffle(results)
        if on_result is not None:
            for result in results:
                on_result(result)
        return results


class TestOutOfOrderReassembly:
    @pytest.mark.parametrize("seed", range(6))
    def test_any_arrival_order_reassembles_byte_identically(self, seed):
        matrix = small_matrix(programs=["strict_parser"], count=3)
        serial = run_campaign(matrix, name="order")
        shuffled = run_campaign(
            matrix, name="order", executor=ShuffledExecutor(seed)
        )
        assert serial.to_json() == shuffled.to_json()

    def test_assemble_report_rejects_duplicates(self):
        matrix = small_matrix(programs=["strict_parser"],
                              targets=["reference"], workloads=["udp"])
        results = run_campaign(matrix, name="dup").results
        with pytest.raises(Exception, match="duplicate"):
            assemble_report("dup", results + results)

    def test_assemble_report_rejects_gaps(self):
        matrix = small_matrix(programs=["strict_parser"],
                              targets=["reference"],
                              workloads=["udp", "malformed"])
        results = run_campaign(matrix, name="gap").results
        with pytest.raises(Exception, match="1 of 2"):
            assemble_report("gap", results[:1], expected=2)


# ---------------------------------------------------------------------------
# Controller + renderer integration
# ---------------------------------------------------------------------------

class TestIntegration:
    def test_controller_archives_cluster_campaign(self):
        device = make_reference_device("cluster-ctl")
        device.load(strict_parser())
        controller = NetDebugController(device)
        matrix = small_matrix(programs=["strict_parser"],
                              targets=["reference"])
        report = run_cluster_campaign(matrix, workers=2, name="arch",
                                      timeout=300)
        assert controller.archive_campaign(report) == len(report.results)

    def test_controller_stream_archiver_collects_live(self):
        device = make_reference_device("cluster-live")
        device.load(strict_parser())
        controller = NetDebugController(device)
        matrix = small_matrix(programs=["strict_parser"],
                              targets=["reference"])
        run_campaign(matrix, name="live",
                     on_result=controller.stream_archiver())
        assert len(controller.reports) == len(matrix.expand())

    def test_progress_printer_renders_each_result(self, capsys):
        matrix = small_matrix(programs=["strict_parser"],
                              targets=["reference", "sdnet"])
        printer = ProgressPrinter()
        run_campaign(matrix, name="render", on_result=printer)
        out = capsys.readouterr().out
        lines = [line for line in out.splitlines() if line.startswith("[")]
        assert len(lines) == len(matrix.expand())
        assert printer.first_result_s is not None
        assert "strict_parser/sdnet/baseline/malformed" in out
        assert "FAIL" in out  # the reject-leak cell renders as failing

    def test_cli_local_subcommand_end_to_end(self, tmp_path, capsys):
        out_file = tmp_path / "cli.json"
        status = main(
            [
                "local",
                "--workers", "2",
                "--programs", "strict_parser",
                "--targets", "reference,sdnet",
                "--workloads", "udp,malformed",
                "--count", "4",
                "--setup", "",
                "--name", "clismoke",
                "--out", str(out_file),
            ]
        )
        assert status == 0
        assert out_file.exists()
        # The CLI's file is byte-equivalent (canonically) to an
        # in-process serial run of the same matrix.
        from repro.netdebug.campaign import CampaignReport

        serial = run_campaign(
            small_matrix(programs=["strict_parser"], count=4,
                         seed=2018),
            name="clismoke",
        )
        assert CampaignReport.load(out_file).to_json() == serial.to_json()

    def test_cli_bad_address_exits_2(self, capsys):
        from repro.netdebug import service

        assert service.main(
            ["worker", "--connect", "nonsense", "--insecure"]
        ) == 2
        assert "HOST:PORT" in capsys.readouterr().err
        # The one-shot cluster CLI has no worker verb of its own.
        with pytest.raises(SystemExit) as exit_info:
            main(["worker", "--connect", "127.0.0.1:1"])
        assert exit_info.value.code == 2
