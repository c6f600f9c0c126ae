"""Regression suite record/replay tests."""

import pytest

from repro.exceptions import NetDebugError
from repro.netdebug.checker import ExpectedOutput
from repro.netdebug.regression import (
    RegressionSuite,
    record_suite,
    replay_suite,
)
from repro.p4.stdlib import strict_parser
from repro.packet.headers import ipv4
from repro.sim.traffic import default_flow, malformed_mix
from repro.target.device import NetworkDevice
from repro.target.reference import make_reference_device
from repro.target.sdnet import make_sdnet_device
from tests.test_netdebug_session import count_calls


def loaded(factory, name):
    device = factory(name)
    device.load(strict_parser())
    return device


@pytest.fixture
def frames():
    return [
        packet.pack()
        for packet, _ in malformed_mix(default_flow(), 20, 0.5, seed=6)
    ]


class TestRecord:
    def test_record_produces_one_expectation_per_frame(self, frames):
        device = loaded(make_reference_device, "rec0")
        suite = record_suite(device, frames, name="gold")
        assert len(suite.expectations) == len(frames)
        assert any(e.forbid for e in suite.expectations)      # drops
        assert any(not e.forbid for e in suite.expectations)  # forwards

    def test_mismatched_lengths_rejected(self):
        with pytest.raises(NetDebugError):
            RegressionSuite("bad", [b"x"], [])


class TestReplay:
    def test_replay_on_recording_device_passes(self, frames):
        device = loaded(make_reference_device, "rep0")
        suite = record_suite(device, frames)
        report = replay_suite(device, suite)
        assert report.passed
        assert report.injected == len(frames)

    def test_replay_on_deviant_target_fails(self, frames):
        """The core workflow: gold suite from spec, replay on hardware."""
        gold_device = loaded(make_reference_device, "rep-gold")
        suite = record_suite(gold_device, frames)
        sdnet = loaded(make_sdnet_device, "rep-sd")
        report = replay_suite(sdnet, suite)
        assert not report.passed
        leaks = report.findings_of("unexpected_output")
        malformed = sum(1 for e in suite.expectations if e.forbid)
        assert len(leaks) == malformed

    def test_replay_detects_control_plane_drift(self):
        """Same program, different table entries: replay catches it."""
        from repro.p4.stdlib import ipv4_router
        from repro.packet.builder import udp_packet
        from repro.packet.headers import mac

        gold = make_reference_device("rep-cp-gold")
        gold.load(ipv4_router())
        gold.control_plane.table_add(
            "ipv4_lpm", "route", [(ipv4("10.0.0.0"), 8)],
            [mac("aa:bb:cc:dd:ee:01"), 2],
        )
        frames = [
            udp_packet(ipv4("10.9.9.9"), ipv4("1.1.1.1"), 53, 9).pack()
        ]
        suite = record_suite(gold, frames)

        drifted = make_reference_device("rep-cp-drift")
        drifted.load(ipv4_router())
        drifted.control_plane.table_add(
            "ipv4_lpm", "route", [(ipv4("10.0.0.0"), 8)],
            [mac("aa:bb:cc:dd:ee:01"), 3],  # wrong port
        )
        report = replay_suite(drifted, suite)
        assert not report.passed


class TestPersistence:
    def test_save_load_roundtrip(self, tmp_path, frames):
        device = loaded(make_reference_device, "per0")
        suite = record_suite(device, frames, name="release-1")
        pcap_path, json_path = suite.save(tmp_path)
        assert pcap_path.exists() and json_path.exists()

        loaded_suite = RegressionSuite.load(tmp_path, "release-1")
        assert loaded_suite.frames == suite.frames
        assert loaded_suite.expectations == suite.expectations

    def test_loaded_suite_replays_identically(self, tmp_path, frames):
        gold = loaded(make_reference_device, "per-gold")
        record_suite(gold, frames, name="r2").save(tmp_path)
        suite = RegressionSuite.load(tmp_path, "r2")

        sdnet = loaded(make_sdnet_device, "per-sd")
        report = replay_suite(sdnet, suite)
        assert not report.passed

    def test_pcap_is_standard_format(self, tmp_path, frames):
        from repro.packet.pcap import read_pcap

        device = loaded(make_reference_device, "per-fmt")
        record_suite(device, frames, name="fmt").save(tmp_path)
        records = read_pcap(tmp_path / "fmt.pcap")
        assert [r.data for r in records] == frames


class TestContradictoryExpectations:
    """forbid=True plus output constraints is self-contradictory and
    must be rejected when a suite is built or loaded."""

    def test_forbid_with_fields_rejected(self):
        with pytest.raises(NetDebugError, match="forbid"):
            RegressionSuite(
                "bad-fields", [b"x"],
                [ExpectedOutput(forbid=True, fields={"ipv4.ttl": 63})],
            )

    def test_forbid_with_wire_rejected(self):
        with pytest.raises(NetDebugError, match="forbid"):
            RegressionSuite(
                "bad-wire", [b"x"],
                [ExpectedOutput(forbid=True, wire=b"x")],
            )

    def test_forbid_with_egress_rejected(self):
        with pytest.raises(NetDebugError, match="forbid"):
            RegressionSuite(
                "bad-port", [b"x"],
                [ExpectedOutput(forbid=True, egress_port=1)],
            )

    def test_contradictory_artifact_rejected_on_load(self, tmp_path):
        """A hand-edited artifact with a contradictory expectation must
        not load."""
        import json

        device = loaded(make_reference_device, "con0")
        frames = [
            packet.pack()
            for packet, _ in malformed_mix(default_flow(), 4, 0.0, seed=1)
        ]
        record_suite(device, frames, name="edited").save(tmp_path)
        json_path = tmp_path / "edited.expect.json"
        payload = json.loads(json_path.read_text())
        payload["expectations"][0]["forbid"] = True
        json_path.write_text(json.dumps(payload))
        with pytest.raises(NetDebugError, match="forbid"):
            RegressionSuite.load(tmp_path, "edited")

    def test_plain_forbid_still_fine(self):
        suite = RegressionSuite(
            "ok", [b"x"], [ExpectedOutput(forbid=True, label="drop")]
        )
        assert suite.expectations[0].forbid


class TestTruncatedPcapReplay:
    def test_truncated_record_refuses_load(self, tmp_path):
        import struct

        device = loaded(make_reference_device, "tr0")
        frames = [
            packet.pack()
            for packet, _ in malformed_mix(default_flow(), 3, 0.0, seed=2)
        ]
        record_suite(device, frames, name="cut").save(tmp_path)
        pcap_path = tmp_path / "cut.pcap"
        raw = bytearray(pcap_path.read_bytes())
        # Inflate the first record's orig_len past its incl_len.
        incl_len = struct.unpack_from("<I", raw, 24 + 8)[0]
        struct.pack_into("<I", raw, 24 + 12, incl_len + 42)
        pcap_path.write_bytes(bytes(raw))
        with pytest.raises(NetDebugError, match="truncated"):
            RegressionSuite.load(tmp_path, "cut")

    def test_intact_suite_still_loads(self, tmp_path):
        device = loaded(make_reference_device, "tr1")
        frames = [
            packet.pack()
            for packet, _ in malformed_mix(default_flow(), 3, 0.5, seed=3)
        ]
        record_suite(device, frames, name="whole").save(tmp_path)
        suite = RegressionSuite.load(tmp_path, "whole")
        assert suite.frames == frames


class TestFloodExpectationRoundTrip:
    def test_egress_ports_survive_save_load(self, tmp_path, monkeypatch):
        """Flood (l2_switch broadcast) expectations keep their per-port
        expansion through the artifact format, and the replay enters
        the device as one block, like any session stream."""
        from repro.p4.stdlib import l2_switch
        from repro.packet.builder import udp_packet

        device = make_reference_device("flood-rt")
        device.load(l2_switch())
        frames = [
            udp_packet(ipv4("10.1.0.1"), ipv4("10.0.0.1"), 5000, 1024).pack()
        ]
        suite = record_suite(device, frames, name="flood")
        assert suite.expectations[0].egress_ports == tuple(range(1, 8))
        suite.save(tmp_path)
        loaded_suite = RegressionSuite.load(tmp_path, "flood")
        assert loaded_suite.expectations == suite.expectations
        injects = count_calls(monkeypatch, NetworkDevice, "inject")
        blocks = count_calls(monkeypatch, NetworkDevice, "inject_block")
        report = replay_suite(device, loaded_suite)
        assert report.passed
        assert (len(injects), len(blocks)) == (0, 1)
