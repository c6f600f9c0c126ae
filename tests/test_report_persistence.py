"""Report serialization and controller archival tests."""

import json

from repro.netdebug.controller import NetDebugController
from repro.netdebug.generator import StreamSpec
from repro.netdebug.oracle import StatelessOracle
from repro.netdebug.session import ValidationSession
from repro.p4.stdlib import strict_parser
from repro.sim.traffic import default_flow, malformed_mix, udp_stream
from repro.target.reference import make_reference_device
from repro.target.sdnet import make_sdnet_device


def run_audit(device, count=10, seed=0):
    controller = NetDebugController(device)
    packets = [
        p for p, _ in malformed_mix(default_flow(), count, 0.5, seed)
    ]
    controller.run(
        ValidationSession(
            name="audit",
            streams=[
                StreamSpec(stream_id=1, packets=packets,
                           fix_checksums=False)
            ],
            oracle_factory=StatelessOracle,
        )
    )
    return controller


class TestToDict:
    def test_passing_report(self):
        device = make_reference_device("persist-ref")
        device.load(strict_parser())
        controller = run_audit(device)
        data = controller.reports[0].to_dict()
        assert data["passed"]
        assert data["program"] == "strict_parser"
        assert data["injected"] == 10
        assert data["findings"] == []
        json.dumps(data)  # must be JSON-compatible

    def test_failing_report_carries_findings(self):
        device = make_sdnet_device("persist-sd")
        device.load(strict_parser())
        controller = run_audit(device)
        data = controller.reports[0].to_dict()
        assert not data["passed"]
        assert data["findings"]
        assert all(
            f["kind"] == "unexpected_output" for f in data["findings"]
        )

    def test_streams_and_latency_serialized(self):
        from repro.p4.stdlib import reflector

        device = make_reference_device("persist-probe")
        device.load(reflector())
        controller = NetDebugController(device)
        controller.run(
            ValidationSession(
                name="probes",
                streams=[
                    StreamSpec(
                        stream_id=7,
                        packets=list(udp_stream(default_flow(), 5)),
                        wrap=True,
                    )
                ],
            )
        )
        data = controller.reports[0].to_dict()
        assert data["streams"]["7"]["received"] == 5
        assert data["latency"]["count"] == 5
        assert data["latency"]["mean"] > 0


class TestSaveLoad:
    def test_roundtrip(self, tmp_path):
        device = make_sdnet_device("persist-rt")
        device.load(strict_parser())
        controller = run_audit(device, count=8, seed=3)
        path = tmp_path / "reports.json"
        written = controller.save_reports(path)
        assert written == 1
        loaded = NetDebugController.load_reports(path)
        assert loaded == [r.to_dict() for r in controller.reports]

    def test_file_carries_device_identity(self, tmp_path):
        device = make_sdnet_device("persist-id")
        device.load(strict_parser())
        controller = run_audit(device)
        path = tmp_path / "reports.json"
        controller.save_reports(path)
        payload = json.loads(path.read_text())
        assert payload["device"] == "persist-id"
        assert payload["target"] == "sdnet-sume"

    def test_regression_diff_workflow(self, tmp_path):
        """The intended use: diff reports across target versions."""
        runs = {}
        for name, factory in (
            ("good", make_reference_device),
            ("bad", make_sdnet_device),
        ):
            device = factory(f"persist-{name}")
            device.load(strict_parser())
            controller = run_audit(device, seed=11)
            path = tmp_path / f"{name}.json"
            controller.save_reports(path)
            runs[name] = NetDebugController.load_reports(path)[0]
        assert runs["good"]["passed"] and not runs["bad"]["passed"]
        regressions = [
            f for f in runs["bad"]["findings"]
            if f not in runs["good"]["findings"]
        ]
        assert regressions
