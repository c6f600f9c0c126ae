"""Regression artifacts: freeze a validation run, replay it later.

A validation session's inputs and oracle expectations can be exported as
a pair of files — a pcap of the injected frames and a JSON expectation
list — and replayed against any device later. This is the workflow for
catching regressions across program revisions, compiler updates, or
target migrations: record once on a known-good build, replay everywhere.

The artifacts are self-contained and tool-agnostic: the pcap opens in
any analyzer, and the JSON is the checker's native expectation format.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path

from ..exceptions import NetDebugError
from ..packet.pcap import PcapRecord, read_pcap, write_pcap
from ..target.device import NetworkDevice
from .checker import ExpectedOutput, OutputChecker
from .oracle import OracleFactory, StatelessOracle
from .report import SessionReport

__all__ = ["RegressionSuite", "record_suite", "replay_suite"]


def _expectation_to_dict(expectation: ExpectedOutput) -> dict:
    return {
        "wire": expectation.wire.hex() if expectation.wire is not None else None,
        "fields": dict(expectation.fields),
        "egress_port": expectation.egress_port,
        "egress_ports": (
            list(expectation.egress_ports)
            if expectation.egress_ports is not None
            else None
        ),
        "forbid": expectation.forbid,
        "label": expectation.label,
    }


def _expectation_from_dict(data: dict) -> ExpectedOutput:
    egress_ports = data.get("egress_ports")
    return ExpectedOutput(
        wire=bytes.fromhex(data["wire"]) if data["wire"] is not None else None,
        fields={k: int(v) for k, v in data["fields"].items()},
        egress_port=data["egress_port"],
        egress_ports=(
            tuple(int(p) for p in egress_ports)
            if egress_ports is not None
            else None
        ),
        forbid=data["forbid"],
        label=data["label"],
    )


def _check_expectation(name: str, index: int, e: ExpectedOutput) -> None:
    """Reject self-contradictory expectations at suite-build time.

    A ``forbid`` expectation asserts the packet produces *no* output;
    pairing it with content constraints (``wire``/``fields``/an egress
    port) is contradictory — the replay checker never evaluates those
    constraints on a drop test, so they would silently pass, which is
    exactly the false confidence a regression suite must not give.
    """
    if e.forbid and (
        e.fields
        or e.wire is not None
        or e.egress_port is not None
        or e.egress_ports
    ):
        raise NetDebugError(
            f"suite {name!r}: expectation {index} "
            f"({e.label or 'unlabelled'}) sets forbid=True together with "
            "output constraints (wire/fields/egress); a drop test cannot "
            "also constrain the output it forbids"
        )


@dataclass
class RegressionSuite:
    """A frozen workload plus its expected outcomes."""

    name: str
    frames: list[bytes]
    expectations: list[ExpectedOutput]

    def __post_init__(self) -> None:
        if len(self.frames) != len(self.expectations):
            raise NetDebugError(
                f"suite {self.name!r}: {len(self.frames)} frames vs "
                f"{len(self.expectations)} expectations"
            )
        for index, expectation in enumerate(self.expectations):
            _check_expectation(self.name, index, expectation)

    # -- persistence -----------------------------------------------------
    def to_dict(self) -> dict:
        """The suite as JSON data (frames hex-encoded) — how a service
        worker hands a recorded cell back over the wire."""
        return {
            "name": self.name,
            "frames": [frame.hex() for frame in self.frames],
            "expectations": [
                _expectation_to_dict(e) for e in self.expectations
            ],
        }

    @classmethod
    def from_dict(cls, data: dict) -> "RegressionSuite":
        return cls(
            name=data["name"],
            frames=[bytes.fromhex(frame) for frame in data["frames"]],
            expectations=[
                _expectation_from_dict(e) for e in data["expectations"]
            ],
        )

    def save(self, directory: str | Path) -> tuple[Path, Path]:
        """Write ``<name>.pcap`` and ``<name>.expect.json`` files."""
        directory = Path(directory)
        directory.mkdir(parents=True, exist_ok=True)
        pcap_path = directory / f"{self.name}.pcap"
        json_path = directory / f"{self.name}.expect.json"
        write_pcap(
            pcap_path,
            [
                PcapRecord(frame, timestamp_us=index)
                for index, frame in enumerate(self.frames)
            ],
        )
        json_path.write_text(
            json.dumps(
                {
                    "name": self.name,
                    "expectations": [
                        _expectation_to_dict(e) for e in self.expectations
                    ],
                },
                indent=2,
            )
        )
        return pcap_path, json_path

    @classmethod
    def load(cls, directory: str | Path, name: str) -> "RegressionSuite":
        """Read a suite previously written by :meth:`save`.

        Truncated captures (records whose ``incl_len`` is short of
        ``orig_len``) are rejected: replaying a frame prefix as if it
        were the full frame would diff against expectations recorded
        for the complete packet and report phantom divergences.
        """
        directory = Path(directory)
        records = read_pcap(directory / f"{name}.pcap")
        truncated = [
            index for index, record in enumerate(records) if record.truncated
        ]
        if truncated:
            listing = ", ".join(str(i) for i in truncated[:8])
            more = "…" if len(truncated) > 8 else ""
            raise NetDebugError(
                f"suite {name!r}: pcap records [{listing}{more}] are "
                "truncated captures (incl_len < orig_len); refusing to "
                "replay partial frames as full packets"
            )
        frames = [record.data for record in records]
        payload = json.loads(
            (directory / f"{name}.expect.json").read_text()
        )
        return cls(
            name=payload["name"],
            frames=frames,
            expectations=[
                _expectation_from_dict(e) for e in payload["expectations"]
            ],
        )


def record_suite(
    device: NetworkDevice,
    frames: list[bytes],
    name: str = "regression",
    oracle_factory: OracleFactory | None = None,
    ports: list[int] | None = None,
) -> RegressionSuite:
    """Freeze a workload against the device's *current* program spec.

    Expectations come from a reference oracle on the loaded program
    (including its installed table entries), so the suite captures
    intended behaviour — replaying it on a target whose implementation
    diverges from that spec fails, which is the point.
    ``oracle_factory`` overrides the default
    :class:`~repro.netdebug.oracle.StatelessOracle` (frames are fed in
    list order, so a stateful factory records connection-dependent
    expectations); ``ports`` pins per-frame ingress ports, which a
    replay must then repeat via :func:`replay_suite`.
    """
    factory = oracle_factory or StatelessOracle
    oracle = factory(device.program, num_ports=len(device.ports))
    expectations = oracle.expect_all(
        frames, ingress_ports=ports, label=name
    )
    return RegressionSuite(name, list(frames), expectations)


def replay_suite(
    device: NetworkDevice,
    suite: RegressionSuite,
    timestamps: list[int] | None = None,
    ports: list[int] | None = None,
) -> SessionReport:
    """Replay a frozen suite on ``device`` and report divergences.

    ``timestamps`` re-applies the original per-frame injection times
    (device-clock cycles). Recorded expectations pin exact output
    bytes, so suites captured under a workload-defined arrival process
    only replay faithfully for time-stamping programs (e.g.
    ``int_telemetry``) when injection happens at the same timestamps.
    ``ports`` likewise re-applies the original per-frame ingress ports
    (frames beyond the list fall back to port 0) — directional suites
    replay on the ports they were recorded on or not at all.
    """
    checker = OutputChecker(device)
    ports_covered = len(ports) if ports is not None else 0
    with checker:
        for index, (frame, expectation) in enumerate(
            zip(suite.frames, suite.expectations)
        ):
            checker.arm(expectation)
            device.inject(
                frame,
                port=ports[index] if index < ports_covered else 0,
                timestamp=(
                    timestamps[index]
                    if timestamps is not None and index < len(timestamps)
                    else None
                ),
            )
            checker.disarm()
    return SessionReport(
        session=f"replay-{suite.name}",
        device=device.name,
        program=device.program.name,
        checks=checker.outcomes(),
        findings=list(checker.findings),
        streams=dict(checker.streams),
        latency=checker.latency,
        injected=len(suite.frames),
        observed=checker.observed,
    )
