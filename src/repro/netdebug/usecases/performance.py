"""Use case: performance testing (§3).

"Performance metrics, such as throughput, packet rate and latency."

Four measurement tasks: device throughput, packet rate, per-packet
in-device latency, and per-stage latency breakdown. NetDebug measures all
four from inside the device at line rate. An external tester measures
end-to-end throughput/rate but its latency is round-trip including cable,
PHY and capture overhead, and it has no per-stage visibility. A formal
verifier measures nothing.
"""

from __future__ import annotations

from ...baselines.external_tester import EXTERNAL_OVERHEAD_NS, ExternalTester
from ...p4.stdlib import l2_switch
from ...packet.headers import mac
from ...sim.traffic import default_flow, udp_stream
from ...target.reference import make_reference_device
from ..controller import NetDebugController
from ..generator import StreamSpec
from ..session import ValidationSession
from .base import Challenge, UseCaseResult, score_suite

__all__ = ["run", "measure_netdebug", "measure_external"]

STREAM_LEN = 200
FRAME_SIZE = 256


def _loaded_device(name: str):
    device = make_reference_device(name)
    device.load(l2_switch())
    device.control_plane.table_add(
        "dmac", "forward", [mac("02:00:00:00:00:02")], [1]
    )
    return device


def measure_netdebug(seed: int = 0, frame_size: int = FRAME_SIZE) -> dict:
    """NetDebug's in-device performance measurement.

    Injects a wrapped probe stream at the input tap and reads throughput,
    packet rate and exact in-device latency from the checker's line-rate
    accounting; per-stage latency comes from the pipeline's cycle model
    observed between taps.
    """
    device = _loaded_device(f"perf-nd-{frame_size}")
    controller = NetDebugController(device)
    flow = default_flow()
    packets = list(udp_stream(flow, STREAM_LEN, size=frame_size, seed=seed))
    start_cycles = device.clock_cycles
    session = ValidationSession(
        name="perf",
        streams=[StreamSpec(stream_id=7, packets=packets, wrap=True)],
    )
    report = controller.run(session)
    elapsed = max(1, device.clock_cycles - start_cycles)
    clock_hz = device.limits.clock_mhz * 1e6
    elapsed_s = elapsed / clock_hz
    octets = sum(p.wire_length for p in packets)
    stage_cycles = {
        stage: device.stage_cycles(stage, frame_size)
        for stage in device.stage_names()
    }
    return {
        "throughput_gbps": octets * 8 / elapsed_s / 1e9,
        "packet_rate_mpps": len(packets) / elapsed_s / 1e6,
        "latency_cycles_mean": report.latency.mean,
        "latency_cycles_p99": report.latency.p99,
        "latency_us_mean": report.latency.mean / device.limits.clock_mhz,
        "line_rate_gbps": device.limits.line_rate_gbps,
        "stage_cycles": stage_cycles,
        "samples": report.latency.count,
    }


def measure_external(seed: int = 0, frame_size: int = FRAME_SIZE) -> dict:
    """The external tester's port-level measurement of the same device."""
    device = _loaded_device(f"perf-ext-{frame_size}")
    tester = ExternalTester(device)
    flow = default_flow()
    flow = type(flow)(
        src_ip=flow.src_ip,
        dst_ip=flow.dst_ip,
        src_port=flow.src_port,
        dst_port=flow.dst_port,
        eth_dst=mac("02:00:00:00:00:02"),
    )
    packets = list(udp_stream(flow, STREAM_LEN, size=frame_size, seed=seed))
    return tester.measure(packets, port=0)


def run(tool: str, seed: int = 0) -> UseCaseResult:
    """Run the performance suite for one tool."""
    if tool == "netdebug":
        measured = measure_netdebug(seed)
        challenges = [
            Challenge(
                "throughput",
                1.0 if measured["throughput_gbps"] > 0 else 0.0,
                f"{measured['throughput_gbps']:.2f} Gb/s",
            ),
            Challenge(
                "packet-rate",
                1.0 if measured["packet_rate_mpps"] > 0 else 0.0,
                f"{measured['packet_rate_mpps']:.2f} Mpps",
            ),
            Challenge(
                "in-device-latency",
                1.0 if measured["samples"] == STREAM_LEN else 0.0,
                f"mean {measured['latency_cycles_mean']:.1f} cycles "
                f"over {measured['samples']} samples",
            ),
            Challenge(
                "per-stage-latency",
                1.0 if len(measured["stage_cycles"]) >= 4 else 0.0,
                f"{len(measured['stage_cycles'])} stages profiled",
            ),
        ]
    elif tool == "external":
        measured = measure_external(seed)
        # Latency is RTT only: it always embeds the measurement overhead,
        # so it bounds — but cannot equal — the in-device figure.
        rtt_is_inflated = (
            measured["rtt_min_ns"] >= EXTERNAL_OVERHEAD_NS
        )
        challenges = [
            Challenge(
                "throughput",
                1.0 if measured["throughput_gbps"] > 0 else 0.0,
                f"{measured['throughput_gbps']:.2f} Gb/s at the ports",
            ),
            Challenge(
                "packet-rate",
                1.0 if measured["packet_rate_mpps"] > 0 else 0.0,
                f"{measured['packet_rate_mpps']:.2f} Mpps at the ports",
            ),
            Challenge(
                "in-device-latency",
                0.5 if rtt_is_inflated else 0.0,
                "RTT only; includes cable/PHY/capture overhead",
            ),
            Challenge(
                "per-stage-latency",
                0.0,
                "no visibility inside the pipeline",
            ),
        ]
    elif tool == "formal":
        challenges = [
            Challenge("throughput", 0.0, "static analysis measures nothing"),
            Challenge("packet-rate", 0.0, "static analysis measures nothing"),
            Challenge(
                "in-device-latency", 0.0, "static analysis measures nothing"
            ),
            Challenge(
                "per-stage-latency", 0.0, "static analysis measures nothing"
            ),
        ]
    else:
        raise ValueError(f"unknown tool {tool!r}")
    return score_suite("performance", tool, challenges)
