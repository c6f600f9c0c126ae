"""Device-level tests: ports, stats, flood, status, management interface."""

import pytest

from repro.exceptions import TargetError
from repro.p4.interpreter import Verdict
from repro.p4.stdlib import l2_switch, port_counter, strict_parser
from repro.packet.builder import ethernet_frame, udp_packet
from repro.packet.headers import ipv4, mac
from repro.target.device import FLOOD_PORT, NetworkDevice
from repro.target.reference import ReferenceCompiler, make_reference_device
from repro.target.sdnet import make_sdnet_device


def switch_device(name="sw0"):
    device = make_reference_device(name)
    device.load(l2_switch())
    device.control_plane.table_add(
        "dmac", "forward", [mac("02:00:00:00:00:02")], [1]
    )
    return device


FRAME = ethernet_frame(
    mac("02:00:00:00:00:02"), mac("02:00:00:00:00:01"), 0x0800,
    payload=b"data",
).pack()


class TestLifecycle:
    def test_no_program_loaded_raises(self):
        device = make_reference_device()
        with pytest.raises(TargetError):
            _ = device.program
        with pytest.raises(TargetError):
            _ = device.control_plane
        with pytest.raises(TargetError):
            device.process(b"", 0)

    def test_load_returns_compiled(self):
        device = make_reference_device()
        compiled = device.load(l2_switch())
        assert compiled.program.name == "l2_switch"
        assert device.program is compiled.program

    def test_reload_replaces_program(self):
        device = make_reference_device()
        device.load(l2_switch())
        device.load(strict_parser())
        assert device.program.name == "strict_parser"


class TestForwarding:
    def test_unicast(self):
        device = switch_device()
        outputs = device.process(FRAME, 0)
        assert [port for port, _ in outputs] == [1]
        assert device.ports[0].rx_packets == 1
        assert device.ports[1].tx_packets == 1
        assert device.ports[1].tx_bytes == len(FRAME)

    def test_flood_excludes_ingress(self):
        device = switch_device()
        unknown = ethernet_frame(0x99, 1, 0x0800).pack()
        outputs = device.process(unknown, 2)
        ports = sorted(port for port, _ in outputs)
        assert 2 not in ports
        assert len(ports) == len(device.ports) - 1

    def test_invalid_port_raises(self):
        device = switch_device()
        with pytest.raises(TargetError):
            device.process(FRAME, 99)

    def test_invalid_egress_counted(self):
        device = make_reference_device()
        device.load(strict_parser(forward_port=200))  # > num_ports
        packet = udp_packet(ipv4("1.1.1.1"), ipv4("2.2.2.2"), 53, 9)
        assert device.process(packet.pack(), 0) == []
        assert device.stats.invalid_egress == 1

    def test_stats_accumulate(self):
        device = switch_device()
        device.process(FRAME, 0)
        device.process(b"\x00" * 3, 0)  # truncated -> parser reject
        assert device.stats.processed == 2
        assert device.stats.forwarded == 1
        assert device.stats.parser_rejected == 1

    def test_clock_advances(self):
        device = switch_device()
        before = device.clock_cycles
        device.process(FRAME, 0)
        assert device.clock_cycles > before


class TestInjection:
    def test_inject_does_not_touch_ports(self):
        device = switch_device()
        run = device.inject(FRAME, at="input")
        assert run.result.verdict is Verdict.FORWARDED
        # No port counters moved: test traffic never leaves the device.
        assert all(p.rx_packets == 0 for p in device.ports)
        assert all(p.tx_packets == 0 for p in device.ports)

    def test_inject_with_emit(self):
        device = switch_device()
        device.inject(FRAME, at="input", emit=True)
        assert device.ports[1].tx_packets == 1

    def test_inject_mid_pipeline(self):
        device = switch_device()
        run = device.inject(FRAME, at="deparser")
        assert run.stages_traversed[0] == "deparser"

    @pytest.mark.parametrize("on_error", ["rasie", "", None])
    def test_inject_block_refuses_unknown_on_error(self, on_error):
        # A typo must not silently capture exceptions into the results.
        device = switch_device()
        with pytest.raises(TargetError, match="on_error"):
            device.inject_block([FRAME], on_error=on_error)
        assert device.stats.processed == 0


class TestManagementInterface:
    def test_taps_attach_detach(self):
        device = switch_device()
        seen = []
        device.attach_tap("output", seen.append)
        device.process(FRAME, 0)
        device.detach_tap("output", seen.append)
        device.process(FRAME, 0)
        assert len(seen) == 1

    def test_stage_names_exposed(self):
        device = switch_device()
        assert "parser" in device.stage_names()

    def test_status_shape(self):
        device = switch_device()
        device.process(FRAME, 0)
        status = device.status()
        assert status["device"] == "sw0"
        assert status["target"] == "reference"
        assert status["program"] == "l2_switch"
        assert status["stats"]["processed"] == 1
        assert status["ports"][0]["rx_packets"] == 1
        assert status["resources"]["luts"] > 0
        assert "dmac" in status["tables"]
        assert 0 < status["utilization"]["luts"] < 1

    def test_status_includes_counters(self):
        device = make_reference_device()
        device.load(port_counter(num_ports=4))
        device.process(FRAME, 2)
        status = device.status()
        assert status["counters"]["per_port_pkts"][2] == 1

    def test_status_without_program(self):
        device = make_reference_device()
        status = device.status()
        assert "program" not in status
        assert status["stats"]["processed"] == 0


class TestSdnetDevice:
    def test_four_ports(self):
        device = make_sdnet_device()
        assert len(device.ports) == 4

    def test_reject_bug_at_device_level(self):
        reference = make_reference_device()
        sdnet = make_sdnet_device()
        reference.load(strict_parser())
        sdnet.load(strict_parser())
        bad = ethernet_frame(1, 2, 0xBEEF, payload=b"x" * 30).pack()
        assert reference.process(bad, 0) == []
        leaked = sdnet.process(bad, 0)
        assert leaked and leaked[0][0] == 1
