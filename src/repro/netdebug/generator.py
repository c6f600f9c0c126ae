"""The in-device test packet generator.

The generator is one of NetDebug's two hardware modules (Figure 1). It is
*programmable*: a :class:`StreamSpec` describes a stream of test packets —
a template, field sweeps or fuzzing over template fields, rate, count,
wrapping mode and injection point — and the generator materializes and
injects them directly into the data plane under test, bypassing the
external interfaces.

In the paper the generator is itself written in P4; here its
programmability is expressed as declarative stream specifications whose
field programs (sweeps/fuzz) reference the same dotted ``header.field``
paths P4 uses. The substitution is documented in DESIGN.md.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field as dc_field
from typing import Callable, Iterator

from ..exceptions import NetDebugError
from ..packet.checksum import update_all_checksums
from ..packet.packet import Packet
from ..target.device import NetworkDevice
from ..target.pipeline import TAP_INPUT, TargetRun
from .testpacket import make_probe

__all__ = [
    "FieldSweep",
    "FieldFuzz",
    "StreamSpec",
    "PacketGenerator",
    "wire_of",
]


def wire_of(item: Packet | bytes) -> bytes:
    """The wire bytes of one materialized stream item (a packet, or a
    frame a :attr:`StreamSpec.packets` list already carries packed)."""
    return item if isinstance(item, bytes) else item.pack()


@dataclass(frozen=True)
class FieldSweep:
    """Sweep a template field through explicit values or a range.

    ``path`` is a dotted ``header.field`` reference into the template.
    Exactly one of ``values`` or (``start``, ``stop``, ``step``) is used.
    The sweep recycles when the stream is longer than the value list.
    """

    path: str
    values: tuple[int, ...] = ()
    start: int = 0
    stop: int = 0
    step: int = 1

    def value_at(self, index: int) -> int:
        if self.values:
            return self.values[index % len(self.values)]
        span = max(1, (self.stop - self.start + self.step - 1) // self.step)
        return self.start + (index % span) * self.step


@dataclass(frozen=True)
class FieldFuzz:
    """Randomize a template field uniformly over its width (seeded)."""

    path: str
    seed: int = 0


@dataclass
class StreamSpec:
    """One programmable test stream.

    Attributes:
        stream_id: Identifier carried in probe headers.
        template: The base packet every generated packet starts from.
        count: Packets to generate.
        sweeps: Field sweeps applied per packet index.
        fuzzes: Fields randomized per packet.
        wrap: When True the (possibly modified) template is carried
            inside a NetDebug probe; when False it is injected bare and
            the checker correlates by order.
        inject_at: Pipeline tap where packets enter (default: input).
        rate_pps: Injection rate for timed runs; ignored by the
            synchronous path.
        fix_checksums: Recompute IP/L4 checksums after sweeps/fuzzing.
        packets: Alternative to template+sweeps — an explicit list of
            packets or of wire frames (``bytes``), taking precedence
            when set. Packets are copied as they are materialized;
            frames are immutable and are injected as they are.
        timestamps: Optional per-packet injection timestamps (one per
            packet, device-clock units). Workloads with their own
            arrival process (e.g. poisson) carry it here; packets
            beyond the list fall back to the device clock.
        ingress_ports: Optional per-packet ingress ports. Bidirectional
            workloads (e.g. ``tcp_bidir``) carry the direction of each
            packet here; packets beyond the list fall back to port 0,
            the historical fixed ingress.
    """

    stream_id: int
    template: Packet | None = None
    count: int = 1
    sweeps: list[FieldSweep] = dc_field(default_factory=list)
    fuzzes: list[FieldFuzz] = dc_field(default_factory=list)
    wrap: bool = False
    inject_at: str = TAP_INPUT
    rate_pps: float = 1e6
    fix_checksums: bool = True
    packets: list[Packet | bytes] | None = None
    timestamps: list[int] | None = None
    ingress_ports: list[int] | None = None

    def timestamp_at(self, seq_no: int, default: int) -> int:
        """The injection timestamp for packet ``seq_no``: the stream's
        own arrival process when it defines one, else ``default`` (the
        device clock). Both injection paths (session lockstep and
        generator run_stream) route through this so their fallback
        semantics cannot diverge."""
        if self.timestamps is not None and seq_no < len(self.timestamps):
            return self.timestamps[seq_no]
        return default

    def port_at(self, seq_no: int) -> int:
        """The ingress port for packet ``seq_no``: the stream's own
        per-packet ports when it defines them, else port 0 — the same
        fallback every injection path uses, so the oracle and the
        device always agree on where a packet entered."""
        if (
            self.ingress_ports is not None
            and seq_no < len(self.ingress_ports)
        ):
            return self.ingress_ports[seq_no]
        return 0

    def materialize(self) -> Iterator[Packet | bytes]:
        """Produce the stream's packets, applying sweeps and fuzzing
        (or its explicit packets and frames; see :attr:`packets`)."""
        if self.packets is not None:
            yield from (
                p if isinstance(p, bytes) else p.copy()
                for p in self.packets
            )
            return
        if self.template is None:
            raise NetDebugError(
                f"stream {self.stream_id} has neither template nor packets"
            )
        rngs = {
            fuzz.path: random.Random(fuzz.seed ^ self.stream_id)
            for fuzz in self.fuzzes
        }
        for index in range(self.count):
            packet = self.template.copy()
            for sweep in self.sweeps:
                packet.set_field(sweep.path, sweep.value_at(index))
            for fuzz in self.fuzzes:
                header_name, _, field_name = fuzz.path.partition(".")
                header = packet.get(header_name)
                width = header.spec.field(field_name).width
                header[field_name] = rngs[fuzz.path].getrandbits(width)
            if self.fix_checksums and packet.has("ipv4"):
                update_all_checksums(packet)
            yield packet


@dataclass
class InjectionRecord:
    """Bookkeeping for one injected test packet."""

    stream_id: int
    seq_no: int
    wire: bytes
    timestamp: int
    run: TargetRun | None = None


class PacketGenerator:
    """Materializes streams and injects them into a device's pipeline."""

    def __init__(self, device: NetworkDevice):
        self._device = device
        self._streams: dict[int, StreamSpec] = {}
        self.injected: list[InjectionRecord] = []

    def configure(self, stream: StreamSpec) -> None:
        """Install (or replace) a stream specification."""
        if stream.packets is None and stream.template is None:
            raise NetDebugError(
                f"stream {stream.stream_id}: no template or packet list"
            )
        self._streams[stream.stream_id] = stream

    def remove_stream(self, stream_id: int) -> None:
        try:
            del self._streams[stream_id]
        except KeyError:
            raise NetDebugError(f"no stream {stream_id}") from None

    @property
    def streams(self) -> list[StreamSpec]:
        return list(self._streams.values())

    # ------------------------------------------------------------------
    # Synchronous injection (functional testing)
    # ------------------------------------------------------------------
    def run_stream(
        self,
        stream_id: int,
        on_injected: Callable[[InjectionRecord], None] | None = None,
    ) -> list[InjectionRecord]:
        """Inject every packet of one stream back-to-back.

        Each injected packet's :class:`TargetRun` is recorded, mirroring
        the hardware generator's completion feedback to the software tool.
        """
        try:
            stream = self._streams[stream_id]
        except KeyError:
            raise NetDebugError(f"no stream {stream_id}") from None

        # Bare streams with no per-packet callback take the block path:
        # all wires are materialized up front and handed to the device
        # in one call, amortizing per-packet setup — the shape a
        # hardware generator has, where the stream program is compiled
        # once and packets are emitted back to back. inject_block runs
        # the batch kernel when the device's engine has one (and falls
        # back to the per-packet pipeline transparently when taps or
        # armed faults need it), carrying the stream's own arrival
        # process and per-packet ingress ports; only a non-input
        # injection tap still needs inject_batch, which is tap-generic.
        batchable = not stream.wrap and on_injected is None
        if batchable and stream.inject_at == TAP_INPUT:
            wires = [wire_of(packet) for packet in stream.materialize()]
            injected = self._device.inject_block(
                wires,
                timestamps=stream.timestamps,
                ports=stream.ingress_ports,
            )
        elif (
            batchable
            and stream.timestamps is None
            and stream.ingress_ports is None
        ):
            # inject_block only enters at the input tap; other taps
            # keep the tap-generic batch loop (these streams carry no
            # arrival process or per-packet ports of their own).
            wires = [wire_of(packet) for packet in stream.materialize()]
            injected = self._device.inject_batch(
                wires, at=stream.inject_at
            )
        else:
            injected = None
        if injected is not None:
            records = [
                InjectionRecord(
                    stream.stream_id, seq_no, wires[seq_no], timestamp,
                    run=run,
                )
                for seq_no, (timestamp, run) in enumerate(injected)
            ]
            self.injected.extend(records)
            return records

        records: list[InjectionRecord] = []
        for seq_no, packet in enumerate(stream.materialize()):
            timestamp = stream.timestamp_at(
                seq_no, self._device.clock_cycles
            )
            if stream.wrap:
                wire = make_probe(
                    stream.stream_id, seq_no, timestamp=timestamp,
                    inner=packet,
                ).pack()
            else:
                wire = wire_of(packet)
            record = InjectionRecord(
                stream.stream_id, seq_no, wire, timestamp
            )
            record.run = self._device.inject(
                wire, at=stream.inject_at, port=stream.port_at(seq_no),
                timestamp=timestamp,
            )
            records.append(record)
            self.injected.append(record)
            if on_injected is not None:
                on_injected(record)
        return records

    def run_all(self) -> list[InjectionRecord]:
        """Inject every configured stream, in stream-id order."""
        records: list[InjectionRecord] = []
        for stream_id in sorted(self._streams):
            records.extend(self.run_stream(stream_id))
        return records

    # ------------------------------------------------------------------
    # Timed injection (performance testing under a simulator)
    # ------------------------------------------------------------------
    def schedule_stream(self, stream_id: int, sim, start_ns: float = 0.0):
        """Schedule a stream's injections on a simulator at its rate."""
        try:
            stream = self._streams[stream_id]
        except KeyError:
            raise NetDebugError(f"no stream {stream_id}") from None
        gap = 1e9 / stream.rate_pps
        packets = list(stream.materialize())

        for seq_no, packet in enumerate(packets):
            def inject(seq_no=seq_no, packet=packet) -> None:
                timestamp = self._device.clock_cycles
                if stream.wrap:
                    wire = make_probe(
                        stream.stream_id, seq_no, timestamp=timestamp,
                        inner=packet,
                    ).pack()
                else:
                    wire = wire_of(packet)
                record = InjectionRecord(
                    stream.stream_id, seq_no, wire, timestamp
                )
                record.run = self._device.inject(
                    wire, at=stream.inject_at, timestamp=timestamp
                )
                self.injected.append(record)

            sim.schedule_at(start_ns + seq_no * gap, inject)
        return len(packets)
