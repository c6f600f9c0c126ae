"""The in-device test packet generator.

The generator is one of NetDebug's two hardware modules (Figure 1). It is
*programmable*: a :class:`StreamSpec` describes a stream of test packets —
a template, field sweeps or fuzzing over template fields, count,
arrival timestamps, ingress ports, wrapping mode and injection point —
and the generator materializes and injects them directly into the data
plane under test, bypassing the external interfaces.

:meth:`PacketGenerator.run_stream` is how every stream enters the
device, validation sessions included: one
:meth:`~repro.target.device.NetworkDevice.inject_block` call at the
stream's injection point, carrying its timestamps and ingress ports
(blocks of one only for a wrapped stream without a timestamp for every
packet). A stream's timing is its per-packet ``timestamps``, in
device-clock cycles.

In the paper the generator is itself written in P4; here its
programmability is expressed as declarative stream specifications whose
field programs (sweeps/fuzz) reference the same dotted ``header.field``
paths P4 uses. The substitution is documented in DESIGN.md.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field as dc_field
from typing import Iterator

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


def _wire(stream: "StreamSpec", seq_no: int, item, clock: int) -> bytes:
    """The wire bytes packet ``seq_no`` of ``stream`` is injected as: a
    probe stamped with its timestamp (``clock`` when the stream has
    none for it) when the stream wraps, else the item itself."""
    if stream.wrap:
        return make_probe(
            stream.stream_id, seq_no,
            timestamp=stream.timestamp_at(seq_no, clock), inner=item,
        ).pack()
    return wire_of(item)


def _window(values: list[int] | None, lo: int, hi: int):
    """``values[lo:hi]``, or None for a stream without the list."""
    return None if values is None else values[lo:hi]


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
    fix_checksums: bool = True
    packets: list[Packet | bytes] | None = None
    timestamps: list[int] | None = None
    ingress_ports: list[int] | None = None

    def timestamp_at(self, seq_no: int, default: int) -> int:
        """The injection timestamp for packet ``seq_no``: the stream's
        own arrival process when it defines one, else ``default`` (the
        device clock). A wrapped probe's embedded timestamp comes from
        here, and the device falls back to the same running clock for
        a packet the stream leaves untimed."""
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

    def run_stream(self, stream_id: int) -> list[InjectionRecord]:
        """Inject every packet of one stream back-to-back.

        The stream's wires are materialized up front and enter the
        device through one :meth:`~repro.target.device.NetworkDevice.inject_block`
        call at the stream's ``inject_at``, carrying its arrival
        process and per-packet ingress ports — the shape a hardware
        generator has, where the stream program is compiled once and
        packets are emitted back to back. A wrapped stream without a
        timestamp for every packet is the one exception: each of its
        probes embeds the clock the previous packet left, which exists
        only once that packet ran, so it enters as blocks of one.

        Each injected packet's :class:`TargetRun` is recorded, mirroring
        the hardware generator's completion feedback to the software tool.
        """
        try:
            stream = self._streams[stream_id]
        except KeyError:
            raise NetDebugError(f"no stream {stream_id}") from None
        device = self._device
        packets = list(stream.materialize())
        count = len(packets)
        timed = (
            stream.timestamps is not None
            and len(stream.timestamps) >= count
        )
        step = 1 if stream.wrap and not timed else max(count, 1)
        records: list[InjectionRecord] = []
        for lo in range(0, count, step):
            hi = lo + step
            wires = [
                _wire(stream, seq_no, packet, device.clock_cycles)
                for seq_no, packet in enumerate(packets[lo:hi], lo)
            ]
            outcomes = device.inject_block(
                wires,
                at=stream.inject_at,
                timestamps=_window(stream.timestamps, lo, hi),
                ports=_window(stream.ingress_ports, lo, hi),
            )
            records += [
                InjectionRecord(
                    stream.stream_id, seq_no, wire, timestamp, run=run
                )
                for seq_no, (wire, (timestamp, run)) in enumerate(
                    zip(wires, outcomes), lo
                )
            ]
        self.injected.extend(records)
        return records

    def run_all(self) -> list[InjectionRecord]:
        """Inject every configured stream, in stream-id order."""
        records: list[InjectionRecord] = []
        for stream_id in sorted(self._streams):
            records.extend(self.run_stream(stream_id))
        return records
