"""Traffic generation for simulations.

Deterministic, seeded workload generators producing the packet mixes the
benchmark harness sweeps: fixed-size UDP streams, IMIX-style mixes, and
adversarial mixes containing malformed packets (the reject-state workload).

Generators emit wire bytes. Each builds a flow's Ethernet+IPv4+UDP frame
once (:class:`_UdpFrame`) and per packet patches only the payload, plus
the IPv4 version or IHL nibble for malformed frames; lengths and
checksums are fixed on bytes. The bytes equal what the
:mod:`repro.packet.builder` composition (``udp_packet``, then
:func:`pad_to_size`, then ``.pack()``) gives. The public streams yielding
:class:`~repro.packet.packet.Packet` objects are views over the same
frames, parsed with :func:`~repro.packet.builder.parse_ethernet`, and
:class:`WorkloadBundle` carries ``frames`` with ``packets`` as a view.
"""

from __future__ import annotations

import inspect
import math
import random
import struct
from dataclasses import dataclass
from functools import cached_property
from typing import Callable, Iterator

from ..exceptions import SimulationError
from ..packet.builder import parse_ethernet
from ..packet.headers import IPPROTO_UDP, ipv4, mac
from ..packet.packet import Packet

__all__ = [
    "FlowSpec",
    "INSIDE_PORT",
    "OUTSIDE_PORT",
    "constant_rate_times",
    "poisson_times",
    "burst_times",
    "onoff_times",
    "udp_stream",
    "imix_stream",
    "malformed_mix",
    "heavy_tailed_flow_sizes",
    "tcp_flow_stream",
    "bidirectional_flows",
    "pad_to_size",
    "WorkloadBundle",
    "WorkloadContext",
    "WORKLOADS",
    "build_workload",
]

#: Ingress-port convention for bidirectional traffic, matching
#: ``repro.p4.stdlib_ext.stateful_firewall``: the protected side
#: ingresses on port 0, the outside world on port 1.
INSIDE_PORT = 0
OUTSIDE_PORT = 1


def _check_rate(rate_pps: float, who: str) -> None:
    """Reject rates that would produce divide-by-zero or bogus gaps."""
    if not math.isfinite(rate_pps) or rate_pps <= 0:
        raise SimulationError(
            f"{who}: rate_pps must be a positive finite packet rate, "
            f"got {rate_pps!r}"
        )


@dataclass(frozen=True)
class FlowSpec:
    """A five-tuple template for one generated flow."""

    src_ip: int
    dst_ip: int
    src_port: int
    dst_port: int
    eth_src: int = mac("02:00:00:00:00:01")
    eth_dst: int = mac("02:00:00:00:00:02")


def pad_to_size(packet: Packet, wire_size: int) -> Packet:
    """Pad a packet's payload so the serialized frame is ``wire_size``.

    Raises ValueError when the headers alone exceed the target size.
    """
    base = packet.wire_length - len(packet.payload)
    if wire_size < base:
        raise ValueError(
            f"cannot fit {base} header bytes into a {wire_size}-byte frame"
        )
    padded = packet.copy()
    pad = wire_size - base
    padded.payload = (
        packet.payload + b"\x00" * (pad - len(packet.payload))
        if pad >= len(packet.payload)
        else packet.payload[:pad]
    )
    return padded


def constant_rate_times(rate_pps: float, count: int) -> Iterator[float]:
    """Arrival times (ns) for ``count`` packets at a constant rate.

    Raises :class:`SimulationError` (eagerly, not at first iteration)
    when ``rate_pps`` is zero, negative, or non-finite.
    """
    _check_rate(rate_pps, "constant_rate_times")
    gap = 1e9 / rate_pps

    def times() -> Iterator[float]:
        for index in range(count):
            yield index * gap

    return times()


def poisson_times(
    rate_pps: float, count: int, seed: int = 0
) -> Iterator[float]:
    """Poisson arrival times (ns) with mean ``rate_pps``.

    Raises :class:`SimulationError` (eagerly, not at first iteration)
    when ``rate_pps`` is zero, negative, or non-finite.
    """
    _check_rate(rate_pps, "poisson_times")
    rng = random.Random(seed)

    def times() -> Iterator[float]:
        time = 0.0
        for _ in range(count):
            time += rng.expovariate(rate_pps) * 1e9
            yield time

    return times()


def burst_times(
    rate_pps: float,
    count: int,
    burst_size: int = 8,
    duty_cycle: float = 0.2,
    seed: int = 0,
) -> Iterator[float]:
    """Bursty arrival times (ns): back-to-back trains at the peak rate
    separated by seeded idle gaps, with mean rate ``rate_pps``.

    Within a burst, packets are spaced at ``duty_cycle / rate_pps``
    (i.e. the peak rate is ``rate_pps / duty_cycle``); inter-burst idle
    gaps absorb the remaining budget, jittered ±20% by ``seed`` so
    different cells see different burst phasing while any one cell is
    reproducible. Raises :class:`SimulationError` (eagerly, not at
    first iteration) for a non-positive rate, burst size or duty cycle.
    """
    _check_rate(rate_pps, "burst_times")
    if burst_size <= 0:
        raise SimulationError(
            f"burst_times: burst_size must be positive, got {burst_size!r}"
        )
    if not 0.0 < duty_cycle <= 1.0:
        raise SimulationError(
            f"burst_times: duty_cycle must be in (0, 1], got {duty_cycle!r}"
        )
    rng = random.Random(seed)
    mean_gap = 1e9 / rate_pps
    on_gap = duty_cycle * mean_gap

    def times() -> Iterator[float]:
        time = 0.0
        for index in range(count):
            if index and index % burst_size == 0:
                idle = (mean_gap - on_gap) * burst_size
                time += idle * (0.8 + 0.4 * rng.random())
            time += on_gap
            yield time

    return times()


def onoff_times(
    rate_pps: float,
    count: int,
    seed: int = 0,
    p_on_off: float = 0.1,
    p_off_on: float = 0.3,
    off_scale: float = 10.0,
) -> Iterator[float]:
    """Two-state Markov (on-off) arrival times (ns).

    The source alternates between an ON state emitting at ``rate_pps``
    and a silent OFF state: after each packet it moves ON→OFF with
    probability ``p_on_off``, and while OFF it idles in multiples of
    ``off_scale`` packet gaps, returning OFF→ON with probability
    ``p_off_on`` per idle step — the classic bursty-source model.
    Seed-deterministic; raises :class:`SimulationError` (eagerly, not
    at first iteration) for a non-positive rate or transition
    probabilities outside (0, 1].
    """
    _check_rate(rate_pps, "onoff_times")
    for name, probability in (
        ("p_on_off", p_on_off), ("p_off_on", p_off_on)
    ):
        if not 0.0 < probability <= 1.0:
            raise SimulationError(
                f"onoff_times: {name} must be in (0, 1], "
                f"got {probability!r}"
            )
    if off_scale <= 0:
        raise SimulationError(
            f"onoff_times: off_scale must be positive, got {off_scale!r}"
        )
    rng = random.Random(seed)
    on_gap = 1e9 / rate_pps
    off_gap = off_scale * on_gap

    def times() -> Iterator[float]:
        time = 0.0
        on = True
        for _ in range(count):
            if on and rng.random() < p_on_off:
                on = False
            while not on:
                time += off_gap
                if rng.random() < p_off_on:
                    on = True
            time += on_gap
            yield time

    return times()


def _checksum(total: int) -> int:
    """RFC 1071 checksum of 16-bit words whose plain sum is congruent to
    ``total`` modulo 0xFFFF, for words not all zero: their
    one's-complement sum is that residue, except that it never folds
    to 0, so a residue of 0 is 0xFFFF."""
    return 0xFFFF - (total % 0xFFFF or 0xFFFF)


class _UdpFrame:
    """One flow direction's Ethernet+IPv4+UDP frame, built once.

    :meth:`frame` fills in a payload and returns wire bytes equal to
    ``udp_packet(...).pack()`` for the same addresses: the IPv4 total
    length, the UDP length and both checksums are fixed on bytes from
    one's-complement sums of the fixed fields, precomputed here, plus
    the payload words (the RFC 1624 incremental form of RFC 1071).
    Padding to a wire size happens after the checksums, leaving the
    lengths stale, exactly as :func:`pad_to_size` does.
    """

    __slots__ = ("_eth", "_addrs", "_ports", "_ip_sum", "_udp_sum")

    _HEADERS = struct.Struct("!14sBxH4xBBH8s4sHH")
    _TTL = 64
    #: Length of the Ethernet+IPv4+UDP headers ahead of the payload.
    BASE = 42

    def __init__(self, flow: FlowSpec, outbound: bool = True) -> None:
        if outbound:
            eth_dst, eth_src = flow.eth_dst, flow.eth_src
            dst, src = flow.dst_ip, flow.src_ip
            dst_port, src_port = flow.dst_port, flow.src_port
        else:
            # The return path swaps addresses and ports end for end.
            eth_dst, eth_src = flow.eth_src, flow.eth_dst
            dst, src = flow.src_ip, flow.dst_ip
            dst_port, src_port = flow.src_port, flow.dst_port
        self._eth = (
            eth_dst.to_bytes(6, "big") + eth_src.to_bytes(6, "big")
        )
        self._addrs = src.to_bytes(4, "big") + dst.to_bytes(4, "big")
        self._ports = (
            src_port.to_bytes(2, "big") + dst_port.to_bytes(2, "big")
        )
        # Sums modulo 0xFFFF: a 32-bit address contributes its two
        # 16-bit words, and 2**16 is 1 modulo 0xFFFF.
        self._ip_sum = 0x4500 + (self._TTL << 8 | IPPROTO_UDP) + src + dst
        self._udp_sum = src + dst + IPPROTO_UDP + src_port + dst_port

    def ethernet(self, ether_type: int, payload: bytes) -> bytes:
        """A bare Ethernet frame between this direction's MACs."""
        return self._eth + ether_type.to_bytes(2, "big") + payload

    def frame(
        self, payload: bytes, size: int | None = None, first: int = 0x45
    ) -> bytes:
        """The frame carrying ``payload``, padded or cut to ``size``.

        ``first`` replaces the IPv4 version/IHL byte after the checksum
        is computed, so a malformed frame keeps its stale checksum.
        """
        length = len(payload)
        udp_len = 8 + length
        words = int.from_bytes(payload, "big")
        if length & 1:
            words <<= 8  # an odd payload is checksummed zero-padded
        udp_check = _checksum(self._udp_sum + 2 * udp_len + words)
        wire = self._HEADERS.pack(
            self._eth + b"\x08\x00", first, 20 + udp_len, self._TTL,
            IPPROTO_UDP, _checksum(self._ip_sum + 20 + udp_len),
            self._addrs, self._ports, udp_len,
            # RFC 768: a computed zero is transmitted as all-ones.
            udp_check or 0xFFFF,
        ) + payload
        if size is None:
            return wire
        if size < self.BASE:
            raise ValueError(
                f"cannot fit {self.BASE} header bytes into a "
                f"{size}-byte frame"
            )
        if size <= len(wire):
            return wire[:size]
        return wire + bytes(size - len(wire))


def _udp_frames(
    flow: FlowSpec, count: int, size: int, seed: int
) -> Iterator[bytes]:
    """Wire frames of :func:`udp_stream`."""
    rng = random.Random(seed)
    frame = _UdpFrame(flow).frame
    for index in range(count):
        yield frame(index.to_bytes(4, "big") + rng.randbytes(4), size)


def udp_stream(
    flow: FlowSpec, count: int, size: int = 128, seed: int = 0
) -> Iterator[Packet]:
    """A stream of identical-shape UDP packets padded to ``size`` bytes."""
    return map(parse_ethernet, _udp_frames(flow, count, size, seed))


#: The classic IMIX distribution: (frame size, relative weight).
IMIX_DISTRIBUTION = ((64, 7), (570, 4), (1518, 1))


def _imix_frames(flow: FlowSpec, count: int, seed: int) -> Iterator[bytes]:
    """Wire frames of :func:`imix_stream`."""
    rng = random.Random(seed)
    sizes = [size for size, weight in IMIX_DISTRIBUTION for _ in range(weight)]
    frame = _UdpFrame(flow).frame
    for index in range(count):
        size = rng.choice(sizes)
        yield frame(index.to_bytes(4, "big"), size)


def imix_stream(flow: FlowSpec, count: int, seed: int = 0) -> Iterator[Packet]:
    """An IMIX-weighted mix of small/medium/large frames."""
    return map(parse_ethernet, _imix_frames(flow, count, seed))


def _malformed_frames(
    flow: FlowSpec, count: int, malformed_fraction: float, seed: int
) -> Iterator[tuple[bytes, bool]]:
    """Wire frames of :func:`malformed_mix`."""
    rng = random.Random(seed)
    template = _UdpFrame(flow)
    for index in range(count):
        if rng.random() < malformed_fraction:
            kind = rng.randrange(3)
            if kind == 0:
                # Wrong IP version.
                yield template.frame(b"bad-version", first=0x65), True
            elif kind == 1:
                # Bad IHL (below the minimum of 5).
                yield template.frame(
                    b"bad-ihl", first=0x40 | rng.randrange(0, 5)
                ), True
            else:
                # Unknown EtherType entirely.
                yield template.ethernet(0xBEEF, rng.randbytes(46)), True
        else:
            yield template.frame(index.to_bytes(4, "big")), False


def malformed_mix(
    flow: FlowSpec,
    count: int,
    malformed_fraction: float = 0.5,
    seed: int = 0,
) -> Iterator[tuple[Packet, bool]]:
    """A mix of valid IPv4 and malformed packets.

    Yields ``(packet, is_malformed)``. Malformed packets are the §4 case
    study's inputs: wrong IP version, bad IHL, or an unknown EtherType —
    all of which a strict parser must reject.
    """
    for wire, malformed in _malformed_frames(
        flow, count, malformed_fraction, seed
    ):
        yield parse_ethernet(wire), malformed


def heavy_tailed_flow_sizes(
    count: int,
    seed: int = 0,
    alpha: float = 1.3,
    lo: int = 2,
    hi: int = 64,
) -> list[int]:
    """Sample ``count`` flow sizes (data packets per flow) from a
    bounded Pareto distribution.

    Internet flow sizes are famously heavy-tailed — most flows are
    mice, a few elephants carry most bytes — so a campaign-sized
    population sampler draws from a Pareto(``alpha``) truncated to
    ``[lo, hi]`` via the inverse CDF. Seed-deterministic. Raises
    :class:`SimulationError` for a non-positive ``alpha`` or an empty
    or inverted ``[lo, hi]`` range.
    """
    if alpha <= 0 or not math.isfinite(alpha):
        raise SimulationError(
            f"heavy_tailed_flow_sizes: alpha must be positive and "
            f"finite, got {alpha!r}"
        )
    if lo < 1 or hi < lo:
        raise SimulationError(
            f"heavy_tailed_flow_sizes: need 1 <= lo <= hi, "
            f"got lo={lo!r} hi={hi!r}"
        )
    rng = random.Random(seed)
    ratio = (lo / hi) ** alpha
    sizes = []
    for _ in range(count):
        u = rng.random()
        raw = lo / (1.0 - u * (1.0 - ratio)) ** (1.0 / alpha)
        sizes.append(min(hi, max(lo, int(raw))))
    return sizes


def _tcp_flow_frames(
    flow: FlowSpec, data_packets: int, seed: int
) -> Iterator[tuple[bytes, bool]]:
    """Wire frames of :func:`tcp_flow_stream`."""
    rng = random.Random(seed)
    directions = {True: _UdpFrame(flow), False: _UdpFrame(flow, False)}
    script: list[tuple[bool, bytes]] = [
        (True, b"SYN"), (False, b"SYN-ACK"), (True, b"ACK")
    ]
    for index in range(data_packets):
        script.append((index % 2 == 0, b"DATA"))
    script.extend([(True, b"FIN"), (False, b"FIN-ACK")])
    for index, (outbound, marker) in enumerate(script):
        segment = (
            marker + b":" + index.to_bytes(4, "big") + rng.randbytes(4)
        )
        yield directions[outbound].frame(segment), outbound


def tcp_flow_stream(
    flow: FlowSpec, data_packets: int = 4, seed: int = 0
) -> Iterator[tuple[Packet, bool]]:
    """One TCP-like bidirectional exchange; yields ``(packet,
    is_outbound)`` in connection order.

    The exchange is a three-way handshake (SYN out, SYN-ACK in, ACK
    out), ``data_packets`` alternating data segments starting outbound,
    and a teardown (FIN out, FIN-ACK in). Segments are carried over UDP
    — the header library's L4 — with the segment role in the payload:
    the behaviour under test is the firewall's five-tuple state
    machine, which sees exactly the bidirectional pattern TCP produces
    without needing a TCP deparser. The inbound direction swaps
    addresses and ports end for end, so an inbound packet's reversed
    five-tuple hashes to the same connection slot its outbound
    counterpart opened (the ``stateful_firewall`` return-path
    contract).
    """
    for wire, outbound in _tcp_flow_frames(flow, data_packets, seed):
        yield parse_ethernet(wire), outbound


def _bidirectional_frames(
    flow: FlowSpec,
    count: int,
    seed: int = 0,
    loss: float = 0.02,
    reorder_fraction: float = 0.1,
    reorder_window: int = 3,
    alpha: float = 1.3,
) -> list[tuple[bytes, int]]:
    """Wire frames of :func:`bidirectional_flows`."""
    if not 0.0 <= loss < 1.0:
        raise SimulationError(
            f"bidirectional_flows: loss must be in [0, 1), got {loss!r}"
        )
    if not 0.0 <= reorder_fraction <= 1.0:
        raise SimulationError(
            f"bidirectional_flows: reorder_fraction must be in [0, 1], "
            f"got {reorder_fraction!r}"
        )
    if reorder_window < 1:
        raise SimulationError(
            f"bidirectional_flows: reorder_window must be >= 1, "
            f"got {reorder_window!r}"
        )

    margin = count + reorder_window + 8
    for attempt in range(64):
        rng = random.Random(seed + attempt * 0x9E3779B9)
        sizes = heavy_tailed_flow_sizes(
            max(1, margin), seed=seed + attempt, alpha=alpha
        )
        raw: list[tuple[bytes, int]] = []
        for k, data_packets in enumerate(sizes):
            if len(raw) >= margin:
                break
            subflow = FlowSpec(
                src_ip=flow.src_ip,
                dst_ip=flow.dst_ip,
                src_port=(flow.src_port + k) & 0xFFFF,
                dst_port=flow.dst_port,
                eth_src=flow.eth_src,
                eth_dst=flow.eth_dst,
            )
            raw.extend(
                (wire, INSIDE_PORT if outbound else OUTSIDE_PORT)
                for wire, outbound in _tcp_flow_frames(
                    subflow, data_packets, seed ^ k
                )
            )
        kept = [pair for pair in raw if rng.random() >= loss]
        if len(kept) >= count:
            break
        # Heavy loss ate the margin: retry deterministically with more.
        margin *= 2
    else:  # pragma: no cover - loss < 1 always converges
        raise SimulationError("bidirectional_flows failed to converge")

    picked = kept[:count]
    for index in range(len(picked)):
        if rng.random() < reorder_fraction:
            other = index + rng.randrange(1, reorder_window + 1)
            if other < len(picked):
                picked[index], picked[other] = (
                    picked[other], picked[index]
                )
    return picked


def bidirectional_flows(
    flow: FlowSpec,
    count: int,
    seed: int = 0,
    loss: float = 0.02,
    reorder_fraction: float = 0.1,
    reorder_window: int = 3,
    alpha: float = 1.3,
) -> list[tuple[Packet, int]]:
    """A campaign-sized bidirectional packet sequence with loss and
    reordering; returns exactly ``count`` ``(packet, ingress_port)``
    pairs.

    Subflow ``k`` perturbs ``flow``'s source port by ``k`` (a distinct
    five-tuple, hence a distinct firewall slot) and runs one
    :func:`tcp_flow_stream` exchange whose data length is drawn from
    :func:`heavy_tailed_flow_sizes`. The concatenated exchanges then
    pass through a seeded Bernoulli loss filter and a bounded-window
    adjacent-swap reorder pass. Outbound packets ingress on
    :data:`INSIDE_PORT`, inbound on :data:`OUTSIDE_PORT`.

    Loss and reordering are applied *before* the sequence is handed to
    anyone: the device and the oracle both consume the identical final
    sequence, so a dropped SYN or an inbound segment racing ahead of
    the outbound that would open its slot changes which state
    transitions happen — not the oracle's ability to predict them.
    """
    return [
        (parse_ethernet(wire), port)
        for wire, port in _bidirectional_frames(
            flow, count, seed, loss, reorder_fraction, reorder_window, alpha
        )
    ]


def default_flow(index: int = 0) -> FlowSpec:
    """A convenient distinct flow for tests and examples."""
    return FlowSpec(
        src_ip=ipv4("10.0.0.1") + index,
        dst_ip=ipv4("10.1.0.1") + index,
        src_port=1024 + index,
        dst_port=5000 + index,
    )


# ---------------------------------------------------------------------------
# The workload registry
# ---------------------------------------------------------------------------
# Campaigns and suites sweep workloads *by name*; each entry materializes
# one named packet mix for a (flow, count, seed) triple. Entries return a
# WorkloadBundle so timed workloads (poisson) can carry their arrival
# process alongside the packets.

@dataclass(frozen=True)
class WorkloadContext:
    """What a *program-aware* workload knows about the cell it feeds.

    Seeded-random workloads are pure functions of ``(flow, count,
    seed, rate_pps)``; the ``coverage`` workload additionally derives
    its packets from the program under test and the target's deviation
    model. Campaign shards pass the scenario axes here — plus, when
    available, the shard's already-provisioned compiled artifact so
    the workload judges feasibility against exactly the table state
    the device runs (``compiled`` is never serialized; it is an
    in-process shortcut only).
    """

    program: str
    target: str
    setup: str = ""
    compiled: object | None = None


@dataclass(frozen=True)
class WorkloadBundle:
    """One materialized workload: wire frames, plus arrival times when
    the workload defines its own arrival process (ns, monotonically
    increasing; ``None`` means back-to-back / constant-rate), plus
    per-packet ingress ports when the workload is directional
    (``None`` means the historical fixed ingress, port 0). Path-guided
    workloads also attach their ``coverage`` map (a
    :class:`repro.netdebug.coverage.CoverageMap`) recording which
    feasible path each packet witnesses.

    ``frames`` is the content: the exact bytes a session injects and
    the oracle predicts from. :attr:`packets` parses them into
    :class:`~repro.packet.packet.Packet` objects for callers that want
    headers to inspect."""

    name: str
    frames: tuple[bytes, ...]
    times_ns: tuple[float, ...] | None = None
    ingress_ports: tuple[int, ...] | None = None
    coverage: object | None = None

    @cached_property
    def packets(self) -> tuple[Packet, ...]:
        """The frames parsed with :func:`~repro.packet.builder.parse_ethernet`
        (a view made on first access; ``p.pack()`` gives the frame back)."""
        return tuple(map(parse_ethernet, self.frames))


def _udp_workload(
    flow: FlowSpec, count: int, seed: int, rate_pps: float
) -> WorkloadBundle:
    return WorkloadBundle(
        "udp", tuple(_udp_frames(flow, count, 128, seed))
    )


def _imix_workload(
    flow: FlowSpec, count: int, seed: int, rate_pps: float
) -> WorkloadBundle:
    return WorkloadBundle("imix", tuple(_imix_frames(flow, count, seed)))


def _poisson_workload(
    flow: FlowSpec, count: int, seed: int, rate_pps: float
) -> WorkloadBundle:
    return WorkloadBundle(
        "poisson",
        tuple(_udp_frames(flow, count, 128, seed)),
        times_ns=tuple(poisson_times(rate_pps, count, seed=seed)),
    )


def _burst_workload(
    flow: FlowSpec, count: int, seed: int, rate_pps: float
) -> WorkloadBundle:
    return WorkloadBundle(
        "burst",
        tuple(_udp_frames(flow, count, 128, seed)),
        times_ns=tuple(burst_times(rate_pps, count, seed=seed)),
    )


def _onoff_workload(
    flow: FlowSpec, count: int, seed: int, rate_pps: float
) -> WorkloadBundle:
    return WorkloadBundle(
        "onoff",
        tuple(_udp_frames(flow, count, 128, seed)),
        times_ns=tuple(onoff_times(rate_pps, count, seed=seed)),
    )


def _malformed_workload(
    flow: FlowSpec, count: int, seed: int, rate_pps: float
) -> WorkloadBundle:
    # Deterministic 50/50 interleave (malformed first) rather than a
    # Bernoulli draw: a short campaign cell must still exercise the
    # reject path, and an unlucky seed can put zero malformed packets
    # in a small Bernoulli mix.
    bad = _malformed_frames(flow, count, 1.0, seed)
    good = _malformed_frames(flow, count, 0.0, seed)
    return WorkloadBundle(
        "malformed",
        tuple(
            next(bad if index % 2 == 0 else good)[0]
            for index in range(count)
        ),
    )


def _tcp_bidir_workload(
    flow: FlowSpec, count: int, seed: int, rate_pps: float
) -> WorkloadBundle:
    pairs = _bidirectional_frames(flow, count, seed=seed)
    return WorkloadBundle(
        "tcp_bidir",
        tuple(wire for wire, _ in pairs),
        ingress_ports=tuple(port for _, port in pairs),
    )


def _int_probe_workload(
    flow: FlowSpec, count: int, seed: int, rate_pps: float
) -> WorkloadBundle:
    # INT probe traffic: timed arrivals spread across four ingress
    # ports, so int_telemetry's stamped ingress_ts and ingress_port
    # both carry real per-packet variation for the oracle to predict.
    rng = random.Random(seed)
    return WorkloadBundle(
        "int_probe",
        tuple(_udp_frames(flow, count, 96, seed)),
        times_ns=tuple(poisson_times(rate_pps, count, seed=seed)),
        ingress_ports=tuple(rng.randrange(4) for _ in range(count)),
    )


#: Named workload generators, keyed by the names scenario matrices use.
WORKLOADS: dict[
    str, Callable[[FlowSpec, int, int, float], WorkloadBundle]
] = {
    "udp": _udp_workload,
    "imix": _imix_workload,
    "poisson": _poisson_workload,
    "burst": _burst_workload,
    "onoff": _onoff_workload,
    "malformed": _malformed_workload,
    "tcp_bidir": _tcp_bidir_workload,
    "int_probe": _int_probe_workload,
}


def _accepts_context(factory: Callable) -> bool:
    """Whether a workload factory takes the optional ``context``."""
    try:
        parameters = inspect.signature(factory).parameters
    except (TypeError, ValueError):  # builtins / exotic callables
        return False
    return "context" in parameters or any(
        p.kind is inspect.Parameter.VAR_KEYWORD
        for p in parameters.values()
    )


#: Workload name -> (factory, whether it takes ``context``): the
#: signature is inspected once per registered factory object, and a
#: re-registration under the same name is noticed by identity.
_CONTEXT_AWARE: dict[str, tuple[Callable, bool]] = {}


def build_workload(
    name: str,
    flow: FlowSpec,
    count: int,
    seed: int = 0,
    rate_pps: float = 1e6,
    context: WorkloadContext | None = None,
) -> WorkloadBundle:
    """Materialize the named workload deterministically.

    Raises :class:`SimulationError` for unknown workload names (the
    message lists what the registry does offer), negative counts, and
    non-positive or non-finite rates. Count and rate are validated
    *before* dispatch, so every workload rejects bad arguments
    identically — historically ``malformed``/``tcp_bidir`` silently
    ignored a bogus rate their timed siblings refused.

    ``context`` reaches only factories that declare it (the
    program-aware ``coverage`` workload); the classic seeded-random
    factories keep their 4-argument signature.
    """
    if count < 0:
        raise SimulationError(f"workload {name!r}: count must be >= 0")
    _check_rate(rate_pps, f"workload {name!r}")
    try:
        factory = WORKLOADS[name]
    except KeyError:
        known = ", ".join(sorted(WORKLOADS))
        raise SimulationError(
            f"unknown workload {name!r}; registry offers: {known}"
        ) from None
    memo = _CONTEXT_AWARE.get(name)
    if memo is None or memo[0] is not factory:
        memo = _CONTEXT_AWARE[name] = (factory, _accepts_context(factory))
    if memo[1]:
        return factory(flow, count, seed, rate_pps, context=context)
    return factory(flow, count, seed, rate_pps)
