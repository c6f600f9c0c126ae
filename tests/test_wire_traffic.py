"""Seeded workloads emit the bytes the ``Packet`` builder would.

Every seeded workload is generated as wire frames from a per-flow
template (:mod:`repro.sim.traffic`), with lengths and checksums fixed on
bytes. The reference here composes each frame the slow way — a
:func:`~repro.packet.builder.udp_packet` or
:func:`~repro.packet.builder.ethernet_frame`, padded by
:func:`~repro.sim.traffic.pad_to_size`, malformed by editing the IPv4
version or IHL field after the checksums, then ``.pack()`` — and every
frame must match it byte for byte, quirks included: padding leaves the
lengths stale and malformed frames keep a stale IPv4 checksum.
"""

import random

from hypothesis import given, settings, strategies as st

from repro.packet.builder import ethernet_frame, udp_packet
from repro.sim import traffic
from repro.sim.traffic import (
    IMIX_DISTRIBUTION,
    INSIDE_PORT,
    OUTSIDE_PORT,
    WORKLOADS,
    FlowSpec,
    WorkloadBundle,
    WorkloadContext,
    _UdpFrame,
    bidirectional_flows,
    build_workload,
    default_flow,
    heavy_tailed_flow_sizes,
    imix_stream,
    malformed_mix,
    pad_to_size,
    tcp_flow_stream,
    udp_stream,
)


def ref_udp(flow, payload, outbound=True):
    if outbound:
        return udp_packet(
            flow.dst_ip, flow.src_ip, flow.dst_port, flow.src_port,
            payload=payload, eth_dst=flow.eth_dst, eth_src=flow.eth_src,
        )
    return udp_packet(
        flow.src_ip, flow.dst_ip, flow.src_port, flow.dst_port,
        payload=payload, eth_dst=flow.eth_src, eth_src=flow.eth_dst,
    )


def ref_stream(flow, count, size, seed):
    rng = random.Random(seed)
    return [
        pad_to_size(
            ref_udp(flow, index.to_bytes(4, "big") + rng.randbytes(4)), size
        ).pack()
        for index in range(count)
    ]


def ref_imix(flow, count, seed):
    rng = random.Random(seed)
    sizes = [size for size, weight in IMIX_DISTRIBUTION for _ in range(weight)]
    frames = []
    for index in range(count):
        size = rng.choice(sizes)
        frames.append(
            pad_to_size(ref_udp(flow, index.to_bytes(4, "big")), size).pack()
        )
    return frames


def ref_malformed(flow, count, fraction, seed):
    rng = random.Random(seed)
    for index in range(count):
        if rng.random() < fraction:
            kind = rng.randrange(3)
            if kind == 0:
                packet = ref_udp(flow, b"bad-version")
                packet.get("ipv4")["version"] = 6
            elif kind == 1:
                packet = ref_udp(flow, b"bad-ihl")
                packet.get("ipv4")["ihl"] = rng.randrange(0, 5)
            else:
                packet = ethernet_frame(
                    flow.eth_dst, flow.eth_src, 0xBEEF,
                    payload=rng.randbytes(46),
                )
            yield packet.pack(), True
        else:
            yield ref_udp(flow, index.to_bytes(4, "big")).pack(), False


def ref_malformed_workload(flow, count, seed):
    bad = ref_malformed(flow, count, 1.0, seed)
    good = ref_malformed(flow, count, 0.0, seed)
    return [
        next(bad if index % 2 == 0 else good)[0] for index in range(count)
    ]


def ref_tcp_flow(flow, data_packets, seed):
    rng = random.Random(seed)
    script = [(True, b"SYN"), (False, b"SYN-ACK"), (True, b"ACK")]
    script += [(i % 2 == 0, b"DATA") for i in range(data_packets)]
    script += [(True, b"FIN"), (False, b"FIN-ACK")]
    for index, (outbound, marker) in enumerate(script):
        payload = marker + b":" + index.to_bytes(4, "big") + rng.randbytes(4)
        yield ref_udp(flow, payload, outbound).pack(), outbound


def ref_bidirectional(flow, count, seed, loss=0.02, reorder_fraction=0.1,
                      reorder_window=3, alpha=1.3):
    margin = count + reorder_window + 8
    for attempt in range(64):
        rng = random.Random(seed + attempt * 0x9E3779B9)
        sizes = heavy_tailed_flow_sizes(
            max(1, margin), seed=seed + attempt, alpha=alpha
        )
        raw = []
        for k, data_packets in enumerate(sizes):
            if len(raw) >= margin:
                break
            subflow = FlowSpec(
                flow.src_ip, flow.dst_ip, (flow.src_port + k) & 0xFFFF,
                flow.dst_port, flow.eth_src, flow.eth_dst,
            )
            raw += [
                (wire, INSIDE_PORT if outbound else OUTSIDE_PORT)
                for wire, outbound in ref_tcp_flow(
                    subflow, data_packets, seed ^ k
                )
            ]
        kept = [pair for pair in raw if rng.random() >= loss]
        if len(kept) >= count:
            break
        margin *= 2
    picked = kept[:count]
    for index in range(len(picked)):
        if rng.random() < reorder_fraction:
            other = index + rng.randrange(1, reorder_window + 1)
            if other < len(picked):
                picked[index], picked[other] = picked[other], picked[index]
    return picked


def reference_frames(name, flow, count, seed):
    """(frames, ingress ports or None) the builder composition gives."""
    if name in ("udp", "poisson", "burst", "onoff"):
        return ref_stream(flow, count, 128, seed), None
    if name == "int_probe":
        rng = random.Random(seed)
        ports = tuple(rng.randrange(4) for _ in range(count))
        return ref_stream(flow, count, 96, seed), ports
    if name == "imix":
        return ref_imix(flow, count, seed), None
    if name == "malformed":
        return ref_malformed_workload(flow, count, seed), None
    assert name == "tcp_bidir"
    pairs = ref_bidirectional(flow, count, seed)
    return [wire for wire, _ in pairs], tuple(port for _, port in pairs)


SEEDED = ("udp", "imix", "poisson", "burst", "onoff", "malformed",
          "tcp_bidir", "int_probe")

seeds = st.integers(min_value=0, max_value=2**32 - 1)
flows = st.integers(min_value=0, max_value=255)


@settings(max_examples=60, deadline=None)
@given(
    name=st.sampled_from(SEEDED),
    seed=seeds,
    flow=flows,
    count=st.integers(min_value=0, max_value=48),
)
def test_workload_frames_equal_the_builder(name, seed, flow, count):
    bundle = build_workload(name, default_flow(flow), count, seed=seed)
    frames, ports = reference_frames(name, default_flow(flow), count, seed)
    assert list(bundle.frames) == frames
    if ports is not None:
        assert bundle.ingress_ports == ports
    # The Packet view parses the frames and packs back to them.
    assert [p.pack() for p in bundle.packets] == frames


@settings(max_examples=40, deadline=None)
@given(
    seed=seeds,
    flow=flows,
    count=st.integers(min_value=0, max_value=24),
    size=st.integers(min_value=42, max_value=200),
    fraction=st.floats(min_value=0.0, max_value=1.0),
)
def test_public_streams_are_views_of_the_frames(
    seed, flow, count, size, fraction
):
    spec = default_flow(flow)
    assert [
        p.pack() for p in udp_stream(spec, count, size, seed)
    ] == ref_stream(spec, count, size, seed)
    assert [
        p.pack() for p in imix_stream(spec, count, seed)
    ] == ref_imix(spec, count, seed)
    mix = malformed_mix(spec, count, fraction, seed)
    assert [(p.pack(), bad) for p, bad in mix] == list(
        ref_malformed(spec, count, fraction, seed)
    )
    assert [
        (p.pack(), outbound) for p, outbound in tcp_flow_stream(spec, 3, seed)
    ] == list(ref_tcp_flow(spec, 3, seed))
    assert [
        (p.pack(), port) for p, port in bidirectional_flows(spec, count, seed)
    ] == ref_bidirectional(spec, count, seed)


def test_checksum_corner_cases_match():
    """Odd payloads, a zero UDP sum (sent as 0xFFFF) and truncation."""
    flow = default_flow()
    template = _UdpFrame(flow)
    for payload in (b"", b"\x01", b"abc", bytes(range(255)), b"\xff" * 7):
        for size in (None, 42, 43, 64, 300):
            want = ref_udp(flow, payload)
            if size is not None:
                want = pad_to_size(want, size)
            assert template.frame(payload, size) == want.pack()
    # Search a payload whose computed UDP checksum is zero: RFC 768
    # sends it as all-ones, and the template must do the same.
    for word in range(0x10000):
        payload = word.to_bytes(2, "big")
        packet = ref_udp(flow, payload)
        if packet.get("udp")["checksum"] == 0xFFFF:
            assert template.frame(payload) == packet.pack()
            break
    else:  # pragma: no cover - some 16-bit payload always hits it
        raise AssertionError("no zero-sum payload found")


def test_context_awareness_is_resolved_once_per_factory(monkeypatch):
    """``build_workload`` inspects a factory's signature once, and a
    factory re-registered under the same name is inspected afresh."""
    inspected = []
    real = traffic._accepts_context

    def counting(factory):
        inspected.append(factory)
        return real(factory)

    monkeypatch.setattr(traffic, "_accepts_context", counting)
    seen = []

    def plain(flow, count, seed, rate_pps):
        seen.append(None)
        return WorkloadBundle("probe", ())

    def aware(flow, count, seed, rate_pps, context=None):
        seen.append(context)
        return WorkloadBundle("probe", ())

    context = WorkloadContext("strict_parser", "reference")
    monkeypatch.setitem(WORKLOADS, "probe", plain)
    for _ in range(3):
        build_workload("probe", default_flow(), 1, context=context)
    assert inspected == [plain] and seen == [None] * 3

    monkeypatch.setitem(WORKLOADS, "probe", aware)
    for _ in range(2):
        build_workload("probe", default_flow(), 1, context=context)
    assert inspected == [plain, aware]
    assert seen[3:] == [context, context]
