"""Schedule ≡ schedule: how the batch kernel runs a block is invisible.

The batch kernel is the one execution driver, with three schedules:
stage-major (columnar) blocks, packet-major blocks of one, and the
packet-major schedule with between-stage hooks (taps, faults,
``inject_at``). For every stdlib(+ext) program, on all three targets —
including Tofino's TCAM quantization and deparse field budget — a block
through ``inject_block`` must produce exactly the verdicts, output
bytes, egress ports, death stages, latencies, stateful-object contents
and device accounting of ``inject`` per frame (blocks of one), with and
without a tap at every stage (the hooked schedule); session reports
must stay identical whichever schedule runs them.

These tests compare schedules of one code path. What pins the kernel
itself against the tree-walking spec
:class:`~repro.p4.interpreter.Interpreter` is
``tests/test_target_fastpath_differential.py`` (per-packet ``inject``
against the spec under each artifact's deviation settings),
``tests/test_compiled_oracle.py`` (the oracle's predictions against
interpreter-backed oracles) and the edge cases below. Campaign-level
byte identity of packets injected one by one against the golden is
pinned in ``tests/test_campaign.py``.
"""

from unittest import mock

import pytest

from repro.exceptions import CompileError
from repro.netdebug.campaign import run_campaign
from repro.netdebug.diffing import baseline_matrix
from repro.netdebug.generator import (
    InjectionRecord,
    PacketGenerator,
    StreamSpec,
)
from repro.netdebug.oracle import StatelessOracle
from repro.netdebug.session import ValidationSession, run_session
from repro.p4.stdlib import PROGRAMS
from repro.packet.builder import ethernet_frame
from repro.sim.traffic import default_flow, malformed_mix
from repro.target.batch import BatchProgram
from repro.target.device import NetworkDevice
from repro.target.reference import ReferenceCompiler
from repro.target.sdnet import SDNetCompiler
from repro.target.tofino import TofinoCompiler

from tests.test_compiled_oracle import drop_then_egress
from tests.test_target_fastpath_differential import (
    ALL_FACTORIES,
    install_entries,
    run_one,
    run_spec,
    spec_interpreter,
    workload,
)

COMPILERS = {
    "reference": ReferenceCompiler,
    "sdnet": SDNetCompiler,
    "tofino": TofinoCompiler,
}


def make_device(name, compiler_cls, factory):
    # Same name on both sides: reports embed the device name, and the
    # block ≡ per-packet assertions compare reports wholesale.
    device = NetworkDevice(name, compiler_cls(), num_ports=8)
    try:
        device.load(factory())
    except CompileError:
        pytest.skip(
            f"{factory.__name__} does not fit {compiler_cls.__name__}"
        )
    install_entries(device)
    return device


def normalize(outcome):
    """Block outcome -> the tuple shape ``run_one`` produces."""
    _timestamp, run = outcome
    if isinstance(run, Exception):
        return ("raised", type(run).__name__, str(run))
    result = run.result
    return (
        result.verdict.value,
        result.metadata.get("egress_spec"),
        result.packet.pack() if result.packet is not None else None,
        run.died_at,
        run.latency_cycles,
    )


def assert_block_matches(per_packet_device, batch_device, frames,
                         hooked=False, timestamps=None):
    """One block on ``batch_device`` ≡ frame-by-frame injection on
    ``per_packet_device`` (an identically built device). ``hooked``
    first attaches a no-op tap at every stage of ``per_packet_device``,
    which sends each frame down the kernel's hooked schedule.
    ``timestamps`` pins every frame's timestamp on both sides.

    Returns the size of each hook-free kernel pass the block made: one
    pass over every frame on the stage-major schedule, one pass per
    frame on the packet-major one."""
    if hooked:
        for stage in per_packet_device.stage_names():
            per_packet_device.attach_tap(stage, lambda snapshot: None)
    stamps = timestamps or [None] * len(frames)
    expected = [
        run_one(per_packet_device, wire, timestamp)
        for wire, timestamp in zip(frames, stamps)
    ]
    passes = []
    real = BatchProgram._run_columnar

    def counted(self, wires, *args):
        passes.append(len(wires))
        return real(self, wires, *args)

    with mock.patch.object(BatchProgram, "_run_columnar", counted):
        outcomes = batch_device.inject_block(
            frames, timestamps=timestamps, on_error="capture"
        )
    got = [normalize(outcome) for outcome in outcomes]
    for index, (g, e) in enumerate(zip(got, expected)):
        assert g == e, f"frame {index}: {g} != {e}"
    assert len(got) == len(expected)
    fast_state = batch_device.state
    slow_state = per_packet_device.state
    assert fast_state.counters == slow_state.counters
    assert fast_state.registers == slow_state.registers
    assert batch_device.clock_cycles == per_packet_device.clock_cycles
    assert batch_device.stats == per_packet_device.stats
    return passes


def assert_block_matches_spec(batch_device, frames):
    """One block on ``batch_device`` ≡ the tree-walking spec under the
    artifact's deviation settings, frame by frame and in final state."""
    interpreter = spec_interpreter(batch_device)
    outcomes = batch_device.inject_block(
        frames, timestamps=[0] * len(frames), on_error="capture"
    )
    for index, (outcome, wire) in enumerate(zip(outcomes, frames)):
        got = normalize(outcome)[:3]
        want = run_spec(interpreter, wire)
        assert got == want, f"frame {index}: {got} != {want}"
    state = batch_device.state
    assert state.counters == interpreter.state.counters
    assert state.registers == interpreter.state.registers
    return outcomes


def both_paths(name, compiler_cls, factory, frames):
    """Block ≡ per-packet on twin devices, then block ≡ spec."""
    assert_block_matches(
        make_device(name, compiler_cls, factory),
        make_device(name, compiler_cls, factory),
        frames,
    )
    return assert_block_matches_spec(
        make_device(name, compiler_cls, factory), frames
    )


@pytest.mark.parametrize("target", sorted(COMPILERS))
@pytest.mark.parametrize("name", sorted(ALL_FACTORIES))
def test_batch_block_matches_closure(name, target):
    """Every program × target: one block ≡ blocks of one, exactly."""
    compiler_cls = COMPILERS[target]
    assert_block_matches(
        make_device(f"bd-{name}-{target}", compiler_cls, ALL_FACTORIES[name]),
        make_device(f"bd-{name}-{target}", compiler_cls, ALL_FACTORIES[name]),
        workload(),
    )


#: Every stdlib(+ext) program, plus one whose ``exit`` and egress drop
#: barrier decide the output port (no stdlib program uses ``exit``).
HOOKED_FACTORIES = dict(ALL_FACTORIES, drop_then_egress=drop_then_egress)


@pytest.mark.parametrize("target", sorted(COMPILERS))
@pytest.mark.parametrize("name", sorted(HOOKED_FACTORIES))
def test_hooked_schedule_matches_block(name, target):
    """Every program × target: frames on the hooked schedule (a no-op
    tap at every stage) ≡ the hook-free block, exactly."""
    compiler_cls = COMPILERS[target]
    # ARP and IPv4 frames reach drop_then_egress's exit and drop paths.
    frames = workload() + [
        ethernet_frame(1, 2, ether_type, payload=b"x" * 46).pack()
        for ether_type in (0x0806, 0x0800, 0x0806)
    ]
    assert_block_matches(
        make_device(f"hk-{name}-{target}", compiler_cls,
                    HOOKED_FACTORIES[name]),
        make_device(f"hk-{name}-{target}", compiler_cls,
                    HOOKED_FACTORIES[name]),
        frames,
        hooked=True,
    )


# ---------------------------------------------------------------------------
# Edge cases pinned against the tree-walking spec
# ---------------------------------------------------------------------------

def test_batch_tofino_deparse_truncation_matches_tree():
    """Tofino's deparse field budget truncates forwarded bytes; the
    batch deparse column must truncate exactly like the spec under the
    same budget (ethernet + ipv4 is 16 fields against a budget of 14)."""
    frames = workload()
    outcomes = both_paths(
        "tof-trunc", TofinoCompiler, PROGRAMS["ipv4_router"], frames
    )
    # The deviation actually fired: at least one forwarded frame left
    # the device shorter than it entered.
    assert any(
        out[0] == "forwarded" and len(out[2]) < len(wire)
        for out, wire in zip(map(normalize, outcomes), frames)
    )


def test_batch_header_add_remove_mid_block_matches_tree():
    """``mpls_tunnel`` pushes/pops headers for matched prefixes only,
    so lanes diverge in header layout mid-block; every lane must still
    deparse byte-for-byte like the tree walk."""
    for target in ("reference", "sdnet"):
        both_paths(
            f"mpls-{target}", COMPILERS[target], PROGRAMS["mpls_tunnel"],
            workload(),
        )


def test_batch_interleaved_rejects_match_tree():
    """Parser-rejected frames interleaved with accepted ones must not
    shift the surviving lanes' outcomes, clocks or accounting."""
    frames = [
        packet.pack()
        for packet, _ in malformed_mix(default_flow(), 32, 0.5, seed=77)
    ]
    outcomes = both_paths(
        "rej", ReferenceCompiler, PROGRAMS["strict_parser"], frames
    )
    # The mix really interleaved: some lanes rejected, some survived.
    rejected = sum(
        1 for out in map(normalize, outcomes) if out[0] == "parser_rejected"
    )
    assert 0 < rejected < len(frames)


# ---------------------------------------------------------------------------
# Duplicate-extract bookkeeping elision
# ---------------------------------------------------------------------------

def looping_parser_program():
    """A parser FSM with a self-loop: ether_type 0x9999 re-enters
    ``start``, which re-extracts ethernet — the duplicate-header case
    the ``seen`` guard exists for. Targets reject it statically (parse
    depth), so it only exercises the eligibility analysis itself."""
    from repro.p4.actions import Forward
    from repro.p4.dsl import ProgramBuilder
    from repro.p4.expr import Const, fld
    from repro.packet.headers import ETHERNET

    b = ProgramBuilder("looping_parser")
    b.header(ETHERNET)
    b.parser_state("start", extracts=["ethernet"]).select(
        fld("ethernet", "ether_type"),
        [(0x9999, "start")],
        default="done",
    )
    b.parser_state("done").accept()
    b.ingress.action("fwd", [], [Forward(Const(1, 9))])
    b.ingress.call("fwd")
    b.emit("ethernet")
    return b.build()


def duplicate_extract_program():
    """Acyclic FSM whose second state re-extracts ethernet: compiles
    (finite parse depth) but every ether_type-0x9999 parse must raise
    the duplicate-header error — the guard cannot be elided."""
    from repro.p4.actions import Forward
    from repro.p4.dsl import ProgramBuilder
    from repro.p4.expr import Const, fld
    from repro.packet.headers import ETHERNET

    b = ProgramBuilder("duplicate_extract")
    b.header(ETHERNET)
    b.parser_state("start", extracts=["ethernet"]).select(
        fld("ethernet", "ether_type"),
        [(0x9999, "again")],
        default="done",
    )
    b.parser_state("again", extracts=["ethernet"]).accept()
    b.parser_state("done").accept()
    b.ingress.action("fwd", [], [Forward(Const(1, 9))])
    b.ingress.call("fwd")
    b.emit("ethernet")
    return b.build()


def spec_kernel(program):
    """The batch kernel for ``program`` on the reference target."""
    from repro.target.batch import BatchProgram
    from repro.target.limits import REFERENCE_LIMITS, SPEC_MODEL

    return BatchProgram(program, REFERENCE_LIMITS, SPEC_MODEL)


def test_stdlib_parsers_elide_duplicate_bookkeeping():
    """Every stdlib(+ext) parser is acyclic with unique extracts, so the
    generated source must carry no ``seen`` set — the byte-identity
    tests above then pin that the elision is semantically invisible."""
    from repro.target.fastpath import _parser_acyclic_unique_extracts

    for name in sorted(ALL_FACTORIES):
        program = ALL_FACTORIES[name]()
        assert _parser_acyclic_unique_extracts(program), name
        parse = spec_kernel(program).parse
        assert "seen" not in parse.__code__.co_varnames, name


def test_each_control_stage_compiles_once(monkeypatch):
    """The kernel generates every control stage exactly once, into one
    module compiled with one ``compile()`` call, and its generated
    source shows how each table is matched: an all-EXACT table looks
    its key up in a dict built once per stage call and carries no entry
    scan (l2_switch's ``dmac``; acl_firewall's ``fwd``, nested under an
    ``if``), while acl_firewall's ternary ``acl`` scans its entries."""
    from repro.target import fastpath

    compiled = []
    monkeypatch.setattr(
        fastpath, "compile",
        lambda *args: compiled.append(args[1]) or compile(*args),
        raising=False,
    )
    for name, exact, scanned in (
        ("l2_switch", ["dmac"], []),
        ("acl_firewall", ["fwd"], ["acl"]),
    ):
        del compiled[:]
        kernel = make_device(
            "once", ReferenceCompiler, PROGRAMS[name]
        ).compiled.kernel
        assert len(compiled) == 1, name
        source = kernel.source
        stages = [row[2] for row in kernel._stages if row[2] is not None]
        assert source.count("\ndef stage_") == len(stages) > 0, name
        assert all(
            fn.__code__.co_filename == compiled[0] for fn in stages
        ), name
        for table in exact:
            assert source.count(f"{table!r} in stuck else _exact_index(") \
                == 1, (name, table)
        assert source.count("_exact_index(") == len(exact), name
        assert source.count(".entries:") == len(scanned), name
        for table in scanned:
            assert f"= {table!r} in stuck" in source, (name, table)


def test_parser_that_cannot_compile_fails_at_load():
    """The parser is generated at compile time, so a select key the
    model cannot compile (a slice past the field's width) fails
    ``load()`` with its typed error, before any packet runs."""
    from repro.exceptions import P4TypeError
    from repro.p4.actions import Forward
    from repro.p4.dsl import ProgramBuilder
    from repro.p4.expr import Const, Slice, fld
    from repro.packet.headers import ETHERNET

    b = ProgramBuilder("bad_slice")
    b.header(ETHERNET)
    b.parser_state("start", extracts=["ethernet"]).select(
        Slice(fld("ethernet", "ether_type"), 20, 0),
        [(1, "accept")],
        default="accept",
    )
    b.ingress.action("fwd", [], [Forward(Const(1, 9))])
    b.ingress.call("fwd")
    b.emit("ethernet")
    device = NetworkDevice("bad-slice", ReferenceCompiler())
    with pytest.raises(P4TypeError, match="out of range"):
        device.load(b.build())


def test_cyclic_parser_is_ineligible():
    """A looping FSM must fail the eligibility analysis even though
    targets reject it before a device ever runs it."""
    from repro.target.fastpath import _parser_acyclic_unique_extracts

    assert not _parser_acyclic_unique_extracts(looping_parser_program())


def test_duplicate_extract_parser_keeps_guard_and_matches_closure():
    """A duplicate-extract parser is ineligible: the generated source
    keeps the guard, and block outcomes — including the
    duplicate-header error on the re-extracting frame — still match
    blocks of one."""
    from repro.packet.headers import mac
    from repro.target.fastpath import _parser_acyclic_unique_extracts

    program = duplicate_extract_program()
    assert not _parser_acyclic_unique_extracts(program)
    assert "seen" in spec_kernel(program).parse.__code__.co_varnames

    frames = [
        ethernet_frame(
            mac("02:00:00:00:00:02"), mac("02:00:00:00:00:01"), 0x9999,
            payload=b"\x00" * 14,
        ).pack(),
        ethernet_frame(
            mac("02:00:00:00:00:02"), mac("02:00:00:00:00:01"), 0x0800
        ).pack(),
    ]
    assert_block_matches(
        make_device("dup-guard", ReferenceCompiler, duplicate_extract_program),
        make_device("dup-guard", ReferenceCompiler, duplicate_extract_program),
        frames,
    )
    outcome = normalize(
        make_device(
            "dup-guard2", ReferenceCompiler, duplicate_extract_program
        ).inject_block(frames, on_error="capture")[0]
    )
    assert outcome == (
        "raised", "PacketError", "packet already has header 'ethernet'"
    )


# ---------------------------------------------------------------------------
# Session- and stream-level identity
# ---------------------------------------------------------------------------

def _oracle_session(count=12):
    packets = [
        packet for packet, _ in malformed_mix(
            default_flow(), count, 0.4, seed=2018
        )
    ]
    return ValidationSession(
        name="path-diff",
        streams=[StreamSpec(stream_id=1, packets=packets)],
        oracle_factory=StatelessOracle,
    )


@pytest.mark.parametrize("target", sorted(COMPILERS))
def test_session_reports_identical_across_schedules(target):
    """Whether the session's blocks run on the hook-free schedules or,
    with an observer attached, on the hooked schedule, it reproduces
    the same SessionReport exactly: findings, latencies and stream
    stats."""
    reports = []
    for observed in (False, True):
        device = make_device(
            f"sess-{target}", COMPILERS[target], PROGRAMS["acl_firewall"]
        )
        if observed:
            # An observer forces the hooked schedule.
            device.attach_tap("input", lambda snapshot: None)
        reports.append(run_session(device, _oracle_session()).to_dict())
    assert reports[0] == reports[1]


def _stream_records(*, timestamps=None, ports=None, force_per_packet=False,
                    observed=False, inject_at="input"):
    """Inject one malformed-mix stream; return records + device.

    ``run_stream`` by default; ``force_per_packet`` is the control arm,
    one ``inject`` per packet at the stream's timestamp and port."""
    device = make_device(
        "gen-block", COMPILERS["reference"], PROGRAMS["strict_parser"]
    )
    if observed:
        # An observer makes inject_block run the hooked schedule.
        device.attach_tap("input", lambda snapshot: None)
    packets = [
        packet
        for packet, _ in malformed_mix(default_flow(), 16, 0.5, seed=41)
    ]
    stream = StreamSpec(
        stream_id=3, packets=packets, timestamps=timestamps,
        ingress_ports=ports, inject_at=inject_at,
    )
    if not force_per_packet:
        generator = PacketGenerator(device)
        generator.configure(stream)
        return generator.run_stream(3), device
    records = []
    for seq_no, packet in enumerate(stream.materialize()):
        timestamp = stream.timestamp_at(seq_no, device.clock_cycles)
        wire = packet.pack()
        run = device.inject(
            wire, at=inject_at, port=stream.port_at(seq_no),
            timestamp=timestamp,
        )
        records.append(InjectionRecord(3, seq_no, wire, timestamp, run))
    return records, device


def _normalize_records(records):
    return [
        (
            record.stream_id,
            record.seq_no,
            record.wire,
            record.timestamp,
            normalize((record.timestamp, record.run)),
        )
        for record in records
    ]


@pytest.mark.parametrize(
    "timestamps,ports",
    [
        (None, None),
        (list(range(100, 1700, 100)), None),
        (None, [seq % 4 for seq in range(16)]),
        (list(range(100, 1700, 100)), [seq % 4 for seq in range(16)]),
    ],
    ids=["bare", "timestamps", "ports", "both"],
)
def test_run_stream_block_path_matches_per_packet(timestamps, ports):
    """``run_stream``'s one ``inject_block`` call — including streams
    carrying their own arrival process and per-packet ingress ports,
    entering at ``input`` or mid-pipeline — is byte-identical to one
    ``inject`` per packet, records and device accounting alike."""
    for inject_at in ("input", "ingress.0"):
        blocked, block_device = _stream_records(
            timestamps=timestamps, ports=ports, inject_at=inject_at
        )
        looped, loop_device = _stream_records(
            timestamps=timestamps, ports=ports, force_per_packet=True,
            inject_at=inject_at,
        )
        assert _normalize_records(blocked) == _normalize_records(looped)
        assert block_device.clock_cycles == loop_device.clock_cycles
        assert block_device.stats == loop_device.stats
        assert (
            block_device.state.counters
            == loop_device.state.counters
        )


def test_run_stream_block_path_matches_across_schedules():
    """The same timed, per-port stream yields identical records whether
    ``inject_block`` runs hook-free or, with an observer attached, on
    the hooked schedule."""
    normalized = {}
    for observed in (False, True):
        records, _ = _stream_records(
            timestamps=list(range(50, 850, 50)),
            ports=[seq % 3 for seq in range(16)],
            observed=observed,
        )
        normalized[observed] = _normalize_records(records)
    assert normalized[False] == normalized[True]


def test_campaign_reports_byte_identical_across_schedules(monkeypatch):
    """The golden-baseline matrix renders to identical JSON bytes on the
    hook-free schedules and with every block forced onto the hooked
    packet-major schedule — the schedule must never leak into the
    canonical report."""
    from repro.target.pipeline import StageHooks

    block = run_campaign(baseline_matrix(), name="engine-diff")

    def always_hooked(self, inject_at="input"):
        start = self.stage_names().index(inject_at)
        return StageHooks(start, self._taps, self.injector)

    monkeypatch.setattr(NetworkDevice, "hooks", always_hooked)
    hooked = run_campaign(baseline_matrix(), name="engine-diff")
    assert block.to_json() == hooked.to_json()
