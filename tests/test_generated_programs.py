"""Generated programs: the kernel ≡ the spec beyond the stdlib.

A seeded Hypothesis strategy builds whole programs through
:mod:`repro.p4.dsl`: parser FSMs with ``select`` and ``verify`` (one
shape re-extracts ethernet, the duplicate-extract case), exact, lpm,
ternary and range tables with random entries and colliding priorities,
``If``/``IfHit`` nesting, header add and remove, counters, registers,
``exit``, and ``Slice``/``Concat``/``Mux`` expressions. On the
reference, sdnet and tofino targets, fed the program's coverage
witnesses plus seeded traffic, every program must satisfy:

* kernel ≡ :class:`~repro.p4.interpreter.Interpreter` under the
  artifact's deviation settings — verdict, output bytes, egress port,
  and for a raised error its class and message — and the same counter
  and register cells afterwards;
* hook-free block ≡ blocks of one ≡ the hooked schedule (a no-op tap
  at every stage), in outcomes, clocks, accounting and state, each
  compared untimed and with explicit timestamps; a columnar kernel (no
  register touched from two stages) must run every hook-free block
  stage-major, in one pass.

Tables share one action object per action name, as in a program parsed
from text, so an action generated once is reached from several stages.

Tier-1 runs a small derandomized sample. The golden CI job runs this
module under ``--hypothesis-profile=ci`` (registered in ``conftest.py``)
with a larger budget and the run id as the seed. Counterexamples the
search shrinks land in :data:`REGRESSIONS` and run on every tier-1 run.
"""

from __future__ import annotations

import functools
import itertools
import random
from dataclasses import dataclass, field

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from repro.bitutils import mask
from repro.exceptions import CompileError
from repro.netdebug.coverage import covering_set
from repro.p4.actions import (
    Action,
    AddHeader,
    CountPacket,
    Drop,
    Exit,
    Forward,
    HashField,
    NoOp,
    Param,
    RegisterRead,
    RegisterWrite,
    RemoveHeader,
    SetField,
    SetMeta,
)
from repro.p4.control import ApplyTable, Call, If, IfHit, Seq
from repro.p4.dsl import ProgramBuilder
from repro.p4.expr import (
    BinOp,
    Concat,
    Const,
    FieldRef,
    IsValid,
    MetaRef,
    Mux,
    Slice,
    UnOp,
)
from repro.p4.table import MatchKind
from repro.p4.types import TypeEnv
from repro.packet.headers import ETHERNET, IPV4, UDP, VLAN
from repro.packet.packet import Header, Packet
from repro.target.device import NetworkDevice

from tests.test_target_batch_differential import (
    COMPILERS,
    assert_block_matches,
)
from tests.test_target_fastpath_differential import (
    run_one,
    run_spec,
    spec_interpreter,
)

_CI = settings.get_current_profile_name() == "ci"

#: Tier-1: a fixed sample of 25 programs. ``ci``: the profile's
#: budget, seeded from the command line.
GENERATED = settings(
    max_examples=settings.default.max_examples if _CI else 25,
    derandomize=not _CI,
    deadline=None,
    database=None,
    suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large],
)

HEADERS = {spec.name: spec for spec in (ETHERNET, VLAN, IPV4, UDP)}
USER_METADATA = {"m16": 16, "m8": 8}
READABLE_METADATA = ("m16", "m8", "ingress_port", "egress_spec",
                     "packet_length")
COUNTER_SIZE = REGISTER_SIZE = 8

#: Values both table entries and seeded traffic draw from, so entries
#: hit without relying on witnesses alone.
POOLS = {
    ("ethernet", "dst_addr"): (0x020000000001, 0x020000000002),
    ("ethernet", "ether_type"): (0x0800, 0x8100, 0x86DD, 0x9999),
    ("vlan", "vid"): (5, 7),
    ("vlan", "ether_type"): (0x0800, 0x9999),
    ("ipv4", "dst_addr"): (0x0A000001, 0x0A000102, 0xC0A80101),
    ("ipv4", "src_addr"): (0x0A000009, 0x0B000001),
    ("ipv4", "ttl"): (0, 1, 64),
    ("ipv4", "protocol"): (6, 17),
    ("udp", "dst_port"): (53, 80),
}


# ---------------------------------------------------------------------------
# Expressions
# ---------------------------------------------------------------------------

def _field_refs(headers):
    return [
        FieldRef(name, f.name)
        for name in headers
        for f in HEADERS[name].fields
    ]


def _width(expr) -> int:
    return expr.width(_ENV)


@functools.lru_cache(maxsize=None)
def expressions(headers=tuple(HEADERS), params=(), max_leaves=5):
    """Expression trees over ``headers``' fields, user and standard
    metadata, constants and ``params``; shift amounts stay below 64."""
    leaves = [
        st.integers(0, 0xFFFF).map(Const),
        st.integers(0, 255).map(lambda v: Const(v, 8)),
        st.sampled_from(READABLE_METADATA).map(MetaRef),
    ]
    if headers:
        leaves.append(st.sampled_from(_field_refs(headers)))
        leaves.append(st.sampled_from(sorted(headers)).map(IsValid))
    if params:
        leaves.append(st.sampled_from(params))

    def extend(children):
        @st.composite
        def slices(draw):
            operand = draw(children)
            width = _width(operand)
            low = draw(st.integers(0, width - 1))
            return Slice(operand, draw(st.integers(low, width - 1)), low)

        shifts = st.builds(
            lambda op, left, right: BinOp(
                op, left, Slice(right, min(_width(right), 6) - 1, 0)
            ),
            st.sampled_from(["<<", ">>"]), children, children,
        )
        return (
            st.builds(
                BinOp,
                st.sampled_from(["+", "-", "*", "&", "|", "^", "==", "!=",
                                 "<", "<=", ">", ">=", "and", "or"]),
                children, children,
            )
            | shifts
            | st.builds(UnOp, st.sampled_from(["~", "!", "-"]), children)
            | slices()
            | st.builds(Concat, children, children)
            | st.builds(Mux, children, children, children)
        )

    return st.recursive(st.one_of(leaves), extend, max_leaves=max_leaves)


@functools.lru_cache(maxsize=None)
def conditions(headers=tuple(HEADERS)):
    """Branch conditions: validity tests, comparisons against pooled
    values, or any expression (non-zero means taken)."""
    pooled = [
        (FieldRef(h, f), values)
        for (h, f), values in POOLS.items()
        if h in headers
    ]
    options = [expressions(headers)]
    if headers:
        options.append(st.sampled_from(sorted(headers)).map(IsValid))
    if pooled:
        options.append(
            st.sampled_from(pooled).flatmap(
                lambda pair: st.tuples(
                    st.sampled_from(["==", "!=", "<", ">="]),
                    st.sampled_from(pair[1]),
                ).map(lambda t: BinOp(t[0], pair[0], Const(t[1])))
            )
        )
    return st.one_of(options)


# ---------------------------------------------------------------------------
# Program recipes
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ActionRecipe:
    name: str
    params: tuple[tuple[str, int], ...]
    body: tuple


@dataclass(frozen=True)
class TableRecipe:
    name: str
    keys: tuple  # (expr, MatchKind)
    actions: tuple[str, ...]
    default: tuple  # (action name, data)
    entries: tuple  # (keys, action, data, priority), control-plane form


@dataclass(frozen=True)
class Recipe:
    """Everything a generated program is built from, as immutable IR;
    :meth:`build` makes a fresh program through the DSL each call."""

    duplicate_extract: bool
    start_default: str
    vlan_default: str
    ipv4_verify: object  # (cond, code) or None
    counters: bool
    registers: bool
    actions: dict = field(hash=False)  # control -> tuple[ActionRecipe]
    tables: dict = field(hash=False)  # control -> tuple[TableRecipe]
    bodies: dict = field(hash=False)  # control -> tuple[Stmt]

    def build(self):
        """A fresh program whose tables share one action object per
        action name, across both controls."""
        b = ProgramBuilder("generated")
        for spec in HEADERS.values():
            b.header(spec)
        for name, width in USER_METADATA.items():
            b.metadata(name, width)
        if self.counters:
            b.counter("hits", COUNTER_SIZE)
        if self.registers:
            b.register("last", REGISTER_SIZE, 16)
        vlan_cases = [(0x0800, "parse_ipv4")]
        if self.duplicate_extract:
            vlan_cases.append((0x9999, "again"))
            b.parser_state("again", extracts=["ethernet"]).accept()
        b.parser_state("start", extracts=["ethernet"]).select(
            FieldRef("ethernet", "ether_type"),
            [(0x0800, "parse_ipv4"), (0x8100, "parse_vlan"),
             ((0x86D0, 0xFFF0), "accept")],
            default=self.start_default,
        )
        b.parser_state("parse_vlan", extracts=["vlan"]).select(
            FieldRef("vlan", "ether_type"), vlan_cases,
            default=self.vlan_default,
        )
        ipv4 = b.parser_state("parse_ipv4", extracts=["ipv4"])
        if self.ipv4_verify is not None:
            ipv4.verify(*self.ipv4_verify)
        ipv4.select(
            FieldRef("ipv4", "protocol"), [(17, "parse_udp")],
            default="accept",
        )
        b.parser_state("parse_udp", extracts=["udp"]).accept()
        shared = {}
        for control in ("ingress", "egress"):
            builder = getattr(b, control)
            for action in self.actions[control]:
                builder.action(action.name, list(action.params),
                               list(action.body))
                shared.setdefault(action.name, Action(
                    action.name,
                    [Param(name, bits) for name, bits in action.params],
                    list(action.body),
                ))
            for table in self.tables[control]:
                tb = builder.table(table.name)
                for expr, kind in table.keys:
                    tb.key(expr, kind)
                for name in table.actions:
                    tb.declare(shared[name])
                tb.default(*table.default)
            for stmt in self.bodies[control]:
                builder.stmt(stmt)
        b.emit("ethernet", "vlan", "ipv4", "udp")
        return b.build()

    def install(self, device) -> None:
        for tables in self.tables.values():
            for table in tables:
                for keys, action, data, priority in table.entries:
                    device.control_plane.table_add(
                        table.name, action, list(keys), list(data),
                        priority=priority,
                    )


_ENV = TypeEnv()
for _spec in HEADERS.values():
    _ENV.declare_header(_spec)
for _name, _bits in USER_METADATA.items():
    _ENV.declare_metadata(_name, _bits)


def _fits(width):
    return st.integers(0, mask(width))


@st.composite
def in_range_index(draw, params, size):
    """A counter/register index that is always in ``[0, size)``."""
    return draw(st.one_of(
        st.integers(0, size - 1).map(Const),
        expressions(params=params, max_leaves=2).map(
            lambda e: BinOp("&", e, Const(size - 1))
        ),
    ))


@st.composite
def primitives(draw, params, counters, registers):
    any_expr = expressions(params=params, max_leaves=4)
    options = ["set_field", "set_meta", "forward", "drop", "add", "remove",
               "hash", "exit", "noop"]
    if counters:
        options.append("count")
    if registers:
        options += ["reg_write", "reg_read"]
    kind = draw(st.sampled_from(options))
    if kind == "set_field":
        target = draw(st.sampled_from(_field_refs(HEADERS)))
        return SetField(target.header, target.field, draw(any_expr))
    if kind == "set_meta":
        return SetMeta(draw(st.sampled_from(sorted(USER_METADATA)
                                            + ["egress_spec"])),
                       draw(any_expr))
    if kind == "forward":
        return Forward(draw(st.one_of(
            st.sampled_from(params) if params else st.nothing(),
            st.integers(0, 7).map(lambda p: Const(p, 9)),
            any_expr,
        )))
    if kind == "drop":
        return Drop()
    if kind == "add":
        return draw(st.sampled_from([
            AddHeader("vlan", after="ethernet"),
            AddHeader("udp", after="ipv4"),
            AddHeader("ipv4"),
        ]))
    if kind == "remove":
        return RemoveHeader(draw(st.sampled_from(sorted(HEADERS))))
    if kind == "hash":
        inputs = tuple(draw(st.lists(any_expr, min_size=1, max_size=3)))
        return HashField(draw(st.sampled_from(sorted(USER_METADATA))),
                         inputs, draw(st.sampled_from([1, 7, 256])))
    if kind == "exit":
        return Exit()
    if kind == "noop":
        return NoOp()
    index = draw(in_range_index(params, COUNTER_SIZE))
    if kind == "count":
        return CountPacket("hits", index)
    if kind == "reg_write":
        return RegisterWrite("last", index, draw(any_expr))
    return RegisterRead("last", index, draw(st.sampled_from(
        sorted(USER_METADATA))))


@st.composite
def action_recipes(draw, prefix, counters, registers):
    actions = []
    for k in range(draw(st.integers(1, 3))):
        params = tuple(
            (f"p{j}", draw(st.sampled_from([1, 9, 16, 48])))
            for j in range(draw(st.integers(0, 2)))
        )
        refs = tuple(Param(name, bits) for name, bits in params)
        body = tuple(draw(st.lists(
            primitives(refs, counters, registers), min_size=1, max_size=3,
        )))
        actions.append(ActionRecipe(f"{prefix}_a{k}", params, body))
    return tuple(actions)


def _action_data(draw, action):
    return tuple(draw(_fits(bits)) for _, bits in action.params)


KEY_EXPRS = [
    FieldRef("ethernet", "dst_addr"),
    FieldRef("ethernet", "ether_type"),
    FieldRef("vlan", "vid"),
    FieldRef("ipv4", "dst_addr"),
    FieldRef("ipv4", "src_addr"),
    FieldRef("ipv4", "protocol"),
    FieldRef("udp", "dst_port"),
    MetaRef("ingress_port"),
    MetaRef("m8"),
    Slice(FieldRef("ipv4", "dst_addr"), 31, 16),
    Concat(FieldRef("ipv4", "protocol"), Slice(FieldRef("udp", "dst_port"),
                                              7, 0)),
]


@st.composite
def key_pattern(draw, expr, kind):
    width = _width(expr)
    pool = POOLS.get((getattr(expr, "header", None),
                      getattr(expr, "field", None)), ())
    value = draw(st.sampled_from(pool) if pool and draw(st.booleans())
                 else _fits(width))
    if kind is MatchKind.EXACT:
        return value
    if kind is MatchKind.LPM:
        return (value, draw(st.integers(0, width)))
    if kind is MatchKind.TERNARY:
        return (value, draw(st.one_of(
            _fits(width), st.just(mask(width)), st.just(0),
            st.integers(1, width).map(lambda n: mask(width) ^ mask(width - n)),
        )))
    high = draw(st.integers(value, mask(width)))
    return (value, high)


@st.composite
def table_recipes(draw, prefix, actions):
    tables = []
    for k in range(draw(st.integers(0, 2))):
        keys = []
        for _ in range(draw(st.integers(1, 2))):
            kind = draw(st.sampled_from(list(MatchKind)))
            if kind is MatchKind.LPM and any(
                existing is MatchKind.LPM for _, existing in keys
            ):
                kind = MatchKind.EXACT
            keys.append((draw(st.sampled_from(KEY_EXPRS)), kind))
        chosen = draw(st.lists(st.sampled_from(actions), min_size=1,
                               max_size=len(actions), unique_by=id))
        default = draw(st.sampled_from(chosen))
        entries = []
        for _ in range(draw(st.integers(0, 3))):
            action = draw(st.sampled_from(chosen))
            entries.append((
                tuple(draw(key_pattern(expr, kind)) for expr, kind in keys),
                action.name,
                _action_data(draw, action),
                draw(st.sampled_from([0, 0, 1, 5])),
            ))
        tables.append(TableRecipe(
            f"{prefix}_t{k}",
            tuple(keys),
            tuple(a.name for a in chosen),
            (default.name, _action_data(draw, default)),
            tuple(entries),
        ))
    return tuple(tables)


@st.composite
def statement(draw, tables_left, actions, depth):
    options = ["call", "if"] if depth < 2 else ["call"]
    if tables_left:
        options += ["apply", "ifhit"] if depth < 2 else ["apply"]
    kind = draw(st.sampled_from(options))
    if kind == "apply":
        return ApplyTable(tables_left.pop(0))
    if kind == "call":
        action = draw(st.sampled_from(actions))
        return Call(action.name, _action_data(draw, action))
    branch = block(tables_left, actions, depth + 1)
    if kind == "ifhit":
        table = tables_left.pop(0)
        return IfHit(table, draw(st.none() | branch),
                     draw(st.none() | branch))
    return If(draw(conditions()), draw(branch), draw(st.none() | branch))


@st.composite
def block(draw, tables_left, actions, depth):
    stmts = [
        draw(statement(tables_left, actions, depth))
        for _ in range(draw(st.integers(1, 2)))
    ]
    return stmts[0] if len(stmts) == 1 else Seq(tuple(stmts))


@st.composite
def recipes(draw):
    counters = draw(st.booleans())
    registers = draw(st.booleans())
    verify = draw(st.none() | st.tuples(
        conditions(headers=("ethernet", "ipv4")), st.sampled_from([0, 7]),
    ))
    actions, tables, bodies = {}, {}, {}
    for control in ("ingress", "egress"):
        actions[control] = draw(action_recipes(control[:2], counters,
                                               registers))
        tables[control] = draw(table_recipes(control[:2], actions[control]))
        pending = [t.name for t in tables[control]]
        stages = [
            draw(statement(pending, actions[control], 0))
            for _ in range(draw(st.integers(
                1 if control == "ingress" else 0, 3)))
        ]
        # Every declared table is applied somewhere.
        bodies[control] = tuple(stages) + tuple(map(ApplyTable, pending))
    return Recipe(
        duplicate_extract=draw(st.booleans()),
        start_default=draw(st.sampled_from(["accept", "reject"])),
        vlan_default=draw(st.sampled_from(["accept", "reject"])),
        ipv4_verify=verify,
        counters=counters,
        registers=registers,
        actions=actions,
        tables=tables,
        bodies=bodies,
    )


# ---------------------------------------------------------------------------
# Traffic
# ---------------------------------------------------------------------------

def seeded_traffic(seed: int, count: int = 24) -> list[bytes]:
    """Frames drawn from the value pools: ethernet, optionally VLAN,
    IPv4 and UDP, and truncations of each."""
    rng = random.Random(seed)

    def pick(header, name):
        pool = POOLS.get((header, name))
        if pool and rng.random() < 0.8:
            return rng.choice(pool)
        return rng.randrange(1 << HEADERS[header].field(name).width)

    def header(name, **fixed):
        spec = HEADERS[name]
        values = {
            f.name: pick(name, f.name) for f in spec.fields
            if (name, f.name) in POOLS
        }
        values.update(fixed)
        return Header(spec, values)

    frames = []
    for _ in range(count):
        ether_type = pick("ethernet", "ether_type")
        headers = [header("ethernet", ether_type=ether_type)]
        if ether_type == 0x8100:
            headers.append(header("vlan"))
            ether_type = headers[-1].ether_type
        if ether_type == 0x0800:
            headers.append(header("ipv4"))
            if headers[-1].protocol == 17:
                headers.append(header("udp"))
        wire = Packet(headers=headers,
                      payload=bytes(rng.randrange(256) for _ in range(16))
                      ).pack()
        if rng.random() < 0.15:
            wire = wire[:rng.randrange(len(wire))]
        frames.append(wire)
    return frames


# ---------------------------------------------------------------------------
# The properties
# ---------------------------------------------------------------------------

def _device(recipe, target, name):
    device = NetworkDevice(name, COMPILERS[target](), num_ports=8)
    device.load(recipe.build())
    recipe.install(device)
    return device


def check_recipe(recipe, seed: int) -> int:
    """Assert both properties on every target that builds the program;
    returns how many targets did."""
    traffic = seeded_traffic(seed)
    built = 0
    for target in sorted(COMPILERS):
        try:
            device = _device(recipe, target, f"gen-{target}")
        except CompileError:
            assert target != "reference", "reference must build it"
            continue
        built += 1
        witnesses, _ = covering_set(
            device.program, device.compiled.model,
            seed=seed, target=target,
        )
        frames = list(witnesses) + traffic

        interpreter = spec_interpreter(device)
        for index, wire in enumerate(frames):
            got = run_one(device, wire, timestamp=0)[:3]
            want = run_spec(interpreter, wire)
            assert got == want, (
                f"{target} frame {index} ({wire.hex()}): {got} != {want}\n"
                f"generated kernel:\n{device.compiled.kernel.source}"
            )
        assert device.state.counters == interpreter.state.counters
        assert device.state.registers == interpreter.state.registers

        # Hook-free and hooked per-packet runs, each untimed and with
        # explicit timestamps: a columnar kernel runs every hook-free
        # block stage-major, in one pass over every frame.
        kernel = device.compiled.kernel
        stage_major = [len(frames)] if kernel.columnar else [1] * len(frames)
        timed = [1000 * i for i in range(len(frames))]
        for hooked, timestamps in itertools.product((False, True),
                                                    (None, timed)):
            passes = assert_block_matches(
                _device(recipe, target, f"twin-{target}"),
                _device(recipe, target, f"twin-{target}"),
                frames,
                hooked=hooked,
                timestamps=timestamps,
            )
            assert passes == stage_major, "schedule"
    return built


def _minimal(egress_body=(), duplicate_extract=False):
    """A one-call program: forward to port 7, plus ``egress_body`` as
    one egress action called unconditionally."""
    actions = {"ingress": (ActionRecipe("fwd", (), (Forward(Const(7, 9)),)),),
               "egress": ()}
    bodies = {"ingress": (Call("fwd"),), "egress": ()}
    if egress_body:
        actions["egress"] = (ActionRecipe("post", (), tuple(egress_body)),)
        bodies["egress"] = (Call("post"),)
    return Recipe(
        duplicate_extract=duplicate_extract, start_default="accept",
        vlan_default="accept", ipv4_verify=None, counters=False,
        registers=False, actions=actions,
        tables={"ingress": (), "egress": ()}, bodies=bodies,
    )


def _overlapping_priorities():
    """Entries that overlap with distinct and with equal priorities,
    both tables nested under an ``if``: a ternary table whose
    protocol-17 entry outranks an earlier wildcard and ties a later
    one, then an EXACT table holding duplicate keys — protocol 17 at priorities 0 and 9, protocol
    6 twice at priority 3. The highest priority must win and the first
    installed must win ties."""
    def rewrite(name, src):
        return ActionRecipe(name, (), (
            SetField("ethernet", "src_addr", Const(src)),
        ))

    def forward(name, port):
        return ActionRecipe(name, (), (Forward(Const(port, 9)),))

    protocol = FieldRef("ipv4", "protocol")
    actions = (rewrite("mark_a", 0xA), rewrite("mark_b", 0xB),
               rewrite("mark_c", 0xC), forward("to_4", 4),
               forward("to_5", 5), forward("to_6", 6), forward("to_7", 7))
    tables = (
        TableRecipe("ranked", ((protocol, MatchKind.TERNARY),),
                    ("mark_a", "mark_b", "mark_c"), ("mark_a", ()), (
                        (((0, 0),), "mark_a", (), 0),
                        (((17, 0xFF),), "mark_b", (), 5),
                        (((0, 0),), "mark_c", (), 5),
                    )),
        TableRecipe("keyed", ((protocol, MatchKind.EXACT),),
                    ("to_4", "to_5", "to_6", "to_7"), ("to_4", ()), (
                        ((17,), "to_5", (), 0),
                        ((17,), "to_6", (), 9),
                        ((6,), "to_7", (), 3),
                        ((6,), "to_4", (), 3),
                    )),
    )
    return Recipe(
        duplicate_extract=False, start_default="accept",
        vlan_default="accept", ipv4_verify=None, counters=False,
        registers=False, actions={"ingress": actions, "egress": ()},
        tables={"ingress": tables, "egress": ()},
        bodies={"ingress": (If(IsValid("ipv4"), Seq((
                    ApplyTable("ranked"), ApplyTable("keyed"),
                ))),),
                "egress": ()},
    )


def _register_program(ingress, egress=(), ingress_tables=(),
                      egress_tables=()):
    """Forward to port 7, then the given statements, on a program with
    the ``last`` register and these actions: ``swap`` reads cell 0
    into ``m16``, writes the packet's EtherType there and stamps the
    value it read into ``ethernet.src_addr``; ``load`` only reads and
    stamps, ``store`` only writes. Which stages touch ``last`` decides
    the schedule; the packets' outputs show the order of its reads and
    writes."""
    read = RegisterRead("last", Const(0), "m16")
    write = RegisterWrite("last", Const(0), FieldRef("ethernet",
                                                     "ether_type"))
    stamp = SetField("ethernet", "src_addr", MetaRef("m16"))
    actions = (
        ActionRecipe("fwd", (), (Forward(Const(7, 9)),)),
        ActionRecipe("swap", (), (read, write, stamp)),
        ActionRecipe("load", (), (read, stamp)),
        ActionRecipe("store", (), (write,)),
    )
    return Recipe(
        duplicate_extract=False, start_default="accept",
        vlan_default="accept", ipv4_verify=None, counters=False,
        registers=True, actions={"ingress": actions, "egress": actions},
        tables={"ingress": ingress_tables, "egress": egress_tables},
        bodies={"ingress": (Call("fwd"), *ingress), "egress": egress},
    )


def _swap_table(name):
    """A table with no entries: every packet runs its default,
    ``swap``."""
    return TableRecipe(name, ((FieldRef("ethernet", "ether_type"),
                               MatchKind.EXACT),),
                       ("swap",), ("swap", ()), ())


#: Programs whose one register is touched from one stage (columnar) or
#: from two (packet-major), by name -> (recipe, columnar).
REGISTER_SHAPES = {
    "register_one_stage": (_register_program((Call("swap"),)), True),
    # Read in ingress, written in egress: each packet reads what the
    # previous one wrote.
    "register_across_controls": (
        _register_program((Call("load"),), (Call("store"),)), False,
    ),
    # One action object reached from an ingress and an egress table:
    # its function is generated once, for the first, and still belongs
    # to both stages.
    "register_shared_action": (
        _register_program(
            (ApplyTable("in_swap"),), (ApplyTable("eg_swap"),),
            (_swap_table("in_swap"),), (_swap_table("eg_swap"),),
        ),
        False,
    ),
}


#: Shrunk counterexamples the search found, kept as regression programs,
#: and hand-written programs pinning what the search rarely reaches:
#: name -> (recipe, traffic seed).
REGRESSIONS = {
    "overlapping_priorities": (_overlapping_priorities(), 90),
    # The kernel's parser named a duplicate extract differently from
    # the spec ("duplicate header ..." vs "packet already has header"),
    # and coverage witness construction crashed on the duplicate path.
    "duplicate_extract": (_minimal(duplicate_extract=True), 145),
    # Coverage witness replay crashed on the PacketError of a push
    # behind an absent header.
    "push_behind_absent_header": (
        _minimal(egress_body=(AddHeader("udp", after="ipv4"),)), 0,
    ),
    **{name: (recipe, 7) for name, (recipe, _) in REGISTER_SHAPES.items()},
}


@GENERATED
@given(recipe=recipes(), seed=st.integers(0, 2**16))
def test_generated_program_kernel_matches_spec(recipe, seed):
    """Kernel ≡ interpreter and block ≡ blocks of one ≡ hooked, on every
    target that builds the generated program."""
    assert check_recipe(recipe, seed) >= 1


@pytest.mark.parametrize("name", sorted(REGRESSIONS))
def test_generated_regression_program(name):
    recipe, seed = REGRESSIONS[name]
    assert check_recipe(recipe, seed) == len(COMPILERS)


@pytest.mark.parametrize("name", sorted(REGISTER_SHAPES))
def test_register_stages_decide_the_schedule(name):
    """A register touched from one stage keeps the kernel columnar; one
    touched from two stages, ingress and egress or through a shared
    action, makes it packet-major."""
    recipe, columnar = REGISTER_SHAPES[name]
    for target in sorted(COMPILERS):
        device = _device(recipe, target, f"shape-{target}")
        assert device.compiled.kernel.columnar is columnar
