"""Shared symbolic path enumeration over the P4 IR.

One walker, two consumers. The p4v-style verifier
(:mod:`repro.baselines.formal`) and the coverage-guided packet
generator (:mod:`repro.netdebug.coverage`) both need the same core
machine: enumerate bounded paths through the parser FSM under the
value-set domain (:mod:`repro.baselines.symbolic`), branch per table
entry (each installed entry plus the miss), and materialize one
concrete witness packet per feasible combination. Historically that
machine lived private to ``SymbolicVerifier``; this module is the
extraction, parameterized by a **deviation model** so path feasibility
can be judged under a *target's* semantics, not only the spec's:

* ``quantize_tcam`` — ternary masks and range bounds quantize to
  power-of-two boundaries (:func:`repro.bitutils.quantize_ternary_mask`
  / :func:`repro.bitutils.quantize_range`) before a witness value is
  derived, and an entry whose quantized patterns match *everything*
  makes the table's miss branch infeasible (the Tofino-style ACL hole).
* ``honor_reject`` — when False (the SDNet deviation), parser-reject
  paths continue through the match-action pipeline, so table choices
  multiply reject paths exactly as they do accept paths.
* ``deparse_field_budget`` — carried for replay construction; it
  changes emitted bytes, not which paths are feasible.

The spec model (all defaults) reproduces the verifier's historical
behaviour bit for bit — :meth:`PathEnumerator.candidates` is the exact
candidate stream ``SymbolicVerifier.candidates`` always produced.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Iterator

from ..bitutils import mask, quantize_range, quantize_ternary_mask
from ..exceptions import VerificationError
from ..p4.expr import Const, Expr, FieldRef, MetaRef
from ..p4.parser import ACCEPT, REJECT
from ..p4.program import P4Program
from ..p4.table import KeyPattern, MatchKind, Table, TableEntry
from ..packet.packet import Header, Packet
from ..target.limits import SPEC_MODEL, DeviationModel
from .symbolic import Infeasible, SymbolicState, ValueSet

__all__ = [
    "MAX_PARSER_PATHS",
    "MAX_CANDIDATES",
    "ParserPath",
    "CandidateSpec",
    "PathEnumerator",
]

#: Cap on parser paths and per-program candidates, to bound enumeration.
MAX_PARSER_PATHS = 256
MAX_CANDIDATES = 4096

#: Default witness payload: small, deterministic, checksum-neutral.
DEFAULT_PAYLOAD = b"\x00" * 16


@dataclass
class ParserPath:
    """One path through the parser FSM."""

    states: list[str]
    extracted: list[str]
    sym: SymbolicState
    outcome: str  # ACCEPT or REJECT


@dataclass
class CandidateSpec:
    """One (parser path × table-entry combination) behaviour class.

    ``choices`` names the intended branch per table —
    ``(table_name, entry_index)`` with ``None`` for the miss — and is
    empty when the path never reaches the pipeline (spec-honored
    reject) or the program has no tables. ``feasible`` is the symbolic
    verdict; infeasible specs carry the pruning ``reason`` instead of a
    witness state.
    """

    path: ParserPath
    sym: SymbolicState
    choices: tuple[tuple[str, int | None], ...]
    feasible: bool = True
    reason: str = ""

    def describe(self) -> str:
        """A stable human-readable identity for coverage artifacts."""
        states = ">".join(self.path.states) or "<start>"
        branches = ",".join(
            f"{name}={'miss' if index is None else index}"
            for name, index in self.choices
        )
        return f"{states}:{self.path.outcome}" + (
            f"[{branches}]" if branches else ""
        )


class PathEnumerator:
    """Symbolic path walker for one program under one deviation model."""

    def __init__(
        self, program: P4Program, model: DeviationModel = SPEC_MODEL
    ):
        self.program = program
        self.model = model

    # -- parser -----------------------------------------------------------
    def parser_paths(self) -> list[ParserPath]:
        """All bounded paths through the parser with their constraints."""
        env = self.program.env
        paths: list[ParserPath] = []
        start = self.program.parser.start

        def walk(
            state_name: str,
            visited: tuple[str, ...],
            extracted: list[str],
            sym: SymbolicState,
        ) -> None:
            if len(paths) >= MAX_PARSER_PATHS:
                return
            if state_name in (ACCEPT, REJECT):
                paths.append(
                    ParserPath(
                        list(visited), list(extracted), sym, state_name
                    )
                )
                return
            if visited.count(state_name) > 1:
                return  # refuse cyclic paths beyond one revisit
            state = self.program.parser.state(state_name)
            new_extracted = extracted + list(state.extracts)
            for header in state.extracts:
                sym.extracted.append(header)

            if state.verify is not None:
                # Branch: verify fails -> reject. Constrain only the
                # common "field op const" shapes; otherwise fork blindly.
                fail_sym = sym.fork()
                fail_sym.note(f"verify fails in {state_name}")
                try:
                    self.constrain_bool(fail_sym, state.verify[0], False)
                    paths.append(
                        ParserPath(
                            list(visited) + [state_name],
                            list(new_extracted),
                            fail_sym,
                            REJECT,
                        )
                    )
                except Infeasible:
                    pass
                try:
                    self.constrain_bool(sym, state.verify[0], True)
                except Infeasible:
                    return

            transition = state.transition
            if not transition.is_select:
                walk(
                    transition.default,
                    visited + (state_name,),
                    new_extracted,
                    sym,
                )
                return
            # Select: branch per case plus the default.
            taken_values: list[int] = []
            single_exact_key = (
                len(transition.keys) == 1
                and isinstance(transition.keys[0], (FieldRef, MetaRef))
            )
            key_path = (
                self.expr_path(transition.keys[0])
                if single_exact_key
                else None
            )
            key_width = (
                transition.keys[0].width(env) if single_exact_key else 0
            )
            for case in transition.cases:
                branch = sym.fork()
                feasible = True
                if single_exact_key and len(case.patterns) == 1:
                    value, mask_ = case.patterns[0]
                    if mask_ == -1:
                        try:
                            branch.constrain_eq(key_path, key_width, value)
                            taken_values.append(value)
                        except Infeasible:
                            feasible = False
                    else:
                        branch.note(
                            f"masked select {value:#x}/{mask_:#x}"
                        )
                if feasible:
                    walk(
                        case.next_state,
                        visited + (state_name,),
                        new_extracted,
                        branch,
                    )
            default_branch = sym.fork()
            feasible = True
            if single_exact_key:
                for value in taken_values:
                    try:
                        default_branch.constrain_ne(
                            key_path, key_width, value
                        )
                    except Infeasible:
                        feasible = False
                        break
            if feasible:
                walk(
                    transition.default,
                    visited + (state_name,),
                    new_extracted,
                    default_branch,
                )

        walk(start, (), [], SymbolicState())
        return paths

    def expr_path(self, expr: Expr) -> str:
        if isinstance(expr, FieldRef):
            return expr.path
        if isinstance(expr, MetaRef):
            return f"meta.{expr.name}"
        raise VerificationError(f"not a simple reference: {expr!r}")

    def constrain_bool(
        self, sym: SymbolicState, expr: Expr, want: bool
    ) -> None:
        """Best-effort refinement of ``expr == want`` on the state.

        Handles ``field == const`` / ``field >= const`` (and conjunctions
        when asserting True). Anything else becomes a note — the
        candidate is over-approximate and the concrete replay decides.
        """
        from ..p4.expr import BinOp

        env = self.program.env
        if isinstance(expr, BinOp):
            if expr.op == "and" and want:
                self.constrain_bool(sym, expr.left, True)
                self.constrain_bool(sym, expr.right, True)
                return
            if expr.op == "and" and not want:
                # ¬(a ∧ b) — cover the ¬a disjunct; the concrete replay
                # keeps this sound (never a false violation).
                self.constrain_bool(sym, expr.left, False)
                return
            simple_ref = isinstance(expr.left, (FieldRef, MetaRef))
            const_right = isinstance(expr.right, Const)
            if simple_ref and const_right:
                path = self.expr_path(expr.left)
                width = expr.left.width(env)
                value = expr.right.value
                if expr.op == "==":
                    if want:
                        sym.constrain_eq(path, width, value)
                    else:
                        sym.constrain_ne(path, width, value)
                    return
                if expr.op == ">=" and not want:
                    # field < value: representable when small.
                    if value <= 64:
                        allowed = frozenset(range(value))
                        sym.set(
                            path,
                            sym.get(path, width).refine_in(allowed),
                        )
                        return
                if expr.op == ">=" and want:
                    sym.note(f"{path} >= {value}")
                    # Prefer a witness at the boundary.
                    current = sym.get(path, width)
                    if current.kind == "any":
                        sym.set(path, ValueSet.concrete(width, value))
                    return
        sym.note(f"unrefined constraint: {expr!r} == {want}")

    # -- candidate construction -------------------------------------------
    def build_packet(
        self,
        path: ParserPath,
        sym: SymbolicState,
        payload: bytes = DEFAULT_PAYLOAD,
    ) -> bytes:
        """Materialize a concrete packet following ``path``."""
        return self.build_packet_object(path, sym, payload).pack()

    def build_packet_object(
        self,
        path: ParserPath,
        sym: SymbolicState,
        payload: bytes = DEFAULT_PAYLOAD,
    ) -> Packet:
        """The witness as a structured :class:`Packet` (unpacked form)."""
        headers: list[Header] = []
        for name in path.extracted:
            spec = self.program.env.header(name)
            values = {}
            for fspec in spec.fields:
                dotted = f"{name}.{fspec.name}"
                if dotted in sym.fields:
                    values[fspec.name] = sym.fields[dotted].pick(
                        fspec.default
                    )
                else:
                    values[fspec.name] = fspec.default
            headers.append(Header(spec, values))
        return Packet(headers=headers, payload=payload)

    def table_choices(self, table: Table) -> list[TableEntry | None]:
        """Branches per table: each installed entry plus the miss."""
        return list(table.entries) + [None]

    def constrain_for_entry(
        self,
        sym: SymbolicState,
        table: Table,
        entry: TableEntry | None,
        misses: list[TableEntry],
    ) -> bool:
        """Refine ``sym`` so the table chooses ``entry`` (None=miss)."""
        try:
            self.apply_entry_constraints(sym, table, entry, misses)
        except Infeasible:
            return False
        return True

    def apply_entry_constraints(
        self,
        sym: SymbolicState,
        table: Table,
        entry: TableEntry | None,
        misses: list[TableEntry],
        prune_universal_miss: bool = False,
    ) -> None:
        """The raising form of :meth:`constrain_for_entry`.

        ``prune_universal_miss`` additionally declares the miss branch
        infeasible when an installed entry matches every packet under
        this model (e.g. a ternary mask quantized to match-all) — the
        coverage enumerator wants that recorded as a prune with its
        reason, while the verifier keeps its historical permissive miss
        (the concrete replay collapses the duplicate anyway).
        """
        env = self.program.env
        if entry is not None:
            for key, pattern in zip(table.keys, entry.patterns):
                if not isinstance(key.expr, (FieldRef, MetaRef)):
                    continue
                path = self.expr_path(key.expr)
                width = key.expr.width(env)
                value = self.pattern_value(key.kind, pattern, width)
                if isinstance(key.expr, FieldRef):
                    sym.constrain_eq(path, width, value)
            return
        if prune_universal_miss:
            for index, miss_entry in enumerate(misses):
                if self.entry_matches_all(table, miss_entry):
                    raise Infeasible(
                        f"entry {index} of table {table.name!r} matches "
                        "every packet under this target model; "
                        "the miss branch is unreachable"
                    )
        for miss_entry in misses:
            for key, pattern in zip(table.keys, miss_entry.patterns):
                if key.kind is not MatchKind.EXACT:
                    continue
                if not isinstance(key.expr, FieldRef):
                    continue
                sym.constrain_ne(
                    self.expr_path(key.expr),
                    key.expr.width(env),
                    pattern.value,
                )

    def pattern_value(
        self, kind: MatchKind, pattern: KeyPattern, width: int
    ) -> int:
        """A key value that hits ``pattern`` under this model."""
        if kind is MatchKind.EXACT:
            return pattern.value
        if kind is MatchKind.LPM:
            return pattern.value  # the prefix's own address matches
        if kind is MatchKind.TERNARY:
            key_mask = pattern.mask or 0
            if self.model.quantize_tcam:
                key_mask = quantize_ternary_mask(key_mask, width)
            return pattern.value & key_mask
        if kind is MatchKind.RANGE:
            if self.model.quantize_tcam and pattern.high is not None:
                low, _high = quantize_range(
                    pattern.value, pattern.high, width
                )
                return low
            return pattern.value
        raise VerificationError(f"unknown kind {kind!r}")

    def entry_matches_all(self, table: Table, entry: TableEntry) -> bool:
        """Whether the entry hits every packet under this model."""
        env = self.program.env
        for key, pattern in zip(table.keys, entry.patterns):
            width = key.expr.width(env)
            if key.kind is MatchKind.EXACT:
                return False
            if key.kind is MatchKind.LPM:
                if (pattern.prefix_len or 0) > 0:
                    return False
            elif key.kind is MatchKind.TERNARY:
                key_mask = pattern.mask or 0
                if self.model.quantize_tcam:
                    key_mask = quantize_ternary_mask(key_mask, width)
                if key_mask != 0:
                    return False
            elif key.kind is MatchKind.RANGE:
                low, high = pattern.value, pattern.high or 0
                if self.model.quantize_tcam:
                    low, high = quantize_range(low, high, width)
                if low > 0 or high < mask(width):
                    return False
        return True

    def candidates(self) -> list[bytes]:
        """Concrete witness packets covering behaviour classes.

        Byte-identical to the historical ``SymbolicVerifier.candidates``
        stream for the spec model (ordering, caps, dedup included).
        """
        tables = list(self.program.all_tables().values())
        packets: list[bytes] = []
        for path in self.parser_paths():
            if path.outcome == REJECT:
                try:
                    packets.append(self.build_packet(path, path.sym))
                except Infeasible:
                    pass
                continue
            choice_lists = [self.table_choices(t) for t in tables]
            if not choice_lists:
                try:
                    packets.append(self.build_packet(path, path.sym))
                except Infeasible:
                    pass
                continue
            for combo in itertools.product(*choice_lists):
                if len(packets) >= MAX_CANDIDATES:
                    break
                sym = path.sym.fork()
                feasible = True
                for table, entry in zip(tables, combo):
                    if not self.constrain_for_entry(
                        sym, table, entry, table.entries
                    ):
                        feasible = False
                        break
                if not feasible:
                    continue
                try:
                    packets.append(self.build_packet(path, sym))
                except Infeasible:
                    continue
        # Deduplicate while preserving order.
        seen: set[bytes] = set()
        unique = []
        for packet in packets:
            if packet not in seen:
                seen.add(packet)
                unique.append(packet)
        return unique

    def candidate_specs(self) -> Iterator[CandidateSpec]:
        """Every (parser path × table combination) with its verdict.

        Unlike :meth:`candidates` this yields *infeasible* combinations
        too (with their pruning reason), applies the deviation model's
        reject semantics (reject paths branch over tables when the
        target ignores reject), and prunes the miss branch behind a
        universal entry — the coverage map's raw material.
        """
        tables = list(self.program.all_tables().values())
        for path in self.parser_paths():
            runs_pipeline = (
                path.outcome == ACCEPT or not self.model.honor_reject
            )
            if not runs_pipeline or not tables:
                yield CandidateSpec(path, path.sym, ())
                continue
            choice_lists = [
                [(index, entry) for index, entry in enumerate(t.entries)]
                + [(None, None)]
                for t in tables
            ]
            for combo in itertools.product(*choice_lists):
                sym = path.sym.fork()
                choices = tuple(
                    (table.name, index)
                    for table, (index, _) in zip(tables, combo)
                )
                feasible, reason = True, ""
                for table, (_, entry) in zip(tables, combo):
                    try:
                        self.apply_entry_constraints(
                            sym,
                            table,
                            entry,
                            table.entries,
                            prune_universal_miss=True,
                        )
                    except Infeasible as exc:
                        feasible, reason = False, f"{table.name}: {exc}"
                        break
                yield CandidateSpec(path, sym, choices, feasible, reason)
