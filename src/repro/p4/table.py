"""Match-action tables.

A :class:`Table` declares its match keys (expression + match kind), the
actions it may invoke, a default action and a capacity. Entries are
installed at runtime by the control plane (:mod:`repro.controlplane`) and
matched here with P4 semantics: exact, longest-prefix, ternary-with-
priority and range matching.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum

from ..bitutils import quantize_range, quantize_ternary_mask
from ..exceptions import ControlPlaneError, P4TypeError, P4ValidationError
from .actions import Action
from .expr import EvalContext, Expr

__all__ = ["MatchKind", "TableKey", "TableEntry", "Table", "MatchResult"]


class MatchKind(str, Enum):
    """P4 match kinds supported by the model."""

    EXACT = "exact"
    LPM = "lpm"
    TERNARY = "ternary"
    RANGE = "range"


@dataclass(frozen=True)
class TableKey:
    """One match key: the expression evaluated per packet plus its kind."""

    expr: Expr
    kind: MatchKind
    name: str = ""  # optional display name for reports


@dataclass(frozen=True)
class KeyPattern:
    """The per-key pattern stored in an entry.

    Interpretation depends on the key's match kind:
      - EXACT:   ``value`` (mask/high unused)
      - LPM:     ``value`` with ``prefix_len`` significant bits
      - TERNARY: ``value`` and ``mask``
      - RANGE:   inclusive ``[value, high]``
    """

    value: int
    mask: int | None = None
    prefix_len: int | None = None
    high: int | None = None

    @classmethod
    def exact(cls, value: int) -> "KeyPattern":
        return cls(value=value)

    @classmethod
    def lpm(cls, value: int, prefix_len: int) -> "KeyPattern":
        return cls(value=value, prefix_len=prefix_len)

    @classmethod
    def ternary(cls, value: int, mask: int) -> "KeyPattern":
        return cls(value=value, mask=mask)

    @classmethod
    def range(cls, low: int, high: int) -> "KeyPattern":
        return cls(value=low, high=high)


@dataclass(frozen=True)
class TableEntry:
    """An installed table entry: patterns, action, action data, priority."""

    patterns: tuple[KeyPattern, ...]
    action: str
    action_data: tuple[int, ...] = ()
    priority: int = 0

    def __post_init__(self) -> None:
        if self.priority < 0:
            raise ControlPlaneError("entry priority must be non-negative")


@dataclass(frozen=True)
class MatchResult:
    """Outcome of a table lookup.

    ``index`` is the winning entry's position in :attr:`Table.entries`
    (``None`` on a miss).
    """

    hit: bool
    action: str
    action_data: tuple[int, ...]
    index: int | None = None


def _key_matches(
    kind: MatchKind,
    pattern: KeyPattern,
    value: int,
    width: int,
    quantize: bool = False,
) -> bool:
    """Match one key value against one pattern.

    ``quantize`` selects the TCAM-quantized semantics of targets whose
    ternary/range hardware only implements power-of-two boundaries
    (:func:`repro.bitutils.quantize_ternary_mask` /
    :func:`repro.bitutils.quantize_range`); exact and LPM keys are
    unaffected — an LPM prefix already *is* a power-of-two block.
    """
    if kind is MatchKind.EXACT:
        return value == pattern.value
    if kind is MatchKind.LPM:
        if pattern.prefix_len is None:
            raise ControlPlaneError("LPM pattern missing prefix_len")
        if pattern.prefix_len == 0:
            return True
        shift = width - pattern.prefix_len
        return (value >> shift) == (pattern.value >> shift)
    if kind is MatchKind.TERNARY:
        if pattern.mask is None:
            raise ControlPlaneError("ternary pattern missing mask")
        key_mask = pattern.mask
        if quantize:
            key_mask = quantize_ternary_mask(key_mask, width)
        return (value & key_mask) == (pattern.value & key_mask)
    if kind is MatchKind.RANGE:
        if pattern.high is None:
            raise ControlPlaneError("range pattern missing high bound")
        low, high = pattern.value, pattern.high
        if quantize:
            low, high = quantize_range(low, high, width)
        return low <= value <= high
    raise P4TypeError(f"unknown match kind {kind!r}")


@dataclass
class Table:
    """A match-action table declaration plus its installed entries."""

    name: str
    keys: list[TableKey] = field(default_factory=list)
    actions: dict[str, Action] = field(default_factory=dict)
    default_action: str = "NoAction"
    default_action_data: tuple[int, ...] = ()
    size: int = 1024
    entries: list[TableEntry] = field(default_factory=list)

    def __post_init__(self) -> None:
        if self.size <= 0:
            raise P4ValidationError(
                f"table {self.name!r} must have positive size"
            )

    # ------------------------------------------------------------------
    # Declaration helpers
    # ------------------------------------------------------------------
    def declare_action(self, action: Action) -> Action:
        if action.name in self.actions and self.actions[action.name] is not action:
            raise P4ValidationError(
                f"table {self.name!r} already declares action "
                f"{action.name!r}"
            )
        self.actions[action.name] = action
        return action

    def action(self, name: str) -> Action:
        try:
            return self.actions[name]
        except KeyError:
            raise P4ValidationError(
                f"table {self.name!r} has no action {name!r}"
            ) from None

    @property
    def is_lpm(self) -> bool:
        return any(k.kind is MatchKind.LPM for k in self.keys)

    @property
    def is_ternary(self) -> bool:
        return any(k.kind is MatchKind.TERNARY for k in self.keys)

    # ------------------------------------------------------------------
    # Control-plane operations
    # ------------------------------------------------------------------
    def insert(self, entry: TableEntry) -> None:
        """Install an entry, validating arity, action and capacity."""
        if len(entry.patterns) != len(self.keys):
            raise ControlPlaneError(
                f"table {self.name!r} expects {len(self.keys)} key "
                f"patterns, got {len(entry.patterns)}"
            )
        if entry.action not in self.actions:
            raise ControlPlaneError(
                f"table {self.name!r} has no action {entry.action!r}"
            )
        self.action(entry.action).bind(entry.action_data)  # arity check
        if len(self.entries) >= self.size:
            raise ControlPlaneError(
                f"table {self.name!r} is full ({self.size} entries)"
            )
        self.entries.append(entry)

    def clear(self) -> None:
        self.entries.clear()

    def remove(self, entry: TableEntry) -> None:
        try:
            self.entries.remove(entry)
        except ValueError:
            raise ControlPlaneError(
                f"entry not present in table {self.name!r}"
            ) from None

    # ------------------------------------------------------------------
    # Data-plane lookup
    # ------------------------------------------------------------------
    def lookup(
        self, ctx: EvalContext, env, quantize: bool = False
    ) -> MatchResult:
        """Match the packet in ``ctx`` against the installed entries.

        Selection follows P4 semantics: among matching entries, LPM tables
        prefer the longest prefix; ternary/range tables prefer the highest
        priority; exact tables have at most one match by construction.
        ``quantize`` applies the power-of-two TCAM quantization some
        targets silently impose on ternary/range keys (see
        :func:`_key_matches`); spec-faithful callers leave it False.
        """
        values = tuple(key.expr.eval(ctx, env) for key in self.keys)
        widths = tuple(key.expr.width(env) for key in self.keys)
        best: int | None = None  # the winning entry's index
        best_rank: tuple[int, int] = (-1, -1)
        for index, entry in enumerate(self.entries):
            if not all(
                _key_matches(key.kind, pattern, value, width, quantize)
                for key, pattern, value, width in zip(
                    self.keys, entry.patterns, values, widths
                )
            ):
                continue
            # Rank: total LPM prefix length first, then explicit priority.
            prefix_total = sum(
                p.prefix_len or 0
                for k, p in zip(self.keys, entry.patterns)
                if k.kind is MatchKind.LPM
            )
            rank = (prefix_total, entry.priority)
            if best is None or rank > best_rank:
                best = index
                best_rank = rank
        if best is None:
            return MatchResult(
                hit=False,
                action=self.default_action,
                action_data=self.default_action_data,
            )
        entry = self.entries[best]
        return MatchResult(
            hit=True,
            action=entry.action,
            action_data=entry.action_data,
            index=best,
        )
