"""Control-plane runtime API.

The control plane is how an operator (or test harness) configures a
loaded program: installing table entries, reading counters, and poking
registers. It deliberately mirrors the shape of P4Runtime-style APIs —
string table/action names, positional match keys and action data — so the
example applications read like real controller code.
"""

from __future__ import annotations

from ..exceptions import ControlPlaneError
from ..p4.interpreter import RuntimeState
from ..p4.program import P4Program
from ..p4.table import KeyPattern, MatchKind, Table, TableEntry

__all__ = ["RuntimeAPI"]


def _key_label(key_decl) -> str:
    """How an error names a match key: its display name, else the
    field or metadata it reads, else the expression."""
    expr = key_decl.expr
    label = key_decl.name or getattr(expr, "path", None) or getattr(
        expr, "name", None
    )
    return repr(label) if label else repr(expr)


class RuntimeAPI:
    """Configure a program's tables and inspect its stateful objects."""

    def __init__(self, program: P4Program, state: RuntimeState):
        self._program = program
        self._state = state

    # ------------------------------------------------------------------
    # Tables
    # ------------------------------------------------------------------
    def _table(self, name: str) -> Table:
        return self._program.table(name)

    def table_add(
        self,
        table: str,
        action: str,
        keys: list[object],
        action_data: list[int] | tuple[int, ...] = (),
        priority: int = 0,
    ) -> TableEntry:
        """Install one entry.

        Each element of ``keys`` must suit the table's match kind at that
        position: an int for EXACT, ``(value, prefix_len)`` for LPM,
        ``(value, mask)`` for TERNARY, ``(low, high)`` for RANGE. Every
        value, mask and bound must fit the key's width ``w`` (lie in
        ``[0, 2**w)``) and a prefix length must lie in ``[0, w]``.
        """
        tbl = self._table(table)
        if len(keys) != len(tbl.keys):
            raise ControlPlaneError(
                f"table {table!r} has {len(tbl.keys)} keys, got {len(keys)}"
            )
        patterns: list[KeyPattern] = []
        for key_decl, key in zip(tbl.keys, keys):
            kind = key_decl.kind
            width = key_decl.expr.width(self._program.env)

            def fits(what: str, number: int) -> None:
                if not 0 <= number < 1 << width:
                    raise ControlPlaneError(
                        f"table {table!r} key {_key_label(key_decl)}: "
                        f"{what} {number} does not fit {width} bits"
                    )

            if kind is MatchKind.EXACT:
                if not isinstance(key, int):
                    raise ControlPlaneError(
                        f"exact key must be an int, got {key!r}"
                    )
                fits("value", key)
                patterns.append(KeyPattern.exact(key))
            elif kind is MatchKind.LPM:
                value, prefix_len = self._expect_pair(key, "LPM")
                fits("value", value)
                if not 0 <= prefix_len <= width:
                    raise ControlPlaneError(
                        f"table {table!r} key {_key_label(key_decl)}: "
                        f"prefix length {prefix_len} outside [0, {width}]"
                    )
                patterns.append(KeyPattern.lpm(value, prefix_len))
            elif kind is MatchKind.TERNARY:
                value, mask = self._expect_pair(key, "ternary")
                fits("value", value)
                fits("mask", mask)
                patterns.append(KeyPattern.ternary(value, mask))
            elif kind is MatchKind.RANGE:
                low, high = self._expect_pair(key, "range")
                fits("low bound", low)
                fits("high bound", high)
                if low > high:
                    raise ControlPlaneError(
                        f"range key low {low} > high {high}"
                    )
                patterns.append(KeyPattern.range(low, high))
            else:  # pragma: no cover - enum is closed
                raise ControlPlaneError(f"unknown match kind {kind!r}")
        entry = TableEntry(
            tuple(patterns), action, tuple(action_data), priority
        )
        tbl.insert(entry)
        return entry

    @staticmethod
    def _expect_pair(key: object, kind: str) -> tuple[int, int]:
        if (
            not isinstance(key, tuple)
            or len(key) != 2
            or not all(isinstance(part, int) for part in key)
        ):
            raise ControlPlaneError(
                f"{kind} key must be a (value, arg) int pair, got {key!r}"
            )
        return key  # type: ignore[return-value]

    def table_delete(self, table: str, entry: TableEntry) -> None:
        self._table(table).remove(entry)

    def table_clear(self, table: str) -> None:
        self._table(table).clear()

    def table_entries(self, table: str) -> list[TableEntry]:
        return list(self._table(table).entries)

    def table_occupancy(self) -> dict[str, tuple[int, int]]:
        """Per-table ``(installed, capacity)`` across the program."""
        return {
            name: (len(tbl.entries), tbl.size)
            for name, tbl in self._program.all_tables().items()
        }

    def set_default_action(
        self, table: str, action: str, action_data: tuple[int, ...] = ()
    ) -> None:
        tbl = self._table(table)
        if action not in tbl.actions:
            raise ControlPlaneError(
                f"table {table!r} has no action {action!r}"
            )
        tbl.action(action).bind(action_data)
        tbl.default_action = action
        tbl.default_action_data = tuple(action_data)

    # ------------------------------------------------------------------
    # Stateful objects
    # ------------------------------------------------------------------
    def counter_read(self, name: str, index: int = 0) -> int:
        try:
            cells = self._state.counters[name]
        except KeyError:
            raise ControlPlaneError(f"no counter {name!r}") from None
        if not 0 <= index < len(cells):
            raise ControlPlaneError(
                f"counter {name!r} index {index} out of range"
            )
        return cells[index]

    def counter_reset(self, name: str) -> None:
        try:
            cells = self._state.counters[name]
        except KeyError:
            raise ControlPlaneError(f"no counter {name!r}") from None
        for index in range(len(cells)):
            cells[index] = 0

    def register_read(self, name: str, index: int = 0) -> int:
        try:
            cells = self._state.registers[name]
        except KeyError:
            raise ControlPlaneError(f"no register {name!r}") from None
        if not 0 <= index < len(cells):
            raise ControlPlaneError(
                f"register {name!r} index {index} out of range"
            )
        return cells[index]

    def register_write(self, name: str, index: int, value: int) -> None:
        try:
            cells = self._state.registers[name]
        except KeyError:
            raise ControlPlaneError(f"no register {name!r}") from None
        if not 0 <= index < len(cells):
            raise ControlPlaneError(
                f"register {name!r} index {index} out of range"
            )
        width = self._state.register_widths[name]
        if value < 0 or value.bit_length() > width:
            raise ControlPlaneError(
                f"value {value} does not fit register {name!r} "
                f"({width} bits)"
            )
        cells[index] = value
