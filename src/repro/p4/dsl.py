"""A compact Python builder DSL for P4-like programs.

The DSL keeps program construction readable::

    b = ProgramBuilder("router")
    b.header(ETHERNET)
    b.header(IPV4)
    start = b.parser_state("start", extracts=["ethernet"])
    start.select(fld("ethernet", "ether_type"),
                 [(ETHERTYPE_IPV4, "parse_ipv4")], default=ACCEPT)
    ...
    program = b.build()

It is sugar over the IR in :mod:`repro.p4` — everything the DSL produces
can also be built directly.
"""

from __future__ import annotations

from ..exceptions import P4ValidationError
from ..packet.fields import HeaderSpec
from .actions import NOACTION, Action, Param, Primitive
from .control import ApplyTable, Call, Control, If, IfHit, Seq, Stmt
from .expr import Expr
from .parser import ACCEPT, REJECT, ParserState, Transition
from .program import P4Program
from .table import MatchKind, Table, TableKey
from .types import TypeEnv

__all__ = ["StateBuilder", "TableBuilder", "ControlBuilder", "ProgramBuilder"]


class StateBuilder:
    """Fluent wrapper around one :class:`ParserState`."""

    def __init__(self, state: ParserState):
        self._state = state

    def extract(self, *headers: str) -> "StateBuilder":
        self._state.extracts.extend(headers)
        return self

    def verify(self, cond: Expr, error_code: int = 0) -> "StateBuilder":
        if self._state.verify is not None:
            raise P4ValidationError(
                f"state {self._state.name!r} already has a verify"
            )
        self._state.verify = (cond, error_code)
        return self

    def goto(self, state: str) -> "StateBuilder":
        self._state.transition = Transition.to(state)
        return self

    def accept(self) -> "StateBuilder":
        return self.goto(ACCEPT)

    def reject(self) -> "StateBuilder":
        return self.goto(REJECT)

    def select(
        self,
        keys: Expr | list[Expr],
        cases: list[tuple[object, str]],
        default: str = REJECT,
    ) -> "StateBuilder":
        if isinstance(keys, Expr):
            keys = [keys]
        self._state.transition = Transition.select(keys, cases, default)
        return self


class TableBuilder:
    """Fluent wrapper around one :class:`Table`."""

    def __init__(self, table: Table):
        self._table = table

    def key(
        self, expr: Expr, kind: MatchKind | str = MatchKind.EXACT,
        name: str = "",
    ) -> "TableBuilder":
        kind = MatchKind(kind)
        self._table.keys.append(TableKey(expr, kind, name))
        return self

    def action(
        self,
        name: str,
        params: list[tuple[str, int]] | None = None,
        body: list[Primitive] | None = None,
    ) -> "TableBuilder":
        built = Action(
            name,
            [Param(pname, bits) for pname, bits in (params or [])],
            list(body or []),
        )
        self._table.declare_action(built)
        return self

    def declare(self, action: Action) -> "TableBuilder":
        self._table.declare_action(action)
        return self

    def default(
        self, action: str, args: tuple[int, ...] = ()
    ) -> "TableBuilder":
        self._table.default_action = action
        self._table.default_action_data = args
        return self

    def size(self, size: int) -> "TableBuilder":
        self._table.size = size
        return self

    @property
    def table(self) -> Table:
        return self._table


class ControlBuilder:
    """Fluent wrapper around one :class:`Control`."""

    def __init__(self, control: Control):
        self._control = control
        self._stmts: list[Stmt] = []

    def table(self, name: str) -> TableBuilder:
        table = Table(name)
        table.declare_action(NOACTION)
        self._control.declare_table(table)
        return TableBuilder(table)

    def action(
        self,
        name: str,
        params: list[tuple[str, int]] | None = None,
        body: list[Primitive] | None = None,
    ) -> "ControlBuilder":
        built = Action(
            name,
            [Param(pname, bits) for pname, bits in (params or [])],
            list(body or []),
        )
        self._control.declare_action(built)
        return self

    def apply(self, table: str) -> "ControlBuilder":
        self._stmts.append(ApplyTable(table))
        return self

    def when(
        self, cond: Expr, then: Stmt, otherwise: Stmt | None = None
    ) -> "ControlBuilder":
        self._stmts.append(If(cond, then, otherwise))
        return self

    def on_hit(
        self, table: str, then: Stmt | None = None,
        otherwise: Stmt | None = None,
    ) -> "ControlBuilder":
        self._stmts.append(IfHit(table, then, otherwise))
        return self

    def call(self, action: str, args: tuple[int, ...] = ()) -> "ControlBuilder":
        self._stmts.append(Call(action, args))
        return self

    def stmt(self, statement: Stmt) -> "ControlBuilder":
        self._stmts.append(statement)
        return self

    def finish(self) -> Control:
        self._control.body = Seq(tuple(self._stmts))
        return self._control


class ProgramBuilder:
    """Top-level builder assembling a complete :class:`P4Program`."""

    def __init__(self, name: str):
        self._program = P4Program(name=name, env=TypeEnv())
        self._ingress = ControlBuilder(self._program.ingress)
        self._egress = ControlBuilder(self._program.egress)

    # -- types ----------------------------------------------------------
    def header(self, spec: HeaderSpec) -> "ProgramBuilder":
        self._program.env.declare_header(spec)
        return self

    def metadata(self, name: str, width: int) -> "ProgramBuilder":
        self._program.env.declare_metadata(name, width)
        return self

    # -- parser ---------------------------------------------------------
    def parser_state(
        self, name: str, extracts: list[str] | None = None
    ) -> StateBuilder:
        state = ParserState(name, list(extracts or []))
        self._program.parser.add_state(state)
        return StateBuilder(state)

    # -- controls -------------------------------------------------------
    @property
    def ingress(self) -> ControlBuilder:
        return self._ingress

    @property
    def egress(self) -> ControlBuilder:
        return self._egress

    # -- stateful objects -------------------------------------------------
    def counter(self, name: str, size: int) -> "ProgramBuilder":
        self._program.declare_counter(name, size)
        return self

    def register(self, name: str, size: int, width: int) -> "ProgramBuilder":
        self._program.declare_register(name, size, width)
        return self

    # -- deparser ---------------------------------------------------------
    def emit(self, *headers: str) -> "ProgramBuilder":
        for header in headers:
            self._program.deparser.add(header)
        return self

    def build(self, validate: bool = True) -> P4Program:
        """Finalize the program; optionally run static validation."""
        self._ingress.finish()
        self._egress.finish()
        if validate:
            from .validation import validate_program

            validate_program(self._program)
        return self._program
