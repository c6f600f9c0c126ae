"""A textual P4-like frontend.

Parses a compact, P4-flavoured text format into the same IR the Python
DSL produces, so test and validation programs can be written as source
files — the "fully programmable through P4" interface of the paper. The
grammar is a pragmatic subset:

.. code-block:: none

    header ethernet;                 # import a standard header by name
    header link { next: 8; value: 8; }
    metadata scratch: 16;
    counter hits[16];
    register last[8]: 32;

    parser start {
        extract(ethernet);
        select (ethernet.ether_type) {
            0x0800: parse_ipv4;
            default: accept;         # or reject, or a state name
        }
    }
    parser parse_ipv4 {
        extract(ipv4);
        verify(ipv4.version == 4 and ipv4.ihl >= 5, 3);
        goto accept;
    }

    action route(next_hop: 48, port: 9) {
        set(ethernet.dst_addr, next_hop);
        set(ipv4.ttl, ipv4.ttl - 1);
        forward(port);
    }

    table ipv4_lpm {
        key: ipv4.dst_addr lpm;
        actions: route, drop_all;
        default: drop_all;
        size: 512;
    }

    control ingress {
        if (ethernet.ether_type == 0x0800) { apply(ipv4_lpm); }
        else { call(drop_all); }
    }

    deparser { emit(ethernet); emit(ipv4); }

``#`` starts a comment. Expressions support the IR's operators with C
precedence, ``meta.name`` metadata references, ``valid(header)`` and
numeric literals in decimal or hex.
"""

from __future__ import annotations

import re
from dataclasses import dataclass

from ..exceptions import P4ValidationError
from ..packet.fields import HeaderSpec
from ..packet.headers import STANDARD_HEADERS
from .actions import (
    Action,
    AddHeader,
    CountPacket,
    Drop,
    Exit,
    Forward,
    HashField,
    NoOp,
    Param,
    Primitive,
    RegisterRead,
    RegisterWrite,
    RemoveHeader,
    SetField,
    SetMeta,
)
from .control import ApplyTable, Call, If, IfHit, Seq, Stmt
from .expr import BinOp, Const, Expr, FieldRef, IsValid, MetaRef, UnOp
from .parser import REJECT, ParserState, Transition
from .program import P4Program
from .table import MatchKind, Table, TableKey
from .types import TypeEnv

__all__ = ["parse_program", "parse_program_file", "ParseError"]


class ParseError(P4ValidationError):
    """A syntax error in P4-like source text, with line information."""


# ----------------------------------------------------------------------
# Tokenizer
# ----------------------------------------------------------------------
_TOKEN_RE = re.compile(
    r"""
    (?P<ws>\s+)
  | (?P<comment>\#[^\n]*)
  | (?P<hex>0[xX][0-9a-fA-F]+)
  | (?P<num>\d+)
  | (?P<id>[A-Za-z_][A-Za-z_0-9]*)
  | (?P<op><<|>>|==|!=|<=|>=|[-+*&|^~!<>])
  | (?P<punct>[{}();:,.\[\]])
    """,
    re.VERBOSE,
)


@dataclass(frozen=True)
class Token:
    kind: str  # "num", "id", "op", "punct", "eof"
    text: str
    line: int


def tokenize(source: str) -> list[Token]:
    tokens: list[Token] = []
    line = 1
    position = 0
    while position < len(source):
        match = _TOKEN_RE.match(source, position)
        if match is None:
            raise ParseError(
                f"line {line}: unexpected character {source[position]!r}"
            )
        position = match.end()
        kind = match.lastgroup
        text = match.group()
        if kind == "ws":
            line += text.count("\n")
            continue
        if kind == "comment":
            continue
        if kind in ("hex", "num"):
            # Checked here, so every later int(text, 0) succeeds.
            try:
                int(text, 0)
            except ValueError:
                raise ParseError(
                    f"line {line}: malformed number {text!r} (leading "
                    "zeros are not allowed; write hex as 0x...)"
                ) from None
            tokens.append(Token("num", text, line))
        else:
            tokens.append(Token(kind, text, line))
    tokens.append(Token("eof", "", line))
    return tokens


# ----------------------------------------------------------------------
# Parser
# ----------------------------------------------------------------------
_BINARY_PRECEDENCE = [
    ("or",),
    ("and",),
    ("|",),
    ("^",),
    ("&",),
    ("==", "!="),
    ("<", "<=", ">", ">="),
    ("<<", ">>"),
    ("+", "-"),
    ("*",),
]


class _Parser:
    def __init__(self, source: str):
        self.tokens = tokenize(source)
        self.index = 0
        self.program = P4Program(name="text", env=TypeEnv())
        self._params: dict[str, Param] = {}  # in-scope action params
        self._pending_actions: dict[str, Action] = {}

    # -- token helpers --------------------------------------------------
    def peek(self) -> Token:
        return self.tokens[self.index]

    def advance(self) -> Token:
        token = self.tokens[self.index]
        self.index += 1
        return token

    def expect(self, text: str) -> Token:
        token = self.advance()
        if token.text != text:
            raise ParseError(
                f"line {token.line}: expected {text!r}, got "
                f"{token.text or 'end of input'!r}"
            )
        return token

    def expect_kind(self, kind: str) -> Token:
        token = self.advance()
        if token.kind != kind:
            raise ParseError(
                f"line {token.line}: expected {kind}, got "
                f"{token.text!r}"
            )
        return token

    def accept(self, text: str) -> bool:
        if self.peek().text == text:
            self.advance()
            return True
        return False

    # -- top level --------------------------------------------------------
    def parse(self, name: str) -> P4Program:
        self.program.name = name
        while self.peek().kind != "eof":
            keyword = self.expect_kind("id").text
            if keyword == "header":
                self._header_decl()
            elif keyword == "metadata":
                self._metadata_decl()
            elif keyword == "counter":
                self._counter_decl()
            elif keyword == "register":
                self._register_decl()
            elif keyword == "parser":
                self._parser_state()
            elif keyword == "action":
                self._action_decl()
            elif keyword == "table":
                self._table_decl()
            elif keyword == "control":
                self._control_decl()
            elif keyword == "deparser":
                self._deparser_decl()
            else:
                raise ParseError(
                    f"line {self.peek().line}: unknown declaration "
                    f"{keyword!r}"
                )
        self._attach_pending_actions()
        return self.program

    # -- declarations ----------------------------------------------------
    def _header_decl(self) -> None:
        name = self.expect_kind("id").text
        if self.accept(";"):
            spec = STANDARD_HEADERS.get(name)
            if spec is None:
                raise ParseError(
                    f"unknown standard header {name!r}; declare fields "
                    "with 'header name { field: width; ... }'"
                )
            self.program.env.declare_header(spec)
            return
        self.expect("{")
        fields: list[tuple[str, int]] = []
        while not self.accept("}"):
            field_name = self.expect_kind("id").text
            self.expect(":")
            width = int(self.expect_kind("num").text, 0)
            self.expect(";")
            fields.append((field_name, width))
        self.program.env.declare_header(HeaderSpec.build(name, *fields))

    def _metadata_decl(self) -> None:
        name = self.expect_kind("id").text
        self.expect(":")
        width = int(self.expect_kind("num").text, 0)
        self.expect(";")
        self.program.env.declare_metadata(name, width)

    def _counter_decl(self) -> None:
        name = self.expect_kind("id").text
        self.expect("[")
        size = int(self.expect_kind("num").text, 0)
        self.expect("]")
        self.expect(";")
        self.program.declare_counter(name, size)

    def _register_decl(self) -> None:
        name = self.expect_kind("id").text
        self.expect("[")
        size = int(self.expect_kind("num").text, 0)
        self.expect("]")
        self.expect(":")
        width = int(self.expect_kind("num").text, 0)
        self.expect(";")
        self.program.declare_register(name, size, width)

    # -- parser states ------------------------------------------------------
    def _parser_state(self) -> None:
        name = self.expect_kind("id").text
        state = ParserState(name)
        self.program.parser.add_state(state)
        self.expect("{")
        while not self.accept("}"):
            keyword = self.expect_kind("id").text
            if keyword == "extract":
                self.expect("(")
                state.extracts.append(self.expect_kind("id").text)
                self.expect(")")
                self.expect(";")
            elif keyword == "verify":
                self.expect("(")
                condition = self._expr()
                error_code = 0
                if self.accept(","):
                    error_code = int(self.expect_kind("num").text, 0)
                self.expect(")")
                self.expect(";")
                if state.verify is not None:
                    raise ParseError(
                        f"state {name!r} has two verify statements"
                    )
                state.verify = (condition, error_code)
            elif keyword == "goto":
                state.transition = Transition.to(self._state_name())
                self.expect(";")
            elif keyword == "select":
                state.transition = self._select()
            else:
                raise ParseError(
                    f"line {self.peek().line}: unknown parser statement "
                    f"{keyword!r}"
                )

    def _state_name(self) -> str:
        token = self.expect_kind("id")
        return token.text  # accept/reject are ordinary identifiers here

    def _select(self) -> Transition:
        self.expect("(")
        keys = [self._expr()]
        while self.accept(","):
            keys.append(self._expr())
        self.expect(")")
        self.expect("{")
        cases: list[tuple[object, str]] = []
        default = REJECT
        while not self.accept("}"):
            if self.peek().text == "default":
                self.advance()
                self.expect(":")
                default = self._state_name()
                self.expect(";")
                continue
            values = [int(self.expect_kind("num").text, 0)]
            while self.accept(","):
                values.append(int(self.expect_kind("num").text, 0))
            self.expect(":")
            target = self._state_name()
            self.expect(";")
            pattern = values[0] if len(values) == 1 else tuple(values)
            cases.append((pattern, target))
        return Transition.select(keys, cases, default)

    # -- actions ----------------------------------------------------------
    def _action_decl(self) -> None:
        name = self.expect_kind("id").text
        params: list[Param] = []
        self.expect("(")
        if not self.accept(")"):
            while True:
                pname = self.expect_kind("id").text
                self.expect(":")
                width = int(self.expect_kind("num").text, 0)
                params.append(Param(pname, width))
                if not self.accept(","):
                    break
            self.expect(")")
        self._params = {p.name: p for p in params}
        self.expect("{")
        body: list[Primitive] = []
        while not self.accept("}"):
            body.append(self._primitive())
        self._params = {}
        self._pending_actions[name] = Action(name, params, body)

    def _primitive(self) -> Primitive:
        keyword = self.expect_kind("id").text
        self.expect("(")
        primitive: Primitive
        if keyword == "set":
            target = self._field_path()
            self.expect(",")
            value = self._expr()
            if isinstance(target, MetaRef):
                primitive = SetMeta(target.name, value)
            else:
                primitive = SetField(target.header, target.field, value)
        elif keyword == "add_header":
            header = self.expect_kind("id").text
            after = None
            if self.accept(","):
                after = self.expect_kind("id").text
            primitive = AddHeader(header, after)
        elif keyword == "remove_header":
            primitive = RemoveHeader(self.expect_kind("id").text)
        elif keyword == "drop":
            primitive = Drop()
        elif keyword == "forward":
            primitive = Forward(self._expr())
        elif keyword == "count":
            name = self.expect_kind("id").text
            self.expect(",")
            primitive = CountPacket(name, self._expr())
        elif keyword == "reg_write":
            name = self.expect_kind("id").text
            self.expect(",")
            index = self._expr()
            self.expect(",")
            primitive = RegisterWrite(name, index, self._expr())
        elif keyword == "reg_read":
            name = self.expect_kind("id").text
            self.expect(",")
            index = self._expr()
            self.expect(",")
            into = self.expect_kind("id").text
            primitive = RegisterRead(name, index, into)
        elif keyword == "hash":
            into = self.expect_kind("id").text
            self.expect(",")
            modulo = int(self.expect_kind("num").text, 0)
            inputs: list[Expr] = []
            while self.accept(","):
                inputs.append(self._expr())
            primitive = HashField(into, tuple(inputs), modulo)
        elif keyword == "exit":
            primitive = Exit()
        elif keyword == "no_op":
            primitive = NoOp()
        else:
            raise ParseError(
                f"line {self.peek().line}: unknown primitive {keyword!r}"
            )
        self.expect(")")
        self.expect(";")
        return primitive

    def _field_path(self) -> FieldRef | MetaRef:
        first = self.expect_kind("id").text
        if self.accept("."):
            second = self.expect_kind("id").text
            if first == "meta":
                return MetaRef(second)
            return FieldRef(first, second)
        raise ParseError(
            f"line {self.peek().line}: expected 'header.field' or "
            f"'meta.name', got bare {first!r}"
        )

    # -- tables -------------------------------------------------------------
    def _table_decl(self) -> None:
        name = self.expect_kind("id").text
        table = Table(name)
        from .actions import NOACTION

        table.declare_action(NOACTION)
        action_names: list[str] = []
        self.expect("{")
        while not self.accept("}"):
            keyword = self.expect_kind("id").text
            self.expect(":")
            if keyword == "key":
                expr = self._expr()
                token = self.expect_kind("id")
                try:
                    kind = MatchKind(token.text)
                except ValueError:
                    raise ParseError(
                        f"line {token.line}: unknown match kind "
                        f"{token.text!r}"
                    ) from None
                table.keys.append(TableKey(expr, kind))
                self.expect(";")
            elif keyword == "actions":
                action_names.append(self.expect_kind("id").text)
                while self.accept(","):
                    action_names.append(self.expect_kind("id").text)
                self.expect(";")
            elif keyword == "default":
                table.default_action = self.expect_kind("id").text
                self.expect(";")
            elif keyword == "size":
                table.size = int(self.expect_kind("num").text, 0)
                self.expect(";")
            else:
                raise ParseError(
                    f"line {self.peek().line}: unknown table clause "
                    f"{keyword!r}"
                )
        # Remember which named actions belong to this table; resolved
        # after all declarations are read.
        table._pending_action_names = action_names  # type: ignore[attr-defined]
        self.program.ingress.declare_table(table)

    # -- controls --------------------------------------------------------------
    def _control_decl(self) -> None:
        name = self.expect_kind("id").text
        if name not in ("ingress", "egress"):
            raise ParseError(
                f"control must be 'ingress' or 'egress', got {name!r}"
            )
        control = getattr(self.program, name)
        self.expect("{")
        control.body = self._block(end="}")

    def _block(self, end: str) -> Seq:
        statements: list[Stmt] = []
        while not self.accept(end):
            statements.append(self._statement())
        return Seq(tuple(statements))

    def _statement(self) -> Stmt:
        keyword = self.expect_kind("id").text
        if keyword == "apply":
            self.expect("(")
            table = self.expect_kind("id").text
            self.expect(")")
            self.expect(";")
            return ApplyTable(table)
        if keyword == "call":
            self.expect("(")
            action = self.expect_kind("id").text
            args: list[int] = []
            while self.accept(","):
                args.append(int(self.expect_kind("num").text, 0))
            self.expect(")")
            self.expect(";")
            return Call(action, tuple(args))
        if keyword == "if":
            self.expect("(")
            condition = self._expr()
            self.expect(")")
            self.expect("{")
            then = self._block("}")
            otherwise: Stmt | None = None
            if self.peek().text == "else":
                self.advance()
                self.expect("{")
                otherwise = self._block("}")
            return If(condition, then, otherwise)
        if keyword == "on_hit":
            self.expect("(")
            table = self.expect_kind("id").text
            self.expect(")")
            self.expect("{")
            then = self._block("}")
            otherwise = None
            if self.peek().text == "else":
                self.advance()
                self.expect("{")
                otherwise = self._block("}")
            return IfHit(table, then, otherwise)
        raise ParseError(
            f"line {self.peek().line}: unknown statement {keyword!r}"
        )

    # -- deparser --------------------------------------------------------------
    def _deparser_decl(self) -> None:
        self.expect("{")
        while not self.accept("}"):
            self.expect("emit")
            self.expect("(")
            self.program.deparser.add(self.expect_kind("id").text)
            self.expect(")")
            self.expect(";")

    # -- expressions ------------------------------------------------------------
    def _expr(self, level: int = 0) -> Expr:
        if level == len(_BINARY_PRECEDENCE):
            return self._unary()
        left = self._expr(level + 1)
        operators = _BINARY_PRECEDENCE[level]
        while self.peek().text in operators:
            op = self.advance().text
            right = self._expr(level + 1)
            left = BinOp(op, left, right)
        return left

    def _unary(self) -> Expr:
        token = self.peek()
        if token.text in ("~", "!", "-"):
            self.advance()
            return UnOp(token.text, self._unary())
        return self._primary()

    def _primary(self) -> Expr:
        token = self.advance()
        if token.kind == "num":
            return Const(int(token.text, 0))
        if token.text == "(":
            inner = self._expr()
            self.expect(")")
            return inner
        if token.kind == "id":
            if token.text == "valid":
                self.expect("(")
                header = self.expect_kind("id").text
                self.expect(")")
                return IsValid(header)
            if token.text in self._params:
                return self._params[token.text]
            if self.accept("."):
                field = self.expect_kind("id").text
                if token.text == "meta":
                    return MetaRef(field)
                return FieldRef(token.text, field)
            # Bare identifier: treat as metadata reference.
            return MetaRef(token.text)
        raise ParseError(
            f"line {token.line}: unexpected token {token.text!r} in "
            "expression"
        )

    # -- late binding of actions to tables/controls -------------------------
    def _attach_pending_actions(self) -> None:
        for control in (self.program.ingress, self.program.egress):
            for action in self._pending_actions.values():
                if action.name not in control.actions:
                    control.declare_action(action)
            for table in control.tables.values():
                names = getattr(table, "_pending_action_names", [])
                for action_name in names:
                    action = self._pending_actions.get(action_name)
                    if action is None:
                        raise ParseError(
                            f"table {table.name!r} references undeclared "
                            f"action {action_name!r}"
                        )
                    table.declare_action(action)
                if hasattr(table, "_pending_action_names"):
                    del table._pending_action_names


def parse_program(
    source: str, name: str = "text_program", validate: bool = True
) -> P4Program:
    """Parse P4-like source text into a :class:`P4Program`."""
    program = _Parser(source).parse(name)
    if validate:
        from .validation import validate_program

        validate_program(program)
    return program


def parse_program_file(path, validate: bool = True) -> P4Program:
    """Parse a P4-like source file; the program is named after the file."""
    from pathlib import Path

    path = Path(path)
    return parse_program(
        path.read_text(), name=path.stem, validate=validate
    )
