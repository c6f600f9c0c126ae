"""A P4₁₆-like intermediate representation, interpreter and tooling."""

from .actions import (
    NOACTION,
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
from .control import ApplyTable, Call, Control, If, IfHit, Seq, Stmt
from .deparser import Deparser
from .dsl import ControlBuilder, ProgramBuilder, StateBuilder, TableBuilder
from .expr import (
    BinOp,
    Concat,
    Const,
    EvalContext,
    Expr,
    FieldRef,
    IsValid,
    MetaRef,
    Mux,
    Slice,
    UnOp,
    const,
    fld,
    meta,
)
from .interpreter import (
    Interpreter,
    PipelineResult,
    RuntimeState,
    Verdict,
)
from .json_loader import (
    load_program,
    program_from_dict,
    program_to_dict,
    save_program,
)
from .parser import ACCEPT, REJECT, Parser, ParserState, SelectCase, Transition
from .textparse import parse_program, parse_program_file
from .program import CounterDecl, P4Program, RegisterDecl
from .table import KeyPattern, MatchKind, MatchResult, Table, TableEntry, TableKey
from .types import STANDARD_METADATA, TypeEnv, standard_metadata_defaults
from .validation import validate_program

__all__ = [
    # types
    "TypeEnv",
    "STANDARD_METADATA",
    "standard_metadata_defaults",
    # expr
    "Expr",
    "Const",
    "FieldRef",
    "MetaRef",
    "IsValid",
    "BinOp",
    "UnOp",
    "Slice",
    "Concat",
    "Mux",
    "EvalContext",
    "const",
    "fld",
    "meta",
    # parser
    "ACCEPT",
    "REJECT",
    "Parser",
    "ParserState",
    "SelectCase",
    "Transition",
    # actions
    "Action",
    "Param",
    "Primitive",
    "NOACTION",
    "SetField",
    "SetMeta",
    "AddHeader",
    "RemoveHeader",
    "Drop",
    "Forward",
    "NoOp",
    "CountPacket",
    "RegisterRead",
    "RegisterWrite",
    "HashField",
    "Exit",
    # table
    "Table",
    "TableKey",
    "TableEntry",
    "KeyPattern",
    "MatchKind",
    "MatchResult",
    # control
    "Control",
    "Stmt",
    "ApplyTable",
    "If",
    "IfHit",
    "Call",
    "Seq",
    # program
    "P4Program",
    "CounterDecl",
    "RegisterDecl",
    "Deparser",
    # interpreter
    "Interpreter",
    "PipelineResult",
    "RuntimeState",
    "Verdict",
    # dsl
    "ProgramBuilder",
    "ControlBuilder",
    "StateBuilder",
    "TableBuilder",
    # json
    "program_to_dict",
    "program_from_dict",
    "save_program",
    "load_program",
    # validation
    "validate_program",
    # text frontend
    "parse_program",
    "parse_program_file",
]
