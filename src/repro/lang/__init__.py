"""Fortran-style Do-loop DSL: lexer, parser, IR and canned paper programs."""

from repro.lang.affine import Affine
from repro.lang.ast import (
    ArrayDecl,
    ArrayRef,
    Assign,
    BinOp,
    DoLoop,
    Num,
    Program,
    ScalarRef,
    Stmt,
    UnaryOp,
)
from repro.lang.parser import parse_program
from repro.lang.printer import program_to_text
from repro.lang.programs import (
    gauss_program,
    heat2d_program,
    heat_program,
    jacobi_program,
    matmul_program,
    sor_program,
)

__all__ = [
    "Affine",
    "ArrayDecl",
    "ArrayRef",
    "Assign",
    "BinOp",
    "DoLoop",
    "Num",
    "Program",
    "ScalarRef",
    "Stmt",
    "UnaryOp",
    "parse_program",
    "program_to_text",
    "jacobi_program",
    "sor_program",
    "gauss_program",
    "matmul_program",
    "heat_program",
    "heat2d_program",
]
