"""Source programs for the benchmark and the guest surfaces they arrive in.

Every compile-stream request is one of these families, renamed by the
workload seed and spelled in one of the three front-end guests:

* ``dsl`` — the Fortran-style DSL text;
* ``python-ast`` — a ``@loop_nest``-decorated Python function, as text;
* ``json-ir`` — the ``repro-json-ir/1`` document, as JSON text.

The Python and JSON spellings are produced from the parsed DSL program,
so all three surfaces lower to the same IR (line numbers aside).  The
two heat stencils are the programs the stencil code-generator tests use,
and :func:`chain_source` is the X11 bench's synthetic loop sequence;
they are spelled out here so the benchmark imports nothing but the
package.
"""

from __future__ import annotations

import json
import re

from repro.lang.ast import ArrayRef, BinOp, Call, DoLoop, Num, ScalarRef, UnaryOp
from repro.lang.parser import parse_program
from repro.lang.programs import GAUSS_SOURCE, JACOBI_SOURCE, MATMUL_SOURCE, SOR_SOURCE
from repro.service.guests import program_to_json

HEAT_SOURCE = """\
PROGRAM heat
PARAM m, steps
SCALAR alpha
ARRAY Unew(m), Uold(m)
DO t = 1, steps
  DO i = 2, m - 1
    Unew(i) = Uold(i) + alpha * (Uold(i - 1) - 2 * Uold(i) + Uold(i + 1))
  END DO
  DO i = 2, m - 1
    Uold(i) = Unew(i)
  END DO
END DO
END
"""

HEAT2D_SOURCE = """\
PROGRAM heat2d
PARAM m, steps
SCALAR alpha
ARRAY Unew(m, m), Uold(m, m)
DO t = 1, steps
  DO i = 2, m - 1
    DO j = 2, m - 1
      Unew(i, j) = Uold(i, j) + alpha * (Uold(i - 1, j) + Uold(i + 1, j) + Uold(i, j - 1) + Uold(i, j + 1) - 4 * Uold(i, j))
    END DO
  END DO
  DO i = 2, m - 1
    DO j = 2, m - 1
      Uold(i, j) = Unew(i, j)
    END DO
  END DO
END DO
END
"""


def chain_source(s: int) -> str:
    """``s`` elementwise loops chained through ``s + 1`` vectors: the
    loop sequence whose Algorithm 1 table grows as ``s**2``."""
    arrays = ", ".join(f"V{idx}(m)" for idx in range(s + 1))
    lines = [f"PROGRAM chain{s}", "PARAM m, t", f"ARRAY {arrays}", "DO k = 1, t"]
    for idx in range(s):
        lines += [
            "  DO i = 1, m",
            f"    V{idx + 1}(i) = V{idx + 1}(i) + V{idx}(i)",
            "  END DO",
        ]
    lines += ["END DO", "END"]
    return "\n".join(lines) + "\n"


#: family -> DSL source.  ``chain<S>`` families are generated on demand.
SOURCES = {
    "jacobi": JACOBI_SOURCE,
    "sor": SOR_SOURCE,
    "gauss": GAUSS_SOURCE,
    "matmul": MATMUL_SOURCE,
    "heat": HEAT_SOURCE,
    "heat2d": HEAT2D_SOURCE,
}

GUESTS = ("dsl", "python-ast", "json-ir")


def family_source(family: str) -> str:
    if family.startswith("chain"):
        return chain_source(int(family[len("chain"):]))
    return SOURCES[family]


def rename(source: str, suffix: str) -> tuple[str, dict[str, str]]:
    """Append *suffix* to every declared name (loop indices are kept).

    Returns the renamed DSL text and the old -> new name map.  A suffix
    such as ``_k3f`` keeps renamed names clear of the local variable
    names the code generators emit (``A``, ``b``, ``m``, ``n``).
    """
    program = parse_program(source)
    names = [program.name, *program.arrays, *program.params, *program.scalars]
    mapping = {name: name + suffix for name in names}
    return substitute(source, mapping), mapping


def substitute(text: str, mapping: dict[str, str]) -> str:
    """Replace whole-word identifiers of *text* through *mapping*."""
    if not mapping:
        return text
    pattern = re.compile(
        r"\b(" + "|".join(map(re.escape, sorted(mapping, key=len, reverse=True))) + r")\b"
    )
    return pattern.sub(lambda match: mapping[match.group(1)], text)


def _py_expr(expr) -> str:
    if isinstance(expr, Num):
        return repr(expr.value)
    if isinstance(expr, ScalarRef):
        return expr.name
    if isinstance(expr, ArrayRef):
        return f"{expr.name}[{', '.join(str(s) for s in expr.subscripts)}]"
    if isinstance(expr, UnaryOp):
        return f"{expr.op}({_py_expr(expr.operand)})"
    if isinstance(expr, BinOp):
        return f"({_py_expr(expr.left)} {expr.op} {_py_expr(expr.right)})"
    if isinstance(expr, Call):
        return f"{expr.name}({', '.join(_py_expr(a) for a in expr.args)})"
    raise TypeError(f"no Python spelling for {expr!r}")


def _py_stmts(stmts, depth: int) -> list[str]:
    pad = "    " * depth
    lines = []
    for stmt in stmts:
        if isinstance(stmt, DoLoop):
            stop = f"{stmt.ub} + 1" if stmt.step > 0 else f"{stmt.ub} - 1"
            step = f", {stmt.step}" if stmt.step != 1 else ""
            lines.append(f"{pad}for {stmt.var} in range({stmt.lb}, {stop}{step}):")
            lines.extend(_py_stmts(stmt.body, depth + 1))
        else:
            lines.append(f"{pad}{_py_expr(stmt.lhs)} = {_py_expr(stmt.rhs)}")
    return lines


def python_surface(source: str) -> str:
    """The ``python-ast`` guest spelling of a DSL program, as source text."""
    program = parse_program(source)
    arrays = ", ".join(str(decl) for decl in program.arrays.values())
    header = (
        f'@loop_nest(params="{", ".join(program.params)}", arrays="{arrays}", '
        f'scalars="{", ".join(program.scalars)}", name="{program.name}")'
    )
    lines = [header, f"def {program.name}():"]
    lines.extend(_py_stmts(program.body, 1))
    return "\n".join(lines) + "\n"


def json_surface(source: str) -> str:
    """The ``json-ir`` guest spelling of a DSL program, as JSON text."""
    return json.dumps(program_to_json(parse_program(source)))


def surface(source: str, guest: str) -> str:
    if guest == "dsl":
        return source
    if guest == "python-ast":
        return python_surface(source)
    if guest == "json-ir":
        return json_surface(source)
    raise ValueError(f"unknown guest {guest!r}")
