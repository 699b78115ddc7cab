"""One table of stencil-recognizer inputs, plus sequential references.

Every case is a program and what :func:`repro.codegen.stencil.match_stencil`
must make of it: ``None`` for a refusal, otherwise the attributes the
recognized :class:`~repro.codegen.stencil.StencilPattern` must have
(``halo`` is the exchanged dimension 0, ``col_halo`` the local dimension
1; dict expectations are checked on the named arrays only).
"""

from __future__ import annotations

import numpy as np

from repro.codegen.stencil import match_stencil
from repro.lang import (
    gauss_program,
    heat2d_program,
    heat_program,
    jacobi_program,
    matmul_program,
    parse_program,
)

CASES: dict[str, tuple] = {
    # -- rank 1 ---------------------------------------------------------
    "heat": (
        heat_program,
        {"rank": 1, "time_param": "steps", "size_param": "m",
         "halo": {"Uold": (1, 1), "Unew": (0, 0)}},
    ),
    "single-application": (
        "PROGRAM t\nPARAM m\nARRAY U(m), W(m)\n"
        "DO i = 2, m - 1\nU(i) = W(i - 1) + W(i + 1)\nEND DO\nEND\n",
        {"rank": 1, "time_param": None, "halo": {"W": (1, 1)}},
    ),
    # In-place U(i) from U(i-1) carries a dependence: not parallel.
    "gauss-seidel-inplace": (
        "PROGRAM gs\nPARAM m\nARRAY U(m)\nDO i = 2, m\nU(i) = U(i - 1)\nEND DO\nEND\n",
        None,
    ),
    "off-owner-write": (
        "PROGRAM t\nPARAM m\nARRAY U(m), W(m)\n"
        "DO i = 1, m - 1\nU(i + 1) = W(i)\nEND DO\nEND\n",
        None,
    ),
    # A 2-D array swept by one loop with a constant column: not a nest.
    "2d-array-single-loop": (
        "PROGRAM t\nPARAM m\nARRAY A(m, m)\nDO i = 1, m\nA(i, 1) = 0.0\nEND DO\nEND\n",
        None,
    ),
    "reversed-loop": (
        "PROGRAM t\nPARAM m\nARRAY U(m), W(m)\nDO i = m, 1, -1\nU(i) = W(i)\nEND DO\nEND\n",
        None,
    ),
    # Every other time step: ``range(steps)`` would run them all.
    "strided-time-loop": (
        "PROGRAM t\nPARAM m, steps\nARRAY U(m), W(m)\nDO t = 1, steps, 2\n"
        "DO i = 2, m - 1\nU(i) = W(i - 1)\nEND DO\nDO i = 2, m - 1\nW(i) = U(i)\nEND DO\nEND DO\nEND\n",
        None,
    ),
    "second-size-param": (
        "PROGRAM t\nPARAM m, k\nARRAY U(m), W(m)\nDO i = 2, k\nU(i) = W(i - 1)\nEND DO\nEND\n",
        None,
    ),
    "extent-not-a-size-param": (
        "PROGRAM t\nPARAM m\nARRAY U(m), W(m + 2)\nDO i = 2, m\nU(i) = W(i - 1)\nEND DO\nEND\n",
        None,
    ),
    # -- rank 2 ---------------------------------------------------------
    "heat2d": (
        heat2d_program,
        {"rank": 2, "time_param": "steps", "size_param": "m",
         "halo": {"Uold": (1, 1), "Unew": (0, 0)}, "col_halo": {"Uold": (1, 1)}},
    ),
    # Row halo 2 upward only; columns reach 3 to the right.
    "anisotropic": (
        "PROGRAM a\nPARAM m\nARRAY U(m, m), W(m, m)\n"
        "DO i = 3, m\nDO j = 1, m - 3\nU(i, j) = W(i - 2, j + 3)\nEND DO\nEND DO\nEND\n",
        {"rank": 2, "time_param": None, "halo": {"W": (2, 0)}, "col_halo": {"W": (0, 3)}},
    ),
    "jacobi": (jacobi_program, None),
    "gauss": (gauss_program, None),
    "matmul": (matmul_program, None),
    "row-dependent": (
        "PROGRAM t\nPARAM m\nARRAY U(m, m)\n"
        "DO i = 2, m\nDO j = 1, m\nU(i, j) = U(i - 1, j)\nEND DO\nEND DO\nEND\n",
        None,
    ),
    "transpose": (
        "PROGRAM t\nPARAM m\nARRAY U(m, m), W(m, m)\n"
        "DO i = 1, m\nDO j = 1, m\nU(i, j) = W(j, i)\nEND DO\nEND DO\nEND\n",
        None,
    ),
    "triangular-inner-bounds": (
        "PROGRAM t\nPARAM m\nARRAY U(m, m), W(m, m)\n"
        "DO i = 1, m\nDO j = i, m\nU(i, j) = W(i, j)\nEND DO\nEND DO\nEND\n",
        None,
    ),
    "mixed-ranks": (
        "PROGRAM t\nPARAM m\nARRAY U(m, m), W(m)\n"
        "DO i = 1, m\nDO j = 1, m\nU(i, j) = W(i)\nEND DO\nEND DO\nEND\n",
        None,
    ),
}


def program_of(name: str):
    source, _expected = CASES[name]
    return source() if callable(source) else parse_program(source)


def check_case(name: str):
    """Run the recognizer on case *name*; return the pattern (or None)."""
    _source, expected = CASES[name]
    pattern = match_stencil(program_of(name))
    if expected is None:
        assert pattern is None, name
        return None
    assert pattern is not None, name
    for attr, want in expected.items():
        got = getattr(pattern, attr)
        if isinstance(want, dict):
            got = {key: got[key] for key in want}
        assert got == want, (name, attr, got)
    return pattern


def heat_reference(u0: np.ndarray, alpha: float, steps: int) -> np.ndarray:
    """Sequential 1-D heat stepper (Dirichlet ends)."""
    u = u0.copy()
    m = len(u)
    for _ in range(steps):
        new = u.copy()
        new[1 : m - 1] = u[1 : m - 1] + alpha * (
            u[: m - 2] - 2 * u[1 : m - 1] + u[2:]
        )
        u = new
    return u


def heat2d_reference(u0: np.ndarray, alpha: float, steps: int) -> np.ndarray:
    """Sequential 2-D five-point heat stepper (Dirichlet edges)."""
    u = u0.copy()
    m = u.shape[0]
    for _ in range(steps):
        new = u.copy()
        new[1 : m - 1, 1 : m - 1] = u[1 : m - 1, 1 : m - 1] + alpha * (
            u[: m - 2, 1 : m - 1]
            + u[2:, 1 : m - 1]
            + u[1 : m - 1, : m - 2]
            + u[1 : m - 1, 2:]
            - 4 * u[1 : m - 1, 1 : m - 1]
        )
        u = new
    return u
