"""The paper's example programs, transcribed in the DSL.

Each factory parses the DSL source fresh so callers can mutate the returned
IR freely.  The sources follow the paper's listings:

* :func:`jacobi_program` — §3, Jacobi's iterative algorithm for ``A x = b``;
* :func:`sor_program` — §5, successive over-relaxation;
* :func:`gauss_program` — §6, Gauss elimination + back-substitution;
* :func:`matmul_program` — §2.1, the matrix product ``A = B * C`` used to
  motivate Cannon-style skewed distributions (Fig 1);
* :func:`heat_program` / :func:`heat2d_program` — explicit 1-D and 2-D
  heat-diffusion time steppers, the §1 "dependent data only influence
  neighboring data" case that the stencil lowering compiles.
"""

from __future__ import annotations

from repro.lang.ast import Program
from repro.lang.parser import parse_program

JACOBI_SOURCE = """\
PROGRAM jacobi
PARAM m, maxiter
ARRAY A(m, m), V(m), B(m), X(m)
DO k = 1, maxiter
  DO i = 1, m
    V(i) = 0.0
    DO j = 1, m
      V(i) = V(i) + A(i, j) * X(j)
    END DO
  END DO
  DO i = 1, m
    X(i) = X(i) + (B(i) - V(i)) / A(i, i)
  END DO
END DO
END
"""

SOR_SOURCE = """\
PROGRAM sor
PARAM m, maxiter
SCALAR omega
ARRAY A(m, m), V(m), B(m), X(m)
DO k = 1, maxiter
  DO i = 1, m
    V(i) = 0.0
    DO j = 1, m
      V(i) = V(i) + A(i, j) * X(j)
    END DO
    X(i) = X(i) + omega * (B(i) - V(i)) / A(i, i)
  END DO
END DO
END
"""

GAUSS_SOURCE = """\
PROGRAM gauss
PARAM m
ARRAY A(m, m), L(m, m), B(m), V(m), X(m)
{* Matrix triangularization. *}
DO k = 1, m
  DO i = k + 1, m
    L(i, k) = A(i, k) / A(k, k)
    B(i) = B(i) - L(i, k) * B(k)
    DO j = k + 1, m
      A(i, j) = A(i, j) - L(i, k) * A(k, j)
    END DO
  END DO
END DO
{* Triangular linear system U X = Y. *}
DO i = m, 1, -1
  V(i) = 0.0
END DO
DO j = m, 1, -1
  X(j) = (B(j) - V(j)) / A(j, j)
  DO i = j - 1, 1, -1
    V(i) = V(i) + A(i, j) * X(j)
  END DO
END DO
END
"""

MATMUL_SOURCE = """\
PROGRAM matmul
PARAM n
ARRAY A(n, n), B(n, n), C(n, n)
DO i = 1, n
  DO j = 1, n
    A(i, j) = 0.0
    DO k = 1, n
      A(i, j) = A(i, j) + B(i, k) * C(k, j)
    END DO
  END DO
END DO
END
"""

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


def jacobi_program() -> Program:
    """Jacobi's iterative algorithm (paper §3 listing, lines 1-10)."""
    return parse_program(JACOBI_SOURCE)


def sor_program() -> Program:
    """Successive over-relaxation (paper §5 listing, lines 1-9)."""
    return parse_program(SOR_SOURCE)


def gauss_program() -> Program:
    """Gauss elimination + back-substitution (paper §6 listing, lines 1-17)."""
    return parse_program(GAUSS_SOURCE)


def matmul_program() -> Program:
    """Three-nested-loop matrix multiplication A = B x C (paper §2)."""
    return parse_program(MATMUL_SOURCE)


def heat_program() -> Program:
    """1-D explicit heat diffusion, ``steps`` sweeps over ``m`` points (§1)."""
    return parse_program(HEAT_SOURCE)


def heat2d_program() -> Program:
    """2-D explicit heat diffusion (five-point stencil) on an ``m x m`` grid."""
    return parse_program(HEAT2D_SOURCE)
