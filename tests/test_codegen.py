"""Code generation tests: recognizers, emitted source, end-to-end runs."""

from __future__ import annotations

import numpy as np
import pytest

from repro.codegen import (
    GaussPattern,
    IterativeSolvePattern,
    generate_spmd,
    load_generated,
    match_gauss,
    match_iterative_solve,
)
from repro.errors import CodegenError
from repro.kernels import gauss_seq, jacobi_seq, make_spd_system, sor_seq
from repro.lang import gauss_program, jacobi_program, matmul_program, parse_program, sor_program
from repro.machine import MachineModel, Ring, run_spmd

MODEL = MachineModel(tf=1, tc=10)


class TestRecognizers:
    def test_jacobi_recognized(self):
        pat = match_iterative_solve(jacobi_program())
        assert pat is not None
        assert pat.kind == "jacobi"
        assert (pat.A, pat.V, pat.B, pat.X) == ("A", "V", "B", "X")
        assert pat.omega is None

    def test_sor_recognized(self):
        pat = match_iterative_solve(sor_program())
        assert pat is not None
        assert pat.kind == "sor" and pat.omega == "omega"

    def test_renamed_arrays_recognized(self):
        """The recognizer keys on structure, not names."""
        src = jacobi_program()
        text = (
            "PROGRAM other\nPARAM size, steps\n"
            "ARRAY Mat(size, size), Acc(size), Rhs(size), Sol(size)\n"
            "DO it = 1, steps\n"
            "  DO r = 1, size\n    Acc(r) = 0.0\n    DO c = 1, size\n"
            "      Acc(r) = Acc(r) + Mat(r, c) * Sol(c)\n    END DO\n  END DO\n"
            "  DO r = 1, size\n    Sol(r) = Sol(r) + (Rhs(r) - Acc(r)) / Mat(r, r)\n  END DO\n"
            "END DO\nEND\n"
        )
        pat = match_iterative_solve(parse_program(text))
        assert pat is not None
        assert pat.A == "Mat" and pat.X == "Sol" and pat.m == "size"

    def test_gauss_recognized(self):
        pat = match_gauss(gauss_program())
        assert pat is not None
        assert (pat.A, pat.L, pat.B, pat.V, pat.X) == ("A", "L", "B", "V", "X")

    def test_matmul_not_an_iterative_solve(self):
        assert match_iterative_solve(matmul_program()) is None
        assert match_gauss(matmul_program()) is None

    def test_matmul_recognized(self):
        from repro.codegen import match_matmul

        pat = match_matmul(matmul_program())
        assert pat is not None
        assert (pat.out, pat.left, pat.right, pat.n) == ("A", "B", "C", "n")

    def test_matmul_transposed_operand_rejected(self):
        from repro.codegen import match_matmul
        from repro.lang import parse_program

        text = (
            "PROGRAM t\nPARAM n\nARRAY A(n, n), B(n, n), C(n, n)\n"
            "DO i = 1, n\n  DO j = 1, n\n    A(i, j) = 0.0\n    DO k = 1, n\n"
            "      A(i, j) = A(i, j) + B(k, i) * C(k, j)\n    END DO\n  END DO\nEND DO\nEND\n"
        )
        assert match_matmul(parse_program(text)) is None

    def test_perturbed_jacobi_rejected(self):
        """Changing the update denominator breaks the pattern."""
        text = (
            "PROGRAM t\nPARAM m, it\nARRAY A(m, m), V(m), B(m), X(m)\n"
            "DO k = 1, it\n"
            "  DO i = 1, m\n    V(i) = 0.0\n    DO j = 1, m\n"
            "      V(i) = V(i) + A(i, j) * X(j)\n    END DO\n  END DO\n"
            "  DO i = 1, m\n    X(i) = X(i) + (B(i) - V(i)) / A(i, 1)\n  END DO\n"
            "END DO\nEND\n"
        )
        assert match_iterative_solve(parse_program(text)) is None

    def test_mismatched_accumulator_rejected(self):
        text = (
            "PROGRAM t\nPARAM m, it\nARRAY A(m, m), V(m), W(m), B(m), X(m)\n"
            "DO k = 1, it\n"
            "  DO i = 1, m\n    V(i) = 0.0\n    DO j = 1, m\n"
            "      V(i) = V(i) + A(i, j) * X(j)\n    END DO\n  END DO\n"
            "  DO i = 1, m\n    X(i) = X(i) + (B(i) - W(i)) / A(i, i)\n  END DO\n"
            "END DO\nEND\n"
        )
        assert match_iterative_solve(parse_program(text)) is None

    def test_gauss_without_back_substitution_rejected(self):
        text = (
            "PROGRAM t\nPARAM m\nARRAY A(m, m), L(m, m), B(m)\n"
            "DO k = 1, m\n  DO i = k + 1, m\n"
            "    L(i, k) = A(i, k) / A(k, k)\n"
            "    B(i) = B(i) - L(i, k) * B(k)\n"
            "    DO j = k + 1, m\n      A(i, j) = A(i, j) - L(i, k) * A(k, j)\n    END DO\n"
            "  END DO\nEND DO\nEND\n"
        )
        assert match_gauss(parse_program(text)) is None


class TestGeneration:
    def test_unknown_program_raises(self):
        from repro.lang import parse_program

        transpose = parse_program(
            "PROGRAM t\nPARAM n\nARRAY A(n, n), B(n, n)\n"
            "DO i = 1, n\nDO j = 1, n\nA(i, j) = B(j, i)\nEND DO\nEND DO\nEND\n"
        )
        with pytest.raises(CodegenError):
            generate_spmd(transpose)

    def test_matmul_generates_cannon(self):
        gen = generate_spmd(matmul_program())
        assert gen.strategy == "cannon"
        assert "shift(p, B_loc" in gen.source

    def test_matmul_cannon_runs(self, rng):
        from repro.machine import Grid2D

        gen = generate_spmd(matmul_program())
        fn = load_generated(gen)
        n, q = 12, 3
        B = rng.random((n, n))
        C = rng.random((n, n))
        res = run_spmd(fn, Grid2D(q, q), MODEL, args=({"B": B, "C": C},))
        np.testing.assert_allclose(res.value(0), B @ C, atol=1e-10)
        assert all(v is None for v in res.values[1:])

    def test_strategy_mismatch_raises(self):
        with pytest.raises(CodegenError):
            generate_spmd(sor_program(), strategy="bogus")

    def test_jacobi_default_strategy(self):
        assert generate_spmd(jacobi_program()).strategy == "data-parallel"

    def test_sor_default_strategy(self):
        assert generate_spmd(sor_program()).strategy == "ring-pipeline"

    def test_gauss_pipeline_justified_by_analysis(self):
        gen = generate_spmd(gauss_program())
        assert gen.strategy == "cyclic-pipeline"

    def test_source_is_valid_python(self):
        for program in (jacobi_program(), sor_program(), gauss_program()):
            gen = generate_spmd(program)
            compile(gen.source, "<test>", "exec")

    def test_source_references_pattern_names(self):
        gen = generate_spmd(jacobi_program())
        assert "env['A']" in gen.source and "env['B']" in gen.source

    def test_env_keys(self):
        gen = generate_spmd(sor_program())
        assert set(gen.env_keys()) == {"A", "B", "X0", "iterations", "omega"}
        gen2 = generate_spmd(gauss_program())
        assert set(gen2.env_keys()) == {"A", "B"}


class TestGeneratedExecution:
    @pytest.mark.parametrize("nprocs", [1, 2, 4])
    def test_jacobi_runs_and_matches(self, medium_system, nprocs):
        A, b, _ = medium_system
        fn = load_generated(generate_spmd(jacobi_program()))
        env = {"A": A, "B": b, "X0": np.zeros(32), "iterations": 12}
        res = run_spmd(fn, Ring(nprocs), MODEL, args=(env,))
        np.testing.assert_allclose(
            res.value(0), jacobi_seq(A, b, np.zeros(32), 12), atol=1e-12
        )

    @pytest.mark.parametrize("nprocs", [1, 2, 4, 8])
    def test_sor_runs_and_matches(self, medium_system, nprocs):
        A, b, _ = medium_system
        fn = load_generated(generate_spmd(sor_program()))
        env = {"A": A, "B": b, "X0": np.zeros(32), "iterations": 6, "omega": 1.15}
        res = run_spmd(fn, Ring(nprocs), MODEL, args=(env,))
        np.testing.assert_allclose(
            res.value(0), sor_seq(A, b, np.zeros(32), 1.15, 6), atol=1e-12
        )

    @pytest.mark.parametrize("strategy", ["cyclic-pipeline", "cyclic-multicast"])
    def test_gauss_runs_and_matches(self, medium_system, strategy):
        A, b, _ = medium_system
        fn = load_generated(generate_spmd(gauss_program(), strategy=strategy))
        res = run_spmd(fn, Ring(4), MODEL, args=({"A": A, "B": b},))
        np.testing.assert_allclose(res.value(0), gauss_seq(A, b), atol=1e-9)

    def test_generated_matches_handwritten_timing(self, medium_system):
        """Generated and hand-written kernels produce identical simulated
        times — they implement the same schedule."""
        from repro.kernels import sor_pipelined

        A, b, _ = medium_system
        fn = load_generated(generate_spmd(sor_program()))
        env = {"A": A, "B": b, "X0": np.zeros(32), "iterations": 4, "omega": 1.0}
        t_gen = run_spmd(fn, Ring(4), MODEL, args=(env,)).makespan
        t_hand = run_spmd(
            sor_pipelined, Ring(4), MODEL, args=(A, b, np.zeros(32), 1.0, 4)
        ).makespan
        assert t_gen == t_hand

    def test_renamed_program_generates_and_runs(self):
        text = (
            "PROGRAM other\nPARAM size, steps\n"
            "ARRAY Mat(size, size), Acc(size), Rhs(size), Sol(size)\n"
            "DO it = 1, steps\n"
            "  DO r = 1, size\n    Acc(r) = 0.0\n    DO c = 1, size\n"
            "      Acc(r) = Acc(r) + Mat(r, c) * Sol(c)\n    END DO\n  END DO\n"
            "  DO r = 1, size\n    Sol(r) = Sol(r) + (Rhs(r) - Acc(r)) / Mat(r, r)\n  END DO\n"
            "END DO\nEND\n"
        )
        gen = generate_spmd(parse_program(text))
        fn = load_generated(gen)
        A, b, _ = make_spd_system(16, seed=3)
        env = {"Mat": A, "Rhs": b, "X0": np.zeros(16), "iterations": 10}
        res = run_spmd(fn, Ring(4), MODEL, args=(env,))
        np.testing.assert_allclose(
            res.value(0), jacobi_seq(A, b, np.zeros(16), 10), atol=1e-12
        )


class TestRunTimePreconditions:
    """Run-time preconditions of generated code are typed errors, never
    bare ``assert``s, so ``python -O`` cannot change what a plan does."""

    def test_no_emitted_source_contains_assert(self):
        import re

        from repro.codegen import RedistMove, emit_redistribution_program, emit_sparse_spmv
        from repro.distribution.function import Kind
        from repro.distribution.schemes import ArrayPlacement
        from repro.lang import heat2d_program, heat_program

        generated = [
            generate_spmd(jacobi_program()),
            generate_spmd(sor_program()),
            generate_spmd(matmul_program()),
            generate_spmd(gauss_program(), strategy="cyclic-pipeline"),
            generate_spmd(gauss_program(), strategy="cyclic-multicast"),
            emit_sparse_spmv(4),
            emit_redistribution_program(
                [RedistMove("T", ArrayPlacement("T", (1,), kinds=(Kind.BLOCK,)),
                            ArrayPlacement("T", (None,), kinds=(Kind.BLOCK,), rest="replicated"), (16,))],
                (4, 1),
            ),
        ]
        for program in (heat_program(), heat2d_program()):
            generated += [generate_spmd(program), generate_spmd(program, strategy="stencil-overlap")]
        strategies = {gen.strategy for gen in generated}
        assert {"data-parallel", "ring-pipeline", "cannon", "cyclic-pipeline", "cyclic-multicast",
                "stencil", "stencil-2d", "stencil-overlap"} <= strategies
        for gen in generated:
            assert not re.search(r"\bassert\b", gen.source), gen.strategy

    def test_python_O_keeps_typed_errors_and_uneven_stencils(self):
        """Under -O: SOR at m=30, N=8 raises MachineError (not a deadlock),
        and heat at m=30, N=8 still matches the sequential reference."""
        import os
        import pathlib
        import subprocess
        import sys

        import repro

        script = (
            "import numpy as np\n"
            "from repro.codegen import generate_spmd, load_generated\n"
            "from repro.errors import MachineError\n"
            "from repro.kernels import make_spd_system\n"
            "from repro.lang import heat_program, sor_program\n"
            "from repro.machine import MachineModel, Ring, run_spmd\n"
            "from tests.stencil_cases import heat_reference\n"
            "assert False, 'asserts are stripped'\n"
            "A, b, _ = make_spd_system(30, seed=1)\n"
            "env = {'A': A, 'B': b, 'X0': np.zeros(30), 'iterations': 1, 'omega': 1.0}\n"
            "try:\n"
            "    run_spmd(load_generated(generate_spmd(sor_program())), Ring(8), MachineModel(), args=(env,))\n"
            "except MachineError as err:\n"
            "    print('sor:', type(err).__name__, err)\n"
            "u0 = np.random.default_rng(0).random(30)\n"
            "env = {'m': 30, 'steps': 4, 'alpha': 0.2, 'Unew': np.zeros(30), 'Uold': u0.copy()}\n"
            "res = run_spmd(load_generated(generate_spmd(heat_program())), Ring(8), MachineModel(), args=(env,))\n"
            "print('heat:', np.allclose(res.value(0)['Uold'], heat_reference(u0, 0.2, 4), atol=1e-12, rtol=0))\n"
        )
        root = pathlib.Path(repro.__file__).resolve().parents[2]
        out = subprocess.run(
            [sys.executable, "-O", "-c", script],
            cwd=root, env={**os.environ, "PYTHONPATH": f"{root / 'src'}:{root}"},
            capture_output=True, text=True, timeout=120,
        )
        assert out.returncode == 0, out.stderr
        assert "sor: MachineError pipelined SOR needs N | m, got m=30, N=8" in out.stdout
        assert "heat: True" in out.stdout
