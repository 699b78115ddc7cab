"""2-D stencil lowering tests (row blocks + halo-row exchange)."""

from __future__ import annotations

import numpy as np
import pytest

from repro.codegen import generate_spmd, load_generated
from repro.lang import heat2d_program
from repro.machine import MachineModel, Ring, run_spmd
from tests.stencil_cases import check_case, heat2d_reference, program_of

MODEL = MachineModel(tf=1, tc=10)


class TestRecognition:
    """Named rows of the shared recognizer table (tests/stencil_cases.py)."""

    def test_heat2d_recognized(self):
        check_case("heat2d")

    def test_paper_programs_not_swallowed(self):
        for name in ("jacobi", "gauss", "matmul"):
            check_case(name)

    def test_row_dependent_sweep_rejected(self):
        check_case("row-dependent")

    def test_transpose_rejected(self):
        check_case("transpose")

    def test_triangular_inner_bounds_rejected(self):
        check_case("triangular-inner-bounds")


class TestExecution:
    @pytest.mark.parametrize("nprocs", [1, 2, 4, 8])
    def test_heat2d_matches_reference(self, nprocs):
        m, steps, alpha = 16, 8, 0.1
        rng = np.random.default_rng(7)
        u0 = rng.random((m, m))
        gen = generate_spmd(heat2d_program())
        assert gen.strategy == "stencil-2d"
        fn = load_generated(gen)
        env = {"m": m, "steps": steps, "alpha": alpha,
               "Unew": np.zeros((m, m)), "Uold": u0.copy()}
        res = run_spmd(fn, Ring(nprocs), MODEL, args=(env,))
        expected = heat2d_reference(u0, alpha, steps)
        for rank in range(nprocs):
            np.testing.assert_allclose(res.value(rank)["Uold"], expected, atol=1e-12)

    def test_halo_rows_only(self):
        """Each exchanged message is a full halo *row* (m words), and only
        the read array's halos travel."""
        m = 16
        gen = generate_spmd(heat2d_program())
        fn = load_generated(gen)
        u0 = np.zeros((m, m))
        env = {"m": m, "steps": 1, "alpha": 0.1,
               "Unew": np.zeros((m, m)), "Uold": u0}
        res = run_spmd(fn, Ring(4), MODEL, args=(env,))
        # Per step: 4 procs x 2 directions x 1 row of m words (Uold only)
        # plus the final allgathers.
        halo_words = 4 * 2 * m  # 4 procs x 2 directions x 1 row (Uold only)
        # Two ring allgathers: each of the 4 procs forwards 3 blocks of
        # (m/4) x m words per array.
        gather_words = 2 * 4 * 3 * (m // 4) * m
        assert res.message_words == halo_words + gather_words

    def test_anisotropic_offsets(self):
        """Row halo 2 upward only; columns reach 3 to the right."""
        check_case("anisotropic")
        fn = load_generated(generate_spmd(program_of("anisotropic")))
        m = 12
        w0 = np.random.default_rng(1).random((m, m))
        env = {"m": m, "U": np.zeros((m, m)), "W": w0}
        res = run_spmd(fn, Ring(4), MODEL, args=(env,))
        expected = np.zeros((m, m))
        expected[2:m, 0 : m - 3] = w0[0 : m - 2, 3:m]
        np.testing.assert_allclose(res.value(0)["U"], expected, atol=1e-12)
