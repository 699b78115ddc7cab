"""Generic stencil lowering tests (halo exchange + vectorized sweeps).

Recognition runs off the one table in :mod:`tests.stencil_cases`; the
execution tests cover rank 1 here and rank 2 in
``test_stencil2d_codegen.py``.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.codegen import generate_spmd, load_generated
from repro.codegen.stencil import match_stencil
from repro.errors import CodegenError, MachineError
from repro.lang import heat2d_program, heat_program, parse_program
from repro.machine import MachineModel, Ring, run_spmd
from tests.stencil_cases import CASES, check_case, heat2d_reference, heat_reference, program_of

MODEL = MachineModel(tf=1, tc=10)

WIDE = (
    "PROGRAM w\nPARAM m, steps\nARRAY U(m), W(m)\n"
    "DO t = 1, steps\n"
    "  DO i = 3, m - 2\n"
    "    U(i) = W(i - 2) + W(i + 2)\n  END DO\n"
    "  DO i = 3, m - 2\n    W(i) = U(i)\n  END DO\n"
    "END DO\nEND\n"
)


class TestRecognition:
    @pytest.mark.parametrize("name", sorted(CASES))
    def test_recognizer_table(self, name):
        """Every row: the recognizer's verdict, and generate_spmd routes
        accepted rows to the rank's stencil strategy and no other row to
        any stencil strategy."""
        pattern = check_case(name)
        try:
            gen = generate_spmd(program_of(name))
        except CodegenError:
            assert pattern is None, name
            return
        if pattern is None:
            assert not gen.strategy.startswith("stencil"), name
        else:
            assert gen.strategy == ("stencil" if pattern.rank == 1 else "stencil-2d")

    def test_heat_recognized(self):
        check_case("heat")

    def test_gauss_seidel_inplace_rejected(self):
        check_case("gauss-seidel-inplace")

    def test_off_owner_write_rejected(self):
        check_case("off-owner-write")

    def test_2d_arrays_rejected(self):
        check_case("2d-array-single-loop")

    def test_single_application_without_time_loop(self):
        check_case("single-application")

    def test_forced_strategy_must_fit_the_rank(self):
        with pytest.raises(CodegenError):
            generate_spmd(heat_program(), strategy="stencil-2d")
        with pytest.raises(CodegenError):
            generate_spmd(heat2d_program(), strategy="stencil")
        with pytest.raises(CodegenError):
            generate_spmd(heat_program(), strategy="cannon")


def _run(program, strategy, m, nprocs, steps, seed=0, model=MODEL):
    gen = generate_spmd(program, strategy=strategy)
    fn = load_generated(gen)
    shape = (m, m) if gen.pattern.rank == 2 else (m,)
    u0 = np.random.default_rng(seed).random(shape)
    env = {"m": m, "steps": steps, "alpha": 0.2,
           "Unew": np.zeros(shape), "Uold": u0.copy()}
    return u0, run_spmd(fn, Ring(nprocs), model, args=(env,))


class TestExecution:
    @pytest.mark.parametrize("nprocs", [1, 2, 4, 8])
    def test_heat_matches_reference(self, nprocs):
        m, steps, alpha = 32, 25, 0.25
        u0 = np.zeros(m)
        u0[m // 2] = 1.0
        gen = generate_spmd(heat_program())
        assert gen.strategy == "stencil"
        fn = load_generated(gen)
        env = {
            "m": m, "steps": steps, "alpha": alpha,
            "Unew": np.zeros(m), "Uold": u0,
        }
        res = run_spmd(fn, Ring(nprocs), MODEL, args=(env,))
        expected = heat_reference(u0, alpha, steps)
        for rank in range(nprocs):
            np.testing.assert_allclose(res.value(rank)["Uold"], expected, atol=1e-12)

    def test_halo_messages_scale_with_steps(self):
        gen = generate_spmd(heat_program())
        fn = load_generated(gen)
        m = 32
        u0 = np.random.default_rng(0).random(m)

        def msgs(steps, nprocs):
            env = {"m": m, "steps": steps, "alpha": 0.1,
                   "Unew": np.zeros(m), "Uold": u0.copy()}
            return run_spmd(fn, Ring(nprocs), MODEL, args=(env,)).message_count

        base = msgs(1, 4)
        assert msgs(2, 4) - base == base - msgs(0, 4)
        # Single processor: no halo traffic at all (only the final gather,
        # which is trivial on one rank).
        assert msgs(5, 1) == 0

    def test_wider_stencil(self):
        """A radius-2 stencil exchanges two-element halos."""
        program = parse_program(WIDE)
        pat = match_stencil(program)
        assert pat.halo["W"] == (2, 2)
        fn = load_generated(generate_spmd(program))
        m = 24
        w0 = np.arange(m, dtype=float)
        env = {"m": m, "steps": 3, "U": np.zeros(m), "W": w0.copy()}
        res = run_spmd(fn, Ring(4), MODEL, args=(env,))
        # Sequential reference.
        w = w0.copy()
        u = np.zeros(m)
        for _ in range(3):
            u[2 : m - 2] = w[: m - 4] + w[4:]
            w[2 : m - 2] = u[2 : m - 2]
        np.testing.assert_allclose(res.value(0)["W"], w, atol=1e-12)

    def test_narrow_blocks_raise_machine_error(self):
        """N need not divide m, but a block must be at least a halo wide:
        a radius-2 sweep at m=8 on 8 ranks is refused before any message."""
        fn = load_generated(generate_spmd(parse_program(WIDE)))
        env = {"m": 8, "steps": 1, "U": np.zeros(8), "W": np.arange(8.0)}
        with pytest.raises(MachineError, match="narrower than the 2-row halo"):
            run_spmd(fn, Ring(8), MODEL, args=(env,))

    def test_flops_accounted(self):
        gen = generate_spmd(heat_program())
        fn = load_generated(gen)
        m = 16
        env = {"m": m, "steps": 2, "alpha": 0.1,
               "Unew": np.zeros(m), "Uold": np.zeros(m)}
        res = run_spmd(fn, Ring(2), MODEL, args=(env,), trace=True)
        from repro.machine.trace import busy_time

        assert all(busy_time(lane) > 0 for lane in res.trace)


class TestUnevenBlocks:
    """Balanced blocks: N need not divide m (heat and heat2d, both forms)."""

    @settings(max_examples=12, deadline=None)
    @given(
        nprocs=st.integers(min_value=2, max_value=8),
        extra=st.integers(min_value=1, max_value=7),
        blocks=st.integers(min_value=1, max_value=4),
        overlap=st.booleans(),
    )
    def test_heat_matches_reference(self, nprocs, extra, blocks, overlap):
        m = blocks * nprocs + 1 + extra % (nprocs - 1)  # N does not divide m
        strategy = "stencil-overlap" if overlap else None
        u0, res = _run(heat_program(), strategy, m, nprocs, steps=4)
        expected = heat_reference(u0, 0.2, 4)
        for rank in range(nprocs):
            np.testing.assert_allclose(res.value(rank)["Uold"], expected, atol=1e-12)

    @settings(max_examples=8, deadline=None)
    @given(
        nprocs=st.integers(min_value=2, max_value=5),
        extra=st.integers(min_value=1, max_value=4),
        blocks=st.integers(min_value=1, max_value=3),
        overlap=st.booleans(),
    )
    def test_heat2d_matches_reference(self, nprocs, extra, blocks, overlap):
        m = blocks * nprocs + 1 + extra % (nprocs - 1)  # N does not divide m
        strategy = "stencil-overlap" if overlap else None
        u0, res = _run(heat2d_program(), strategy, m, nprocs, steps=3)
        expected = heat2d_reference(u0, 0.2, 3)
        for rank in range(nprocs):
            np.testing.assert_allclose(res.value(rank)["Uold"], expected, atol=1e-12)

    @pytest.mark.parametrize("program", [heat_program, heat2d_program])
    @pytest.mark.parametrize("strategy", [None, "stencil-overlap"])
    def test_blocks_narrower_than_the_halo_raise(self, program, strategy):
        """m < N leaves some blocks empty: refused, never wrong values."""
        with pytest.raises(MachineError, match="narrower than the 1-row halo"):
            _run(program(), strategy, m=5, nprocs=8, steps=1)

    def test_block_of_one_row_suffices_for_radius_one(self):
        u0, res = _run(heat_program(), None, m=9, nprocs=8, steps=3)
        np.testing.assert_allclose(res.value(0)["Uold"], heat_reference(u0, 0.2, 3), atol=1e-12)
