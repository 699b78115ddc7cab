"""X7 — §1's opening claim, quantified: neighbor communication beats
replication when dependences are local.

"If dependent data only influence neighboring data, an efficient
component-alignment algorithm can be used to partition and distribute
data arrays ... If dependent data influence a large number of data, then
broadcasting techniques or pipelining techniques are used."

We compare the generated halo-exchange stencil program against a naive
variant that re-replicates the whole array every step (ManyToMany
allgather — what a compiler would do without the locality analysis).
Halo traffic is O(1) words per processor per step; replication is O(m):
the gap must grow linearly in m/N.
"""

from __future__ import annotations

import numpy as np

from repro.codegen import generate_spmd, load_generated
from repro.lang import heat_program
from repro.machine import MachineModel, Ring, run_spmd
from repro.machine.collectives import allgather
from repro.util.tables import Table

MODEL = MachineModel(tf=1, tc=10)


def replicated_stencil(p, env):
    """Naive lowering: allgather the whole array every step."""
    m = int(env["m"])
    n = p.nprocs
    alpha = float(env["alpha"])
    cnt = m // n
    lo = p.rank * cnt
    hi = lo + cnt
    u = np.asarray(env["Uold"], dtype=np.float64).copy()
    group = tuple(range(n))
    for _ in range(int(env["steps"])):
        g_lo = max(2, lo + 1)
        g_hi = min(m - 1, hi)
        s0, s1 = g_lo - 1, g_hi
        new_block = u[lo:hi].copy()
        if s1 > s0:
            new_block[s0 - lo : s1 - lo] = u[s0:s1] + alpha * (
                u[s0 - 1 : s1 - 1] - 2 * u[s0:s1] + u[s0 + 1 : s1 + 1]
            )
            p.compute(4 * (s1 - s0), label="sweep")
        blocks = yield from allgather(p, new_block, group)
        u = np.concatenate([np.atleast_1d(b) for b in blocks])
    return {"Uold": u}


def sweep():
    gen = generate_spmd(heat_program())
    halo_fn = load_generated(gen)
    rows = []
    for m, n in [(64, 4), (128, 8), (256, 8), (256, 16)]:
        # Enough steps that per-step traffic dominates the one-time final
        # result collection (identical in both variants).
        steps = 16
        u0 = np.random.default_rng(m).random(m)
        env = {"m": m, "steps": steps, "alpha": 0.2,
               "Unew": np.zeros(m), "Uold": u0}
        r_halo = run_spmd(halo_fn, Ring(n), MODEL, args=(dict(env),))
        r_repl = run_spmd(replicated_stencil, Ring(n), MODEL, args=(dict(env),))
        same = np.allclose(r_halo.value(0)["Uold"], r_repl.value(0)["Uold"])
        rows.append(
            (m, n, r_halo.makespan, r_repl.makespan,
             r_halo.message_words, r_repl.message_words, same)
        )
    return rows


def test_x7_halo_vs_replication(benchmark, emit, record):
    rows = benchmark(sweep)
    for m, n, t_h, t_r, w_h, w_r, _same in rows:
        record(
            f"halo-m{m}-N{n}",
            makespan=t_h,
            message_words=w_h,
            extra={"t_replicate": t_r, "w_replicate": w_r},
        )
    table = Table(
        ["m", "N", "halo T", "replicate T", "halo words", "replicate words", "speedup"],
        title="X7 — stencil: neighbor halo exchange vs whole-array replication",
    )
    for m, n, t_h, t_r, w_h, w_r, same in rows:
        table.add_row(
            [m, n, f"{t_h:g}", f"{t_r:g}", w_h, w_r, f"{t_r / t_h:.2f}x"]
        )
    emit("x7_stencil_halo", table.render())

    speedups = {}
    for m, n, t_h, t_r, w_h, w_r, same in rows:
        assert same, (m, n)
        assert t_h < t_r, (m, n)
        assert w_h < w_r, (m, n)
        speedups[(m, n)] = t_r / t_h
    # The replication penalty grows with problem size at fixed N...
    assert speedups[(256, 8)] > speedups[(128, 8)]
    # ...and the gap is large once per-step traffic dominates: halo moves
    # O(1) words per processor-step, replication O(m).
    assert speedups[(256, 16)] > 2.0
    by_key = {(m, n): (w_h, w_r) for m, n, _t, _t2, w_h, w_r, _s in rows}
    w_h, w_r = by_key[(256, 8)]
    assert w_r > 2.5 * w_h
