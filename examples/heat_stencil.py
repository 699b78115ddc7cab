"""Compiling a stencil sweep — the paper's "neighboring data" case (§1).

Run:  python examples/heat_stencil.py

The paper's opening classification: when dependent data only influence
*neighboring* data, component alignment plus Shift communication
suffices.  This example takes the explicit 1-D heat-diffusion time
stepper of :mod:`repro.lang.programs` (DSL source ``HEAT_SOURCE``), lets
the compiler recognize it as a parallel stencil sweep (verifying with the
dependence analyzer that nothing is carried), and runs the generated
halo-exchange SPMD program.
"""

from __future__ import annotations

import numpy as np

from repro import MachineModel, compile_program
from repro.lang.programs import HEAT_SOURCE


def main() -> None:
    print(HEAT_SOURCE)
    plan = compile_program(HEAT_SOURCE)
    print(f"recognized as: {plan.strategy}")
    print("halo widths:", plan.generated.pattern.halo)
    print("\ngenerated SPMD program:\n")
    print(plan.source)

    m, steps, alpha, nprocs = 64, 60, 0.25, 8
    u0 = np.zeros(m)
    u0[m // 2 - 2 : m // 2 + 2] = 1.0  # a heat pulse in the middle

    inputs = {"m": m, "steps": steps, "alpha": alpha,
              "Unew": np.zeros(m), "Uold": u0.copy()}
    res = plan.run(nprocs, {"m": m, "steps": steps},
                   model=MachineModel(tf=1, tc=10), inputs=inputs)
    u = res.value(0)["Uold"]

    # Sequential reference.
    ref = u0.copy()
    for _ in range(steps):
        nxt = ref.copy()
        nxt[1 : m - 1] = ref[1 : m - 1] + alpha * (ref[: m - 2] - 2 * ref[1 : m - 1] + ref[2:])
        ref = nxt
    print(f"simulated run: makespan {res.makespan:,.0f}, "
          f"{res.message_count} messages ({res.message_words} words)")
    print(f"max |error| vs sequential: {np.max(np.abs(u - ref)):.2e}")
    assert np.allclose(u, ref)

    # A crude temperature profile.
    peak = float(u.max())
    print("\nfinal profile:")
    for row in range(6, -1, -1):
        level = peak * row / 7
        print("  " + "".join("#" if v > level else " " for v in u))
    print("OK")


if __name__ == "__main__":
    main()
