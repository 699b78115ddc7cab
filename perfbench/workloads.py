"""The three benchmark workloads.

Each is a closed loop with one client: the next operation is issued
when the previous one returns.  Operations come in *decks*: a deck is a
seeded, stratified list whose composition (families, sizes, processor
counts, share of repeats) is the same for every seed, while the seed
picks names, guests, order and input values.  Stratifying keeps the
figures of different seeds comparable.  The first :data:`COUNTED_DECKS`
decks are the scope of every deterministic counter, so those repeat
exactly for one seed.

Only the call into the system is timed.  The benchmark's own checks run
after it, untimed and untraced, and a wrong result counts as a failed
operation rather than stopping the run.

Why each workload exists, and which layers it loads, is in README.md.
"""

from __future__ import annotations

import hashlib
import random
import time
from contextlib import contextmanager, nullcontext

import numpy as np

from perfbench import programs
from perfbench.tracing import events_of

#: Deterministic counters and output guards cover this many first decks;
#: the measured loop always runs at least as many.
COUNTED_DECKS = 3
#: The machine every workload compiles for and runs on.
MODEL_PARAMS = {"tf": 1.0, "tc": 10.0, "alpha": 10.0}


class Workload:
    """Shared loop plumbing: timing, tracing hooks and failure records."""

    name = ""
    deck_size = 1

    def __init__(self, seed: int, tracer=None) -> None:
        from repro.machine.model import MachineModel

        self.seed = seed
        self.tracer = tracer
        self.model = MachineModel(**MODEL_PARAMS)
        self.latencies: list[float] = []
        self.failures: list[str] = []
        self.failed: set[int] = set()
        self.events = 0
        self.sim_makespan = 0.0
        self.plan_cost = 0.0

    # -- hooks for the driver loop ---------------------------------------
    def setup(self) -> None:
        raise NotImplementedError

    def op(self, index: int) -> None:
        raise NotImplementedError

    def cache_stats(self):
        return None

    def trace_extras(self) -> dict[str, float]:
        return {}

    def close(self) -> None:
        pass

    # -- helpers ---------------------------------------------------------
    def timed(self, index: int, fn, *args, **kwargs):
        """Run one operation against the system; only this is timed."""
        with self.tracer.request(index) if self.tracer else nullcontext():
            start = time.perf_counter()
            result = fn(*args, **kwargs)
            seconds = time.perf_counter() - start
        self.latencies.append(seconds)
        return result

    @contextmanager
    def untraced(self):
        """The benchmark's own checks: keep them out of the layer spans."""
        if self.tracer is None:
            yield
            return
        self.tracer.active = False
        try:
            yield
        finally:
            self.tracer.active = True

    def fail(self, index: int, what: str) -> None:
        """Count operation *index* as failed (once) and keep the reason."""
        self.failed.add(index)
        if len(self.failures) < 20:
            self.failures.append(f"op {index}: {what}")

    def guard(self, index: int, sim_makespan: float = 0.0, plan_cost: float = 0.0) -> None:
        """Add to the deterministic output guards (counted decks only)."""
        if index < COUNTED_DECKS * self.deck_size:
            self.sim_makespan += sim_makespan
            self.plan_cost += plan_cost


# ---------------------------------------------------------------------------
# compile-stream
# ---------------------------------------------------------------------------

#: The fresh requests of every deck: (slot, nprocs, sizes, execute).
#: The seed picks one of the three sizes (so size-bound costs move by a
#: few percent at most), the iteration parameter, the chain length, the
#: names and the guest.  Both Jacobi slots validate their chosen
#: redistributions on the simulator (``execute=True``).  The six
#: ``chain9`` slots are the slowest requests, about one in seven, so the
#: 90th percentile falls inside that one kind of request.
FRESH_SLOTS = (
    ("jacobi", 16, (248, 256, 264), True),
    ("jacobi", 8, (248, 256, 264), True),
    ("sor", 4, (120, 128, 136), False),
    ("gauss", 8, (63, 64, 65), False),
    ("matmul", 32, (248, 256, 264), False),
    ("heat", 24, (504, 512, 520), False),
    ("heat2d", 12, (62, 64, 66), False),
    ("chain-short", 12, (248, 256, 264), False),
    ("chain-mid", 8, (120, 128, 136), False),
    ("chain-mid", 32, (376, 384, 392), False),
    ("chain-long", 16, (184, 192, 200), False),
    ("chain-long", 16, (248, 256, 264), False),
    ("chain-long", 16, (312, 320, 328), False),
    ("chain-long", 16, (376, 384, 392), False),
    ("chain-long", 16, (440, 448, 456), False),
    ("chain-long", 16, (504, 512, 520), False),
)
#: The size parameter of each family, and its iteration parameter with
#: the values a request draws from (they do not change Algorithm 1's
#: cost, only the request's identity).
SIZE_PARAM = {"matmul": "n"}
ITERATION_PARAM = {
    # Many values, so a fresh validated request is never an old one.
    "jacobi": ("maxiter", tuple(range(5, 41))),
    "sor": ("maxiter", (5, 10, 20)),
    "heat": ("steps", (10, 20, 50)),
    "heat2d": ("steps", (5, 10, 20)),
    "chain": ("t", tuple(range(1, 11))),
}
CHAIN_LENGTHS = {"chain-short": (3, 4), "chain-mid": (5, 6), "chain-long": (9,)}
#: The repeats of every deck, by slot name: 24 of 40 requests (60%).
#: The slow chain9 requests are never repeated, so every deck has the
#: same number of them.
REPEAT_MIX = (
    ["jacobi"] * 4 + ["sor"] * 3 + ["gauss"] * 3 + ["matmul"] * 3 + ["heat"] * 3
    + ["heat2d"] * 3 + ["chain-short"] * 3 + ["chain-mid"] * 2
)
#: Repeats choose among this many most recent requests of their slot,
#: exactly or as an alpha-twin (new names, any guest).
REPEAT_WINDOW = 3
#: Memory-tier bound of the session's plan cache (plan and solve
#: entries both count): large enough that repeats of recent requests
#: hit, small enough that older entries get evicted.
CACHE_CAPACITY = 40


class CompileStream(Workload):
    """Seeded ``Session.compile`` requests through a bounded cache."""

    name = "compile-stream"
    deck_size = len(FRESH_SLOTS) + len(REPEAT_MIX)

    def setup(self) -> None:
        from repro.api import Session

        self.session = Session(machine=self.model, cache="memory", cache_capacity=CACHE_CAPACITY)
        self.reference = Session(machine=self.model, cache="off")
        self.requests: list[dict] = []
        self.history: dict[str, list[dict]] = {}
        self.surfaces: dict[tuple, str] = {}
        self.references: dict[tuple, tuple[str, float]] = {}
        self.validation_events = 0
        self._hook_validation_events()
        self._extend(2)
        # Warm-up: one cache-off compile per family, so lazy imports and
        # each code generator's first call land in set-up.
        warm = Session(machine=self.model, cache="off")
        for slot in ("jacobi", "sor", "gauss", "matmul", "heat", "heat2d", "chain-short"):
            request = self._fresh(random.Random(0), slot, 4, (64,), False)
            surface, env = self._prepare(request)
            warm.compile(surface, guest=request["guest"], nprocs=4, env=env)

    def _hook_validation_events(self) -> None:
        """Count the simulated events of ``execute=True`` validations.

        The redistribution checks run on the simulator inside the
        compile call, where the request cannot see their results; this
        counter (not a span) wraps the two simulator entry points the
        validator dispatches through, for the lifetime of the workload.
        """
        from repro.dp import validate

        self._backends = dict(validate._BACKENDS)
        for key, runner in self._backends.items():
            def counted(*args, _runner=runner, **kwargs):
                result = _runner(*args, **kwargs)
                self.validation_events += events_of(result)
                return result

            counted.__name__ = runner.__name__
            validate._BACKENDS[key] = counted

    def close(self) -> None:
        from repro.dp import validate

        validate._BACKENDS.update(self._backends)

    # -- the request stream ----------------------------------------------
    def _suffix(self, rng: random.Random) -> str:
        return "_" + "".join(rng.choice("abcdefghijklmnopqrstuvwxyz0123456789") for _ in range(5))

    def _fresh(self, rng: random.Random, slot: str, nprocs: int, sizes, execute: bool) -> dict:
        family = f"chain{rng.choice(CHAIN_LENGTHS[slot])}" if slot.startswith("chain") else slot
        env = {SIZE_PARAM.get(family, "m"): rng.choice(sizes)}
        if family.rstrip("0123456789") in ITERATION_PARAM:
            name, values = ITERATION_PARAM[family.rstrip("0123456789")]
            env[name] = rng.choice(values)
        return {
            "family": family,
            "slot": slot,
            "suffix": self._suffix(rng),
            "guest": rng.choice(programs.GUESTS),
            "nprocs": nprocs,
            "env": env,
            "execute": execute,
            "fresh": True,
        }

    def _extend(self, decks: int = 1) -> None:
        """Append *decks* more decks to the request stream."""
        for _ in range(decks):
            deck_no = len(self.requests) // self.deck_size
            rng = random.Random(self.seed * 1_000_003 + deck_no)
            order = [(spec[0], spec) for spec in FRESH_SLOTS]
            order += [(slot, None) for slot in REPEAT_MIX]
            rng.shuffle(order)
            # A repeat needs an earlier request of its slot: hold it back
            # until the deck has issued one.
            pending: dict[str, int] = {}
            for slot, spec in order:
                if spec is not None:
                    self._append(self._fresh(rng, *spec))
                    for _ in range(pending.pop(slot, 0)):
                        self._append(self._repeat(rng, slot))
                elif self.history.get(slot):
                    self._append(self._repeat(rng, slot))
                else:
                    pending[slot] = pending.get(slot, 0) + 1

    def _repeat(self, rng: random.Random, slot: str) -> dict:
        earlier = rng.choice(self.history[slot][-REPEAT_WINDOW:])
        request = dict(earlier, fresh=False)
        if rng.random() < 0.5:  # alpha-twin: new names, any guest
            request["suffix"] = self._suffix(rng)
            request["guest"] = rng.choice(programs.GUESTS)
        return request

    def _append(self, request: dict) -> None:
        self.requests.append(request)
        self.history.setdefault(request["slot"], []).append(request)

    def _prepare(self, request: dict) -> tuple[str, dict[str, int]]:
        """The request as the client sends it: renamed source text in
        its guest's surface, and the env under the renamed names."""
        key = (request["family"], request["suffix"], request["guest"])
        source = programs.family_source(request["family"])
        renamed, mapping = programs.rename(source, request["suffix"])
        if key not in self.surfaces:
            self.surfaces[key] = programs.surface(renamed, request["guest"])
        env = {mapping[k]: v for k, v in request["env"].items()}
        return self.surfaces[key], env

    # -- one request -----------------------------------------------------
    def op(self, index: int) -> None:
        while index >= len(self.requests):
            self._extend()
        request = self.requests[index]
        surface, env = self._prepare(request)
        before = self.validation_events
        result = self.timed(
            index,
            self.session.compile,
            surface,
            guest=request["guest"],
            nprocs=request["nprocs"],
            env=env,
            execute=request["execute"],
        )
        self.events += self.validation_events - before
        with self.untraced():
            self._check(index, request, surface, env, result)

    def _check(self, index, request, surface, env, result) -> None:
        outcome = result.outcome
        makespan = 0.0
        if request["execute"]:
            if outcome.validation is None or not outcome.validation.ok:
                self.fail(index, f"{request['family']}: redistribution validation failed")
            else:
                makespan = sum(
                    t.makespan.get("engine", 0.0) for t in outcome.validation.transitions
                )
        # Repeats return their original's outcome (checked below), so the
        # guards sum the distinct requests: the fresh ones.
        if request["fresh"]:
            self.guard(index, sim_makespan=makespan, plan_cost=outcome.cost)
        if not (result.cached or result.solve_cached):
            return
        # A hit must equal a cache-off compile of the requested program:
        # the same generated code (in the requester's names) and cost.
        key = (surface, request["guest"], request["nprocs"], tuple(sorted(env.items())),
               request["execute"])
        if key not in self.references:
            ref = self.reference.compile(
                surface, guest=request["guest"], nprocs=request["nprocs"],
                env=env, execute=request["execute"],
            )
            self.references[key] = (_digest(ref.source), ref.outcome.cost)
        ref_source, ref_cost = self.references[key]
        back = {stored: mine for mine, stored in result.rename.items()}
        back[result.plan.program.name] = request["family"] + request["suffix"]
        if _digest(programs.substitute(result.source, back)) != ref_source:
            self.fail(index, f"{request['family']}: cached plan differs from a cache-off compile")
        if outcome.cost != ref_cost:
            self.fail(index, f"{request['family']}: cached cost {outcome.cost} != {ref_cost}")

    def cache_stats(self):
        return self.session.stats

    def trace_extras(self) -> dict[str, float]:
        return {"service.pool_speedup": self._pool_speedup()}

    def _pool_speedup(self) -> float:
        """The first deck served cache-off twice: in-process, and through
        ``Session(workers=nproc)`` fed by ``submit`` from nproc threads.
        Returns in-process seconds over pooled seconds (median of 3)."""
        import os
        from statistics import median

        from repro.api import Session

        nproc = os.cpu_count() or 1
        deck = [self._prepare(r) + (r,) for r in self.requests[: self.deck_size]]

        def kwargs(env, request):
            return {"guest": request["guest"], "nprocs": request["nprocs"],
                    "env": env, "execute": request["execute"]}

        inproc, pooled = [], []
        session = Session(machine=self.model, cache="off", workers=nproc)
        session.start(nproc)
        try:
            surface, env, request = deck[0]
            session.submit(surface, **kwargs(env, request)).wait()  # spawn the pool
            for _ in range(3):
                plain = Session(machine=self.model, cache="off")
                start = time.perf_counter()
                for surface, env, request in deck:
                    plain.compile(surface, **kwargs(env, request))
                inproc.append(time.perf_counter() - start)
                start = time.perf_counter()
                jobs = [session.submit(surface, **kwargs(env, request))
                        for surface, env, request in deck]
                for job in jobs:
                    job.wait()
                pooled.append(time.perf_counter() - start)
        finally:
            session.close()
        return median(inproc) / median(pooled)


def _digest(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


# ---------------------------------------------------------------------------
# simulate-dense
# ---------------------------------------------------------------------------

#: The deck: (family, nprocs, base size, sweeps).  The seed orders the
#: deck and jitters Jacobi and stencil sizes by one block of nprocs where
#: that is at most 1/32 of the size; the first entry is the fixed reference case
#: (Jacobi, m=256, P=32, 20 sweeps) and always runs first.
DENSE_DECK = (
    ("jacobi", 32, 256, 20),
    ("jacobi", 8, 512, 20),
    ("jacobi", 16, 128, 10),
    ("jacobi", 32, 512, 10),
    ("sor", 16, 128, 3),
    ("sor", 32, 128, 2),
    ("sor", 8, 256, 2),
    ("gauss", 16, 64, 0),
    ("gauss", 8, 128, 0),
    ("matmul", 4, 256, 0),
    ("matmul", 16, 256, 0),
    ("matmul", 16, 512, 0),
    ("heat", 16, 1024, 50),
    ("heat", 32, 512, 20),
    ("heat", 8, 512, 40),
)
#: Max-norm error allowed against the numpy references, relative to the
#: reference's max norm.  Reordered float64 sums differ by ~1e-15 here.
DENSE_RTOL = 1e-12


class SimulateDense(Workload):
    """Seeded ``CompileResult.run`` calls on plans compiled in set-up."""

    name = "simulate-dense"
    deck_size = len(DENSE_DECK)

    def setup(self) -> None:
        from repro.api import Session

        rng = np.random.default_rng(self.seed)
        self.items = []
        for k, (family, nprocs, base, sweeps) in enumerate(DENSE_DECK):
            m = base
            if family in ("jacobi", "heat") and 32 * nprocs <= base:
                m += nprocs * int(rng.integers(-1, 2))  # one block, at most 1/32
            self.items.append((family, nprocs, m, sweeps, self._inputs(rng, family, m, sweeps)))
        # Each plan is compiled for the first deck entry of its family.
        session = Session(machine=self.model, cache="memory")
        self.plans = {}
        for family, nprocs, m, sweeps, _ in self.items:
            if family in self.plans:
                continue
            env = _dense_env(family, m, sweeps)
            self.plans[family] = session.compile(
                programs.family_source(family), nprocs=nprocs, env=env
            )
            self.plan_cost += self.plans[family].outcome.cost
        self.items = [self.items[0]] + [self.items[k] for k in 1 + rng.permutation(len(self.items) - 1)]
        # Warm-up: one small run of every plan loads its generated code.
        for family, plan in self.plans.items():
            m = 16
            plan.run(4, _dense_env(family, m, 1), model=self.model,
                     inputs=self._inputs(rng, family, m, 1))
        self.references: dict[int, object] = {}
        self.signatures: dict[int, tuple] = {}

    @staticmethod
    def _inputs(rng, family: str, m: int, sweeps: int) -> dict:
        if family == "matmul":
            return {"B": rng.random((m, m)), "C": rng.random((m, m))}
        if family == "heat":
            return {"m": m, "steps": sweeps, "alpha": 0.25,
                    "Unew": np.zeros(m), "Uold": rng.random(m)}
        # Symmetric positive definite, but with a diagonal only 1.5x the
        # off-diagonal spectral radius (2 sqrt(m/6), semicircle law):
        # Jacobi contracts by ~2/3 a sweep and is still far from its
        # fixed point when it stops, so a wrong sweep changes the result.
        A = rng.uniform(-1.0, 1.0, (m, m))
        A = (A + A.T) / 2
        np.fill_diagonal(A, 1.5 * 2 * np.sqrt(m / 6))
        inputs = {"A": A, "B": rng.standard_normal(m)}
        if family in ("jacobi", "sor"):
            inputs.update({"X0": np.zeros(m), "iterations": sweeps})
        if family == "sor":
            inputs["omega"] = 1.1
        return inputs

    def op(self, index: int) -> None:
        k = index % self.deck_size
        family, nprocs, m, sweeps, inputs = self.items[k]
        # Each run gets its own copy: generated code may write in place.
        fresh = {key: (v.copy() if isinstance(v, np.ndarray) else v) for key, v in inputs.items()}
        result = self.timed(
            index, self.plans[family].run, nprocs, _dense_env(family, m, sweeps),
            model=self.model, inputs=fresh,
        )
        events = events_of(result)
        self.events += events
        with self.untraced():
            self._check(index, k, result, events)

    def _check(self, index: int, k: int, result, events: int) -> None:
        family, nprocs, m, sweeps, inputs = self.items[k]
        signature = (events, result.message_count, result.message_words, result.makespan)
        first = self.signatures.setdefault(k, signature)
        for name, a, b in zip(("events", "messages", "words", "makespan"), signature, first):
            if a != b:
                self.fail(index, f"determinism: {family} {name} {a} != {b} in an earlier pass")
        self.guard(index, sim_makespan=result.makespan)
        if k not in self.references:
            self.references[k] = _dense_reference(family, inputs)
        expected = self.references[k]
        ranks = [0] if family == "matmul" else range(nprocs)
        scale = float(np.max(np.abs(expected))) or 1.0
        for rank in ranks:
            got = result.values[rank]
            if family == "heat":
                got = got["Uold"]
            if got is None or np.shape(got) != np.shape(expected) or (
                float(np.max(np.abs(np.asarray(got) - expected))) > DENSE_RTOL * scale
            ):
                self.fail(index, f"{family} N={nprocs} m={m}: rank {rank} differs from the reference")
                return


def _dense_env(family: str, m: int, sweeps: int) -> dict[str, int]:
    if family in ("jacobi", "sor"):
        return {"m": m, "maxiter": sweeps}
    if family == "matmul":
        return {"n": m}
    if family == "heat":
        return {"m": m, "steps": sweeps}
    return {"m": m}


def _dense_reference(family: str, inputs: dict) -> np.ndarray:
    """Sequential numpy semantics of each program, written independently
    of the code generators."""
    if family == "matmul":
        return inputs["B"] @ inputs["C"]
    if family == "heat":
        u = inputs["Uold"].copy()
        alpha = inputs["alpha"]
        for _ in range(inputs["steps"]):
            new = u.copy()
            new[1:-1] = u[1:-1] + alpha * (u[:-2] - 2 * u[1:-1] + u[2:])
            u = new
        return u
    A, b = inputs["A"], inputs["B"]
    if family == "gauss":
        return np.linalg.solve(A, b)
    x = inputs["X0"].copy()
    diag = np.diag(A)
    for _ in range(inputs["iterations"]):
        if family == "jacobi":
            x = x + (b - A @ x) / diag
        else:  # sor: in-place sweep, each row sees the rows before it
            for i in range(len(b)):
                x[i] += inputs["omega"] * (b[i] - A[i] @ x) / A[i, i]
    return x


# ---------------------------------------------------------------------------
# sparse-cg
# ---------------------------------------------------------------------------

#: Sparsity patterns: (base n, density, P).  The seed jitters n.
SPARSE_PATTERNS = (
    (1024, 0.010, 16),
    (512, 0.020, 8),
    (384, 0.026, 8),
    (256, 0.040, 8),
    (320, 0.030, 8),
)
#: The deck: (pattern, warm).  A cold solve runs the on-machine
#: inspector; a warm one repeats an earlier pattern with new values and
#: takes its schedule from the plan cache (the first warm solve of a
#: pattern builds and stores it, so the counted decks have both misses
#: and hits).  The n=1024, P=16 pair is the slowest; the 90th percentile
#: falls on its warm solve.
SPARSE_DECK = (
    (0, False), (0, True),
    (1, False), (1, True), (1, True),
    (2, False), (2, True), (2, True), (2, True),
    (3, False), (3, True), (3, True), (3, True),
    (4, False), (4, True),
)
CG_TOL = 1e-6


class SparseCG(Workload):
    """Seeded SPD systems solved by ``sparse_cg_parallel``."""

    name = "sparse-cg"
    deck_size = len(SPARSE_DECK)

    def setup(self) -> None:
        from repro import sparse
        from repro.machine.engine import run_spmd
        from repro.machine.topology import Ring
        from repro.service.cache import PlanCache

        rng = np.random.default_rng(self.seed)
        self.cache = PlanCache(capacity=16)
        patterns = []
        for n, density, nprocs in SPARSE_PATTERNS:
            n += 16 * int(rng.integers(-1, 2))
            csr = sparse.random_spd_csr(n, density=density, seed=int(rng.integers(2**31)))
            patterns.append((csr, nprocs))
        self.items = []
        for pattern, warm in SPARSE_DECK:
            csr, nprocs = patterns[pattern]
            if warm:
                csr = _same_pattern(csr, rng)
            self.items.append((csr, nprocs, warm, rng.standard_normal(csr.nrows)))
        # Warm-up: one small solve each way, off the measured cache.
        small = sparse.random_spd_csr(64, density=0.1, seed=1)
        b = np.ones(64)
        schedule, _ = sparse.cached_comm_schedule(sparse.SparsePlacement(small.pattern, 4), None)
        for kwargs in ({}, {"schedule": schedule}):
            run_spmd(sparse.sparse_cg_parallel, Ring(4), self.model, args=(small, b),
                     kwargs={"tol": CG_TOL, **kwargs})
        self.references: dict[int, tuple] = {}
        self.signatures: dict[int, tuple] = {}

    def _solve(self, csr, nprocs: int, warm: bool, b):
        from repro import sparse
        from repro.machine import engine
        from repro.machine.topology import Ring

        kwargs = {"tol": CG_TOL}
        if warm:
            placement = sparse.SparsePlacement(csr.pattern, nprocs)
            kwargs["schedule"], _ = sparse.cached_comm_schedule(placement, self.cache)
        return engine.run_spmd(
            sparse.sparse_cg_parallel, Ring(nprocs), self.model, args=(csr, b), kwargs=kwargs
        )

    def op(self, index: int) -> None:
        k = index % self.deck_size
        csr, nprocs, warm, b = self.items[k]
        result = self.timed(index, self._solve, csr, nprocs, warm, b)
        events = events_of(result)
        self.events += events
        x, iterations = result.values[0]
        if self.tracer is not None:
            self.tracer.count("kernels.cg_iterations", iterations)
        with self.untraced():
            self._check(index, k, result, events, x, iterations)

    def _check(self, index: int, k: int, result, events: int, x, iterations: int) -> None:
        from repro import sparse
        from repro.costmodel.sparse import spmv_sweep_time

        csr, nprocs, warm, b = self.items[k]
        signature = (events, result.message_count, result.message_words, result.makespan,
                     iterations)
        first = self.signatures.setdefault(k, signature)
        for name, got, want in zip(("events", "messages", "words", "makespan", "iterations"),
                                   signature, first):
            if got != want:
                self.fail(index, f"determinism: solve {k} {name} {got} != {want} in an earlier pass")
        if k not in self.references:
            ref_x, ref_iterations = sparse.sparse_cg_seq(csr, b, tol=CG_TOL, blocks=nprocs)
            schedule = sparse.build_comm_schedule(sparse.SparsePlacement(csr.pattern, nprocs))
            predicted = spmv_sweep_time(schedule, csr.nnz, self.model).total * ref_iterations
            self.references[k] = (ref_x, ref_iterations, predicted)
        ref_x, ref_iterations, predicted = self.references[k]
        self.guard(index, sim_makespan=result.makespan, plan_cost=predicted)
        if iterations != ref_iterations or not np.array_equal(x, ref_x):
            self.fail(index, f"solve {k} (n={csr.nrows}, P={nprocs}) is not bit-identical "
                             "to sparse_cg_seq(blocks=P)")
        for rank in range(1, nprocs):
            other_x, other_iterations = result.values[rank]
            if other_iterations != iterations or not np.array_equal(other_x, x):
                self.fail(index, f"solve {k}: rank {rank} disagrees with rank 0")
                return


def _same_pattern(csr, rng):
    """A new SPD matrix on exactly *csr*'s sparsity pattern."""
    from repro.sparse import CSRMatrix

    pattern = csr.pattern
    rows = np.repeat(np.arange(pattern.nrows), np.diff(pattern.indptr))
    cols = pattern.indices
    n = pattern.nrows
    upper = np.triu(rng.uniform(0.1, 1.0, (n, n)) * rng.choice((-1.0, 1.0), (n, n)), 1)
    data = (upper + upper.T)[rows, cols]
    off = rows != cols
    diag = np.bincount(rows[off], weights=np.abs(data[off]), minlength=n) + 1.0
    data[~off] = diag[rows[~off]]
    return CSRMatrix(pattern, data)


WORKLOADS = {w.name: w for w in (CompileStream, SimulateDense, SparseCG)}
