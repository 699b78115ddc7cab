"""Run one benchmark workload and print its metrics as one JSON line.

Usage, from the root of a checkout::

    python3 perfbench/run.py --workload compile-stream --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --workload sparse-cg --seed 1 --seconds 20 --trace 1
    python3 perfbench/run.py --workload simulate-dense --seed 1 --selfcheck

``--trace 0`` reports the end-to-end metrics BENCHMARK.json declares, measured
with no instrumentation.  ``--trace 1`` repeats the workload with every
layer's public functions wrapped and reports the per-layer metrics; its
spans are written to ``perfbench/out/``.  ``--selfcheck`` runs the
workload twice on one seed and once on a held-out seed and fails, naming
the metric, if a deterministic counter or the set of metric names
differs.  README.md explains the workloads and the metrics.

The last line of standard output is the result object; the lines before
it say what was measured and on which host.  The program exits non-zero
without a result when the package sources are not beside it.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import resource
import subprocess
import sys
import time
import traceback
from statistics import median

# The simulator is single-threaded Python; idle BLAS threads spinning
# beside it only add noise.  Set before numpy is first imported, and
# inherited by the set-up interpreters.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(HERE, "out")

#: Set-up is timed in this many fresh interpreters; the median is reported.
SETUP_PROBES = 5
#: Candidate tail percentiles, the median and the "nines" 1 - 10**-k; the
#: highest with >= 10 samples beyond it is reported.  Each band of sample
#: counts is ten times wide (p90 from 100 to 995 samples), so a run stays
#: on one percentile when the host is faster or slower.
TAIL_LADDER = (99.9, 99, 90, 50)


def _die(message: str) -> None:
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(2)


def _use_checkout_sources() -> None:
    """Import the package from ``src/`` of this checkout, never from
    anywhere else on the path."""
    if not os.path.isfile(os.path.join(SRC, "repro", "__init__.py")):
        _die(f"no package sources at {SRC}; run from the root of a checkout")
    sys.path[:0] = [SRC, ROOT]


def fingerprint() -> dict:
    import numpy

    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "platform": platform.platform(),
    }


def _code_digest() -> str:
    """Digest of the benchmark and package sources: counters recorded
    under one digest must repeat exactly."""
    h = hashlib.sha256()
    for top in (HERE, os.path.join(SRC, "repro")):
        for dirpath, dirnames, filenames in sorted(os.walk(top)):
            dirnames.sort()
            for name in sorted(filenames):
                if name.endswith(".py"):
                    with open(os.path.join(dirpath, name), "rb") as fh:
                        h.update(name.encode() + b"\0" + fh.read())
    return h.hexdigest()[:16]


# -- set-up ---------------------------------------------------------------
def setup_only(args) -> None:
    """One fresh interpreter's set-up: import, inputs, warm-up."""
    start = time.perf_counter()
    import repro  # noqa: F401
    import repro.api  # noqa: F401
    import repro.sparse  # noqa: F401

    import_s = time.perf_counter() - start
    modules = sum(1 for name in sys.modules if name == "repro" or name.startswith("repro."))
    from perfbench.workloads import WORKLOADS

    workload = WORKLOADS[args.workload](args.seed)
    workload.setup()
    workload.close()
    print(json.dumps({"import_s": import_s, "modules": modules}))


def probe_setup(args) -> tuple[list[float], list[float], int]:
    """Wall time of :data:`SETUP_PROBES` set-ups, each in a new
    interpreter (so ``import repro`` is paid every time)."""
    walls, imports, modules = [], [], 0
    command = [sys.executable, os.path.abspath(__file__), "--workload", args.workload,
               "--seed", str(args.seed), "--setup-only"]
    for _ in range(SETUP_PROBES):
        start = time.perf_counter()
        proc = subprocess.run(command, cwd=ROOT, capture_output=True, text=True, timeout=120)
        walls.append(time.perf_counter() - start)
        if proc.returncode != 0:
            sys.stderr.write(proc.stderr)
            _die("set-up failed")
        info = json.loads(proc.stdout.strip().splitlines()[-1])
        imports.append(info["import_s"])
        modules = info["modules"]
    return walls, imports, modules


# -- the measured loop -----------------------------------------------------
def measure(workload, seconds: float, tracer) -> tuple[int, float, list[float]]:
    """Closed loop over whole decks until *seconds* have passed and at
    least :data:`~perfbench.workloads.COUNTED_DECKS` decks are done.

    Returns the operations issued, the wall time, and per deck the
    operations completed per busy second.
    """
    from perfbench.workloads import COUNTED_DECKS

    if tracer is not None:
        tracer.phase = "measure"
    index = decks = 0
    rates = []
    start = time.perf_counter()
    while True:
        done, busy = len(workload.latencies), sum(workload.latencies)
        for _ in range(workload.deck_size):
            try:
                workload.op(index)
            except Exception as exc:  # a failed operation, not a failed run
                traceback.print_exc(file=sys.stderr)
                workload.fail(index, f"{type(exc).__name__}: {exc}")
            index += 1
        decks += 1
        busy = max(sum(workload.latencies) - busy, 1e-9)
        rates.append((len(workload.latencies) - done) / busy)
        if decks == COUNTED_DECKS and tracer is not None:
            tracer.freeze_counts(workload.cache_stats())
        if decks >= COUNTED_DECKS and time.perf_counter() - start >= seconds:
            break
    if tracer is not None:
        tracer.ops = index
        tracer.phase = "extra"
    return index, time.perf_counter() - start, rates


def tail(samples: list[float]) -> tuple[float, float, int]:
    """(percentile, value, samples beyond it) for the highest percentile
    of :data:`TAIL_LADDER` that has at least ten samples beyond it."""
    import numpy as np

    data = np.asarray(samples)
    for pct in TAIL_LADDER:
        value = float(np.percentile(data, pct))
        beyond = int((data > value).sum())
        if beyond >= 10 or pct == TAIL_LADDER[-1]:
            return pct, value, beyond
    raise AssertionError("unreachable")


def check_repeatable(name: str, counters: dict) -> list[str]:
    """Compare *counters* with an earlier run of the same workload, seed,
    mode and code; returns the names that differ (and records them on
    the first run)."""
    os.makedirs(OUT, exist_ok=True)
    path = os.path.join(OUT, f"counters-{name}-{_code_digest()}.json")
    if not os.path.exists(path):
        with open(path, "w") as fh:
            json.dump(counters, fh, indent=1, sort_keys=True)
        return []
    with open(path) as fh:
        earlier = json.load(fh)
    return [
        f"{key}: {counters.get(key)} now, {earlier.get(key)} in an earlier run"
        for key in sorted(set(earlier) | set(counters))
        if earlier.get(key) != counters.get(key)
    ]


def run(args) -> dict:
    from perfbench.tracing import DETERMINISTIC, Tracer
    from perfbench.workloads import WORKLOADS

    host = fingerprint()
    walls, imports, modules = probe_setup(args)
    tracer = Tracer() if args.trace else None
    if tracer is not None:
        tracer.install()
    workload = WORKLOADS[args.workload](args.seed, tracer)
    try:
        workload.setup()
        ops, window, rates = measure(workload, args.seconds, tracer)
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        layers = {}
        if tracer is not None:
            layers = tracer.metrics()
            layers.update(tracer.replay_largest_run())
            layers.update({"service.pool_speedup": 0.0, **workload.trace_extras()})
            layers["import.ms"] = median(imports) * 1e3
            layers["import.modules"] = float(modules)
    finally:
        workload.close()
        if tracer is not None:
            tracer.uninstall()

    latencies = workload.latencies or [0.0]  # every operation raised: failed > 0
    pct, tail_value, beyond = tail(latencies)
    counters = {"sim_makespan": workload.sim_makespan, "plan_cost": workload.plan_cost}
    if tracer is not None:
        counters.update({key: layers[key] for key in DETERMINISTIC})
    drift = check_repeatable(
        f"{args.workload}-seed{args.seed}-trace{args.trace}", counters
    )
    for line in drift:
        print(f"perfbench: NOT REPEATABLE {line}", file=sys.stderr)
    for line in workload.failures:
        print(f"perfbench: FAILED {line}", file=sys.stderr)

    if tracer is not None:
        os.makedirs(OUT, exist_ok=True)
        tracer.write(os.path.join(OUT, f"spans-{args.workload}.jsonl.gz"))
        values, kind = layers, "per_layer"
    else:
        kind = "end_to_end"
        values = {
            "setup_s": median(walls),
            "throughput_rps": median(rates),
            "latency_p50_ms": median(latencies) * 1e3,
            "latency_tail_ms": tail_value * 1e3,
            "sim_events_per_s": workload.events / max(sum(latencies), 1e-9),
            "peak_rss_mb": peak_rss_mb,
            "sim_makespan": workload.sim_makespan,
            "plan_cost": workload.plan_cost,
        }
    metrics = {name: {"value": values[name], "unit": unit}
               for name, unit in declared_metrics(kind).items()}

    print("# host: " + " ".join(f"{k}={v}" for k, v in host.items()))
    if tracer is not None:
        print(f"# hot spot: import repro takes {layers['import.ms']:.0f} ms "
              f"and loads {modules} modules")
        for line in tracer.hot_spots():
            print(f"# hot spot: {line}")
    print(f"# {args.workload} seed={args.seed} trace={args.trace}: {ops} operations "
          f"in {window:.2f} s, {len(workload.failed)} failed; "
          f"latency_tail_ms is p{pct:g} of {len(latencies)} samples ({beyond} beyond it); "
          f"setup_s is the median of {len(walls)} fresh interpreters")
    return {
        "correct": not workload.failed and not drift,
        "attempted": ops,
        "failed": len(workload.failed),
        "metrics": metrics,
    }


def declared_metrics(kind: str) -> dict[str, str]:
    """name -> unit of the ``end_to_end`` or ``per_layer`` metrics that
    BENCHMARK.json declares; the result reports exactly these."""
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        return {metric["name"]: metric["unit"] for metric in json.load(fh)[kind]}


def selfcheck(args) -> int:
    """Two runs of one seed and one of a held-out seed, in each mode."""
    held_out = args.seed + 7919
    problems = []
    for trace in (0, 1):
        names = []
        for seed in (args.seed, args.seed, held_out):
            command = [sys.executable, os.path.abspath(__file__), "--workload", args.workload,
                       "--seed", str(seed), "--seconds", str(args.seconds),
                       "--trace", str(trace)]
            proc = subprocess.run(command, cwd=ROOT, capture_output=True, text=True,
                                  timeout=600)
            sys.stderr.write(proc.stderr)
            if proc.returncode != 0:
                problems.append(f"trace={trace} seed={seed}: exit code {proc.returncode}")
                continue
            result = json.loads(proc.stdout.strip().splitlines()[-1])
            if not result["correct"]:
                problems.append(f"trace={trace} seed={seed}: result not correct")
            names.append(sorted(result["metrics"]))
        if any(n != names[0] for n in names):
            problems.append(f"trace={trace}: metric names differ between seeds")
    for line in problems:
        print(f"perfbench selfcheck: {line}", file=sys.stderr)
    print("selfcheck " + ("FAILED" if problems else "ok"))
    return 1 if problems else 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=("compile-stream", "simulate-dense", "sparse-cg"))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=15.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    parser.add_argument("--selfcheck", action="store_true")
    args = parser.parse_args(argv)
    _use_checkout_sources()
    if args.setup_only:
        setup_only(args)
        return 0
    if args.selfcheck:
        return selfcheck(args)
    result = run(args)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
