"""Per-layer tracing for the benchmark's traced run (``--trace 1``).

The tracer wraps the public functions each pipeline layer exposes, by
replacing the names the calling module looks them up through.  Nothing
under ``src/`` changes, and an untraced run installs no wrapper at all.

Spans stay in memory as ``(id, parent, request, phase, name, start,
end)`` tuples and are written out as JSON lines when the run ends.  A
span's parent is the innermost wrapped call open when it started; every
span opened while the workload serves one operation carries that
operation's request id.  A layer's self time is its spans' durations
minus the time their child spans cover.

Metric scopes (see README.md):

* ``*_ms`` — self time per measured operation, in milliseconds, over the
  whole measured window (``codegen.first_call_ms`` is the exception: the
  summed first call of each code generator in the process, set-up
  included);
* counts — over the first ``COUNTED_DECKS`` decks of the workload, which
  are the same for a given seed, so they repeat exactly between runs.
"""

from __future__ import annotations

import gzip
import importlib
import json
import threading
import time
import tracemalloc
from contextlib import contextmanager
from statistics import median

#: (span name, module, attribute) — ``Class.method`` patches the class,
#: ``table[key]`` patches one entry of a module-level dict.
WRAPS = (
    ("lang.lower", "repro.service.compiler", "lower"),
    ("service.digest", "repro.service.compiler", "canonicalize"),
    ("service.digest", "repro.service.compiler", "program_digest"),
    ("service.digest", "repro.service.compiler", "solve_digest"),
    ("service.cache", "repro.service.cache", "PlanCache.lookup"),
    ("service.cache", "repro.service.cache", "PlanCache.put"),
    ("alignment", "repro.dp.phases", "build_cag"),
    ("alignment", "repro.dp.phases", "exact_alignment"),
    ("alignment", "repro.dp.phases", "greedy_alignment"),
    ("alignment", "repro.dp.phases", "alignment_to_scheme"),
    ("costmodel", "repro.dp.phases", "estimate_loop_cost"),
    ("dp.tables", "repro.dp.phases", "build_phase_tables"),
    ("dp.solve", "repro.dp.phases", "PhaseTables.solve"),
    ("dp.validate", "repro.dp.validate", "validate_transitions"),
    ("codegen.emit", "repro.service.plan", "generate_spmd"),
    ("codegen.load", "repro.service.plan", "load_generated"),
    ("codegen.load", "repro.dp.validate", "load_generated"),
    ("machine.simulate", "repro.service.plan", "_RUNNERS[engine]"),
    ("machine.simulate", "repro.dp.validate", "_BACKENDS[engine]"),
    ("machine.simulate", "repro.dp.validate", "_BACKENDS[threaded]"),
    ("machine.simulate", "repro.machine.engine", "run_spmd"),
    ("pipeline.inspect", "repro.pipeline.inspector", "build_comm_schedule"),
    ("pipeline.inspect", "repro.kernels.sparse_cg", "build_comm_schedule"),
    ("pipeline.inspect", "repro.pipeline.inspector", "cached_comm_schedule"),
)

#: Layer spans whose self time is reported as ``<metric>`` per operation.
TIME_METRICS = {
    "lang.lower": "lang.lower_ms",
    "service.digest": "service.digest_ms",
    "service.cache": "service.cache_ms",
    "alignment": "alignment.ms",
    "costmodel": "costmodel.ms",
    "dp.tables": "dp.tables_ms",
    "dp.solve": "dp.solve_ms",
    "dp.validate": "dp.validate_ms",
    "codegen.emit": "codegen.emit_ms",
    "codegen.load": "codegen.load_ms",
    "machine.simulate": "machine.simulate_ms",
    "pipeline.inspect": "pipeline.inspect_ms",
}

#: Counts taken over the counted decks.
COUNT_METRICS = (
    "service.cache_hits",
    "service.cache_misses",
    "service.cache_evictions",
    "alignment.segments",
    "costmodel.estimates",
    "dp.cells",
    "dp.validate_messages",
    "codegen.lines",
    "machine.events",
    "machine.messages",
    "machine.words",
    "pipeline.inspector_words",
    "pipeline.schedule_hits",
    "kernels.cg_iterations",
)

#: The counters that must repeat exactly between two runs of one seed.
DETERMINISTIC = (
    "machine.events",
    "machine.messages",
    "machine.words",
    "dp.cells",
    "codegen.lines",
    "kernels.cg_iterations",
)


def events_of(result) -> int:
    """Simulated events of one run: the sum over ``metrics.by_kind``."""
    return sum(group.events for group in result.metrics.by_kind.values())


class Tracer:
    """In-memory span recorder plus the layer counters."""

    def __init__(self) -> None:
        self.spans: list[tuple] = []
        self.counts: dict[str, int] = {name: 0 for name in COUNT_METRICS}
        self.frozen: dict[str, int] | None = None
        self.phase = "setup"
        self.ops = 0
        self.events = 0
        self.request_id: int | None = None
        self.active = True
        self._stack: list[tuple[int, str]] = []
        self._next_id = 0
        self._thread = threading.get_ident()
        self._epoch = time.perf_counter()
        self._emit_first: dict[str, float] = {}
        self._emit_warm: dict[str, list[float]] = {}
        self._replay: tuple | None = None
        self._replay_events = -1
        self._undo: list = []

    # -- spans -----------------------------------------------------------
    def _enabled(self) -> bool:
        return self.active and threading.get_ident() == self._thread

    @contextmanager
    def span(self, name: str):
        if not self._enabled():
            yield
            return
        sid = self._next_id
        self._next_id += 1
        parent = self._stack[-1][0] if self._stack else None
        self._stack.append((sid, name))
        start = time.perf_counter()
        try:
            yield
        finally:
            end = time.perf_counter()
            self._stack.pop()
            self.spans.append(
                (sid, parent, self.request_id, self.phase, name, start, end)
            )

    @contextmanager
    def request(self, request_id: int):
        """One workload operation: the root span its layer spans share."""
        self.request_id = request_id
        try:
            with self.span("request"):
                yield
        finally:
            self.request_id = None

    def _inside(self, name: str) -> bool:
        return any(open_name == name for _, open_name in self._stack)

    def count(self, name: str, n: int = 1) -> None:
        if self.phase == "measure" and self._enabled():
            self.counts[name] += n

    def freeze_counts(self, cache_stats=None) -> None:
        """Freeze the counters at the end of the counted decks;
        *cache_stats* is the workload's compile cache, if it has one."""
        if cache_stats is not None:
            self.counts["service.cache_hits"] = cache_stats.hits
            self.counts["service.cache_misses"] = cache_stats.misses
            self.counts["service.cache_evictions"] = cache_stats.evictions
        self.frozen = dict(self.counts)

    # -- wrapping --------------------------------------------------------
    def _wrap(self, name: str, fn):
        tracer = self
        on_exit = getattr(self, "_exit_" + name.replace(".", "_"), None)

        def traced(*args, **kwargs):
            if not tracer._enabled():
                return fn(*args, **kwargs)
            with tracer.span(name):
                result = fn(*args, **kwargs)
            renamed = on_exit(result, fn, args, kwargs) if on_exit is not None else None
            if renamed:  # a code generator's first call gets its own name
                sid, parent, req, phase, _, start, end = tracer.spans[-1]
                tracer.spans[-1] = (sid, parent, req, phase, renamed, start, end)
            return result

        traced.__wrapped__ = fn
        return traced

    def install(self) -> None:
        """Patch every entry of :data:`WRAPS` (undone by :meth:`uninstall`)."""
        for name, module_name, attr in WRAPS:
            module = importlib.import_module(module_name)
            if "[" in attr:
                table_name, key = attr[:-1].split("[")
                table = getattr(module, table_name)
                self._undo.append((table.__setitem__, key, table[key]))
                table[key] = self._wrap(name, table[key])
            elif "." in attr:
                cls_name, meth = attr.split(".")
                cls = getattr(module, cls_name)
                original = cls.__dict__[meth]
                self._undo.append((lambda k, v, c=cls: setattr(c, k, v), meth, original))
                setattr(cls, meth, self._wrap(name, original))
            else:
                original = getattr(module, attr)
                self._undo.append((lambda k, v, m=module: setattr(m, k, v), attr, original))
                setattr(module, attr, self._wrap(name, original))
        # The sparse facade re-exports the inspector lazily; point it at
        # the wrapped function too.
        facade = importlib.import_module("repro.sparse")
        inspector = importlib.import_module("repro.pipeline.inspector")
        facade.cached_comm_schedule = inspector.cached_comm_schedule

    def uninstall(self) -> None:
        while self._undo:
            setter, key, original = self._undo.pop()
            setter(key, original)

    # -- counters read off each layer's results --------------------------
    def _exit_alignment(self, result, fn, args, kwargs):
        if fn.__name__ == "build_cag":
            self.count("alignment.segments")

    def _exit_costmodel(self, result, fn, args, kwargs):
        self.count("costmodel.estimates")

    def _exit_dp_tables(self, result, fn, args, kwargs):
        self.count("dp.cells", len(result.entries))

    def _exit_codegen_emit(self, result, fn, args, kwargs):
        self.count("codegen.lines", len(result.source.splitlines()))
        *_, start, end = self.spans[-1]
        if result.strategy not in self._emit_first:
            self._emit_first[result.strategy] = end - start
            return "codegen.first_call"
        self._emit_warm.setdefault(result.strategy, []).append(end - start)
        return None

    def _exit_machine_simulate(self, result, fn, args, kwargs):
        events = events_of(result)
        if self.phase == "measure":
            self.events += events
        self.count("machine.events", events)
        self.count("machine.messages", result.message_count)
        self.count("machine.words", result.message_words)
        self.count(
            "pipeline.inspector_words",
            result.metrics.scope_totals("sparse-inspect").words,
        )
        if self._inside("dp.validate"):
            self.count("dp.validate_messages", result.message_count)
        if fn.__name__ == "run_spmd" and events > self._replay_events:
            self._replay_events = events
            self._replay = (fn, args, kwargs)

    def _exit_pipeline_inspect(self, result, fn, args, kwargs):
        if fn.__name__ == "cached_comm_schedule" and result[1]:
            self.count("pipeline.schedule_hits")

    # -- one-off measurements after the measured window ------------------
    def replay_largest_run(self) -> dict[str, float]:
        """Re-run the measured window's largest simulation (by events):
        its allocation peak, the cost of tracing it, and of the trace
        consumers (``TraceStore.from_run``, ``critical_path``)."""
        from repro.machine.critpath import critical_path
        from repro.obs.store import TraceStore

        out = {
            "machine.alloc_peak_kb": 0.0,
            "obs.trace_overhead": 0.0,
            "obs.store_ms": 0.0,
            "obs.critpath_ms": 0.0,
        }
        if self._replay is None:
            return out
        fn, args, kwargs = self._replay

        def run(trace: bool):
            start = time.perf_counter()
            result = fn(*args, **{**kwargs, "trace": trace})
            return time.perf_counter() - start, result

        plain, traced, store, critpath = [], [], [], []
        for _ in range(3):
            plain.append(run(False)[0])
            seconds, result = run(True)
            traced.append(seconds)
            start = time.perf_counter()
            TraceStore.from_run(result)
            store.append(time.perf_counter() - start)
            start = time.perf_counter()
            critical_path(result.trace)
            critpath.append(time.perf_counter() - start)
        tracemalloc.start()
        try:
            run(False)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        out["machine.alloc_peak_kb"] = peak / 1024
        out["obs.trace_overhead"] = median(traced) / median(plain)
        out["obs.store_ms"] = median(store) * 1e3
        out["obs.critpath_ms"] = median(critpath) * 1e3
        return out

    # -- results ---------------------------------------------------------
    def self_times(self, phase: str = "measure") -> dict[str, float]:
        """Summed self seconds per span name over one phase."""
        children: dict[int, float] = {}
        for sid, parent, _req, _phase, _name, start, end in self.spans:
            if parent is not None:
                children[parent] = children.get(parent, 0.0) + (end - start)
        totals: dict[str, float] = {}
        for sid, _parent, _req, span_phase, name, start, end in self.spans:
            if span_phase != phase:
                continue
            totals[name] = totals.get(name, 0.0) + (end - start) - children.get(sid, 0.0)
        return totals

    def metrics(self) -> dict[str, float]:
        counts = self.frozen if self.frozen is not None else self.counts
        out: dict[str, float] = {name: float(counts[name]) for name in COUNT_METRICS}
        lookups = counts["service.cache_hits"] + counts["service.cache_misses"]
        out["service.hit_rate"] = counts["service.cache_hits"] / lookups if lookups else 0.0
        measured = self.self_times("measure")
        ops = max(self.ops, 1)
        for span_name, metric in TIME_METRICS.items():
            out[metric] = measured.get(span_name, 0.0) * 1e3 / ops
        # First calls of a code generator land in their own span name,
        # in whichever phase they happened.
        first = sum(
            end - start
            for _sid, _p, _r, _ph, name, start, end in self.spans
            if name == "codegen.first_call"
        )
        out["codegen.first_call_ms"] = first * 1e3
        simulate_s = measured.get("machine.simulate", 0.0)
        out["machine.us_per_event"] = simulate_s * 1e6 / self.events if self.events else 0.0
        return out

    def hot_spots(self) -> list[str]:
        """ROADMAP item 1's compile-side hot spots, read off the spans:
        the share of an ``execute=True`` request spent validating, and
        each code generator's first call against its warm calls."""
        lines = []
        requests: dict[int, list[float]] = {}
        for _sid, _parent, req, phase, name, start, end in self.spans:
            if phase != "measure" or req is None:
                continue
            slot = requests.setdefault(req, [0.0, 0.0])
            if name == "request":
                slot[0] = end - start
            elif name == "dp.validate":
                slot[1] += end - start
        validated = [(total, part) for total, part in requests.values() if part > 0]
        if validated:
            total = sum(t for t, _ in validated) / len(validated)
            part = sum(p for _, p in validated) / len(validated)
            lines.append(f"dp.validate takes {part * 1e3:.1f} of {total * 1e3:.1f} ms per "
                         f"execute=True request ({len(validated)} requests, both backends)")
        for strategy, first in sorted(self._emit_first.items()):
            warm = self._emit_warm.get(strategy, [])
            tail = f", warm median {median(warm) * 1e3:.2f} ms over {len(warm)} calls" if warm else ""
            lines.append(f"codegen {strategy}: first call {first * 1e3:.1f} ms{tail}")
        return lines

    def write(self, path) -> None:
        """All spans as gzipped JSON lines, times in seconds since tracer start."""
        with gzip.open(path, "wt") as fh:
            for sid, parent, req, phase, name, start, end in sorted(
                self.spans, key=lambda s: s[5]
            ):
                fh.write(
                    json.dumps(
                        {
                            "id": sid,
                            "parent": parent,
                            "request": req,
                            "phase": phase,
                            "name": name,
                            "start": round(start - self._epoch, 9),
                            "end": round(end - self._epoch, 9),
                        }
                    )
                    + "\n"
                )
