"""Overlap scheduling pass: rewrite halo-exchange sweeps for latency hiding.

Given a recognized :class:`repro.codegen.stencil.StencilPattern`, this
pass rewrites each sweep's loop body from the blocking shape

    exchange halos (send/recv) ; compute whole block

into the overlapped shape

    post irecv ; isend halos ; compute interior ; wait ; compute boundary

where the *interior* is the subrange of the block whose stencil windows
stay inside the local pad (no halo value needed), and the *boundary*
strips are the at-most-``hl + hr`` edge elements that must wait for the
transfers.  The pass output (:class:`OverlapSchedule`) is consumed by
:func:`repro.codegen.stencil.emit_stencil`, which prints the rewritten
SPMD listing, and doubles as the analytic cost model behind
``report.py --overlap``:

* per-sweep blocking time estimate: ``2 (alpha + w tc)`` per exchanged
  halo side (send + matching recv occupancy; the wire is hidden by the
  symmetric schedule) plus the whole-block compute;
* per-sweep overlapped time estimate: ``2 alpha`` per halo side (post +
  drain) plus the interior compute, plus any *exposed* wire time the
  interior is too short to hide, plus the boundary compute.

Safety: the rewrite is sound only when no statement reads, at a nonzero
offset, an array written earlier in the same sweep (the interior pass of
the reader would see stale boundary elements of the writer).  The
dependence filter in :func:`repro.codegen.stencil.match_stencil`
already rejects such sweeps (any cross-statement nonzero-offset read of
an in-sweep-written array is a loop-carried dependence), but the pass
re-checks and raises :class:`repro.errors.CodegenError` defensively.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING

from repro.errors import CodegenError
from repro.machine.model import MachineModel

if TYPE_CHECKING:  # avoid the codegen <-> pipeline import cycle at runtime
    from repro.codegen.stencil import StencilPattern, Sweep


@dataclass(frozen=True)
class HaloExchange:
    """One halo side of one array in one sweep.

    ``direction`` is the side of *this* rank's pad being filled:
    ``"left"`` means my left halo arrives from my left neighbor (so I
    isend my rightmost ``width`` elements rightward), ``"right"`` the
    mirror.  ``width`` is the halo width in elements (= message words).
    """

    array: str
    direction: str
    width: int


@dataclass(frozen=True)
class SweepOverlap:
    """The rewritten loop body of one sweep.

    ``margin_left``/``margin_right`` are the number of block-edge
    elements excluded from the interior pass (the max halo width any
    statement of the sweep reads on that side); ``flops_per_elem`` is
    the summed arithmetic op count of the sweep's statements.
    """

    index: int
    var: str
    exchanges: tuple[HaloExchange, ...]
    margin_left: int
    margin_right: int
    flops_per_elem: int

    @property
    def phases(self) -> tuple[str, ...]:
        """The rewritten body shape, in emission order."""
        if not self.exchanges:
            return ("compute",)
        return ("irecv", "isend", "interior", "wait", "boundary")

    # -- analytic per-sweep times (one interior rank, one time step) ----
    def time_blocking(self, model: MachineModel, cnt: int) -> float:
        comm = sum(
            2.0 * (model.alpha + ex.width * model.tc) for ex in self.exchanges
        )
        return comm + self.flops_per_elem * cnt * model.tf

    def time_overlapped(self, model: MachineModel, cnt: int) -> float:
        if not self.exchanges:
            return self.flops_per_elem * cnt * model.tf
        interior_elems = max(0, cnt - self.margin_left - self.margin_right)
        interior = self.flops_per_elem * interior_elems * model.tf
        boundary = self.flops_per_elem * (cnt - interior_elems) * model.tf
        posts = sum(model.alpha for _ in self.exchanges)
        drains = posts
        # Last transfer's wire time minus what the interior hides.
        wire = max(
            model.alpha + ex.width * model.tc for ex in self.exchanges
        )
        exposed = max(0.0, wire - interior)
        return posts + interior + exposed + drains + boundary

    def hidden(self, model: MachineModel, cnt: int) -> float:
        """Wire time the rewrite hides on this sweep (estimate)."""
        return self.time_blocking(model, cnt) - self.time_overlapped(model, cnt)


@dataclass(frozen=True)
class OverlapSchedule:
    """The overlap pass output for a whole stencil pattern."""

    pattern: StencilPattern
    sweeps: tuple[SweepOverlap, ...]

    def step_time_blocking(self, model: MachineModel, cnt: int) -> float:
        return sum(s.time_blocking(model, cnt) for s in self.sweeps)

    def step_time_overlapped(self, model: MachineModel, cnt: int) -> float:
        return sum(s.time_overlapped(model, cnt) for s in self.sweeps)

    def speedup(self, model: MachineModel, cnt: int) -> float:
        over = self.step_time_overlapped(model, cnt)
        return self.step_time_blocking(model, cnt) / over if over else 1.0


def _check_sound(sweep: Sweep) -> None:
    written: set[str] = set()
    for stmt in sweep.stmts:
        for name, offs in stmt.offsets:
            if offs[0] != 0 and name in written:
                raise CodegenError(
                    f"overlap rewrite unsound: sweep over {sweep.var!r} reads "
                    f"{name}({sweep.var}{offs[0]:+d}) after writing {name} in the "
                    "same sweep"
                )
        written.add(stmt.lhs_array)


def overlap_schedule(pattern: StencilPattern) -> OverlapSchedule:
    """Rewrite every sweep of *pattern* into overlapped form."""
    sweeps: list[SweepOverlap] = []
    for si, sweep in enumerate(pattern.sweeps):
        _check_sound(sweep)
        exchanges = tuple(HaloExchange(*ex) for ex in pattern.exchanges(sweep))
        sweeps.append(
            SweepOverlap(
                index=si,
                var=sweep.var,
                exchanges=exchanges,
                margin_left=max((ex.width for ex in exchanges if ex.direction == "left"), default=0),
                margin_right=max((ex.width for ex in exchanges if ex.direction == "right"), default=0),
                flops_per_elem=sum(st.flops for st in sweep.stmts),
            )
        )
    return OverlapSchedule(pattern=pattern, sweeps=tuple(sweeps))


def overlap_table(
    schedule: OverlapSchedule, model: MachineModel, cnt: int
) -> str:
    """Render the per-sweep rewrite decisions and analytic savings."""
    lines = [
        f"{'sweep':>5}  {'halos':>5}  {'margin':>6}  "
        f"{'T_block':>10}  {'T_overlap':>10}  {'hidden':>8}  phases"
    ]
    for s in schedule.sweeps:
        tb = s.time_blocking(model, cnt)
        to = s.time_overlapped(model, cnt)
        lines.append(
            f"{s.index + 1:>5}  {len(s.exchanges):>5}  "
            f"{s.margin_left}+{s.margin_right:<4}  "
            f"{tb:>10.1f}  {to:>10.1f}  {tb - to:>8.1f}  "
            f"{' -> '.join(s.phases)}"
        )
    tb = schedule.step_time_blocking(model, cnt)
    to = schedule.step_time_overlapped(model, cnt)
    lines.append(
        f"{'total':>5}  {'':>5}  {'':>6}  {tb:>10.1f}  {to:>10.1f}  "
        f"{tb - to:>8.1f}  speedup x{schedule.speedup(model, cnt):.3f}"
    )
    return "\n".join(lines)
