"""Generic lowering of 1-D and 2-D data-parallel (stencil) sweeps.

The paper's opening classification (§1): "if dependent data only
influence neighboring data, an efficient component-alignment algorithm
can be used to partition and distribute data arrays" — i.e. block
distribution plus neighbor Shift communication.  This module implements
that compilation path *generically*, not via a canned template, for
arrays of rank 1 or 2:

* :func:`match_stencil` recognizes an (optionally time-stepped) sequence
  of perfect parallel loop nests (one loop per array dimension) whose
  statements assign ``A(i[, j])`` from references ``B(i + ci[, j + cj])``
  with constant offsets, verifying with the dependence analyzer that no
  sweep level carries a dependence (each sweep is truly parallel);
* :func:`emit_stencil` generates the SPMD program.  The placement of the
  output plus the subscript offsets give the halo: dimension 0 is
  block-partitioned over a linear processor array and each sweep ships
  ``max(-ci)`` / ``max(+ci)`` halo rows of every array it reads (one
  Shift per direction), while dimension 1 stays local (rows are stored
  whole — the §3 alignment default), so column offsets cost nothing.
  Each sweep body is either blocking (exchange, then compute the block)
  or, given the overlap pass's :class:`~repro.pipeline.overlap.OverlapSchedule`,
  latency-hiding (post irecv -> isend -> compute interior -> wait ->
  compute boundary strips).  Both forms compile every statement with the
  same expression compiler, so their values are bit-identical.

Blocks follow the balanced partition ``lo = rank*m//N``,
``hi = (rank+1)*m//N``, so any ``m`` runs on any ``N`` (block sizes
differ by at most one).  A halo can only come from the adjacent block,
so when ``m // N`` is smaller than the widest halo a sweep ships, the
generated prologue raises :class:`repro.errors.MachineError` before any
communication rather than computing wrong values.

The generated program is checked element-for-element against a direct
sequential interpretation of the source.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, NamedTuple

from repro.codegen.emitter import CodeWriter
from repro.codegen.spmd import GeneratedProgram
from repro.dependence.analysis import find_dependences
from repro.errors import CodegenError
from repro.lang.affine import Affine
from repro.lang.ast import (
    ArrayRef,
    Assign,
    BinOp,
    DoLoop,
    Expr,
    Num,
    Program,
    ScalarRef,
    UnaryOp,
)

if TYPE_CHECKING:  # avoid the codegen <-> pipeline import cycle at runtime
    from repro.pipeline.overlap import OverlapSchedule

# ---------------------------------------------------------------------------
# pattern
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class SweepStmt:
    """One recognized statement ``lhs(i[, j]) = f(refs(i + ci[, j + cj]), scalars)``."""

    lhs_array: str
    rhs: Expr
    offsets: tuple[tuple[str, tuple[int, ...]], ...]  # (array, offset per dim)

    @property
    def flops(self) -> int:
        """Arithmetic operations per updated element."""
        return _count_ops(self.rhs)


@dataclass(frozen=True)
class Sweep:
    """One parallel nest, one loop per dimension (bounds affine in m)."""

    loop_vars: tuple[str, ...]
    bounds: tuple[tuple[Affine, Affine], ...]  # (lb, ub) per dimension
    stmts: tuple[SweepStmt, ...]

    @property
    def var(self) -> str:
        """The partitioned (outermost) loop variable."""
        return self.loop_vars[0]


@dataclass(frozen=True)
class StencilPattern:
    """A recognized (time-stepped) stencil program of rank 1 or 2."""

    size_param: str
    time_param: str | None  # None: single application
    rank: int
    arrays: tuple[str, ...]
    sweeps: tuple[Sweep, ...]

    def halo_along(self, dim: int) -> dict[str, tuple[int, int]]:
        """Per-array (low, high) reach along *dim* over all sweeps."""
        halo: dict[str, tuple[int, int]] = {name: (0, 0) for name in self.arrays}
        for sweep in self.sweeps:
            for stmt in sweep.stmts:
                for name, offs in stmt.offsets:
                    low, high = halo[name]
                    halo[name] = (max(low, -offs[dim]), max(high, offs[dim]))
        return halo

    @property
    def halo(self) -> dict[str, tuple[int, int]]:
        """Per-array (left, right) halo rows exchanged along dimension 0."""
        return self.halo_along(0)

    @property
    def col_halo(self) -> dict[str, tuple[int, int]]:
        """Per-array (left, right) column overhang (local, no comm)."""
        return self.halo_along(1) if self.rank == 2 else {a: (0, 0) for a in self.arrays}

    def exchanges(self, sweep: Sweep) -> list[tuple[str, str, int]]:
        """``(array, side, width)`` halo transfers *sweep* needs, in order.

        Every array the sweep reads ships its pattern-wide halo; ``side``
        is the side of the receiving pad being filled.
        """
        halo = self.halo
        read = sorted({name for st in sweep.stmts for name, _ in st.offsets})
        return [
            (name, side, width)
            for name in read
            for side, width in zip(("left", "right"), halo[name])
            if width
        ]

    @property
    def strategy(self) -> str:
        """The blocking strategy name for this rank."""
        return "stencil" if self.rank == 1 else "stencil-2d"


def _offset_of(sub: Affine, var: str) -> int | None:
    """The c of ``var + c``; None if the subscript has any other shape."""
    if sub.coeff(var) != 1:
        return None
    rest = sub - Affine.var(var)
    return rest.const if rest.is_constant else None


def _offsets(ref: ArrayRef, loop_vars: tuple[str, ...]) -> tuple[int, ...] | None:
    if ref.rank != len(loop_vars):
        return None
    offs = tuple(_offset_of(sub, var) for sub, var in zip(ref.subscripts, loop_vars))
    return None if None in offs else offs


def _extract_stmt(stmt: Assign, loop_vars: tuple[str, ...], program: Program) -> SweepStmt | None:
    lhs = stmt.lhs
    # Owner computes: iteration (i, j) must write its own element A(i, j).
    if not isinstance(lhs, ArrayRef) or _offsets(lhs, loop_vars) != (0,) * len(loop_vars):
        return None
    offsets: list[tuple[str, tuple[int, ...]]] = []

    def visit(expr: Expr) -> bool:
        if isinstance(expr, Num):
            return True
        if isinstance(expr, ScalarRef):
            return expr.name in program.scalars or expr.name in program.params
        if isinstance(expr, ArrayRef):
            offs = _offsets(expr, loop_vars)
            if offs is None:
                return False
            offsets.append((expr.name, offs))
            return True
        if isinstance(expr, UnaryOp):
            return visit(expr.operand)
        if isinstance(expr, BinOp):
            return visit(expr.left) and visit(expr.right)
        return False

    if not visit(stmt.rhs):
        return None
    return SweepStmt(lhs_array=lhs.name, rhs=stmt.rhs, offsets=tuple(offsets))


def _extract_sweep(loop: DoLoop, rank: int, size_param: str, program: Program) -> Sweep | None:
    nest = [loop]
    while len(nest) < rank:
        body = nest[-1].body
        if len(body) != 1 or not isinstance(body[0], DoLoop):
            return None
        nest.append(body[0])
    for level in nest:
        # Unit-stride loops whose bounds use the size parameter alone (so
        # no inner bound depends on an outer index or the time step).
        bound_vars = level.lb.variables() | level.ub.variables()
        if level.step != 1 or not bound_vars <= {size_param}:
            return None
    loop_vars = tuple(level.var for level in nest)
    stmts: list[SweepStmt] = []
    for stmt in nest[-1].body:
        if not isinstance(stmt, Assign):
            return None
        extracted = _extract_stmt(stmt, loop_vars, program)
        if extracted is None:
            return None
        stmts.append(extracted)
    if not stmts:
        return None
    # Full parallelism: no dependence carried at any sweep level.
    for dep in find_dependences([loop]):
        level = dep.carried_level()
        if level is not None and level < rank:
            return None
    return Sweep(
        loop_vars=loop_vars,
        bounds=tuple((level.lb, level.ub) for level in nest),
        stmts=tuple(stmts),
    )


def match_stencil(program: Program) -> StencilPattern | None:
    """Recognize a (time-stepped) sequence of parallel 1-D or 2-D sweeps."""
    arrays = tuple(sorted(program.arrays))
    if not arrays:
        return None
    rank = program.arrays[arrays[0]].rank
    if rank not in (1, 2) or any(program.arrays[a].rank != rank for a in arrays):
        return None
    # One size parameter: every extent of every array is exactly ``m``.
    size_param = None
    for decl in program.arrays.values():
        for ext in decl.extents:
            if len(ext.coeffs) != 1 or ext.const != 0:
                return None
            (var, coeff), = ext.coeffs.items()
            if coeff != 1 or var != (size_param or var):
                return None
            size_param = var

    body = program.body
    time_param: str | None = None
    if len(body) == 1 and isinstance(body[0], DoLoop):
        outer = body[0]
        ub = outer.ub
        if (
            outer.lb == Affine.constant(1)
            and outer.step == 1
            and len(ub.coeffs) == 1
            and ub.const == 0
            and all(isinstance(s, DoLoop) for s in outer.body)
        ):
            (tp, coeff), = ub.coeffs.items()
            if coeff == 1 and tp != size_param:
                time_param = tp
                body = list(outer.body)

    sweeps: list[Sweep] = []
    for stmt in body:
        if not isinstance(stmt, DoLoop):
            return None
        sweep = _extract_sweep(stmt, rank, size_param, program)
        if sweep is None:
            return None
        sweeps.append(sweep)
    if not sweeps:
        return None
    return StencilPattern(
        size_param=size_param,
        time_param=time_param,
        rank=rank,
        arrays=arrays,
        sweeps=tuple(sweeps),
    )


# ---------------------------------------------------------------------------
# expression compilation
# ---------------------------------------------------------------------------


def _compile_expr(expr: Expr, sweep: Sweep, pattern: StencilPattern, lo: str, hi: str) -> str:
    """Compile an expression to a NumPy slice expression over local pads.

    Array ``W`` is held as ``W_pad`` with ``HL[W]`` leading halo rows;
    global row ``i + c`` of the block maps to rows
    ``W_pad[HL + c + lo : HL + c + hi]`` and, for rank 2, column
    ``j + cj`` to ``[j0 + cj : j1 + cj]``.  ``lo``/``hi`` name the
    emitted row-range variables (the overlapped form compiles each
    statement over interior and boundary subranges).
    """
    halo = pattern.halo

    def go(e: Expr) -> str:
        if isinstance(e, Num):
            return repr(float(e.value))
        if isinstance(e, ScalarRef):
            return f"env['{e.name}']"
        if isinstance(e, ArrayRef):
            offs = _offsets(e, sweep.loop_vars)
            r = halo[e.name][0] + offs[0]
            cols = f", j0 + {offs[1]} : j1 + {offs[1]}" if pattern.rank == 2 else ""
            return f"pads['{e.name}'][{r} + {lo} : {r} + {hi}{cols}]"
        if isinstance(e, UnaryOp):
            return f"(-{go(e.operand)})" if e.op == "-" else go(e.operand)
        if isinstance(e, BinOp):
            return f"({go(e.left)} {e.op} {go(e.right)})"
        raise CodegenError(f"cannot compile expression node {e!r}")

    return go(expr)


def _count_ops(expr: Expr) -> int:
    """Arithmetic operations per element of a vectorized statement."""
    if isinstance(expr, BinOp):
        return 1 + _count_ops(expr.left) + _count_ops(expr.right)
    if isinstance(expr, UnaryOp):
        return (1 if expr.op == "-" else 0) + _count_ops(expr.operand)
    return 0


def _affine_to_py(aff: Affine) -> str:
    """Bounds use the size parameter alone (checked by the recognizer)."""
    return " + ".join([str(aff.const)] + [f"{c} * m" for _, c in sorted(aff.coeffs.items())])


# ---------------------------------------------------------------------------
# emission
# ---------------------------------------------------------------------------

#: Halo tags per rank: left halos travel on ``base + sweep``, right halos
#: on ``base + 100 + sweep`` (kept from the first per-rank lowerings, so
#: traces and metrics of existing runs are unchanged).
_TAG_BASE = {1: 90, 2: 70}


class _HaloMove(NamedTuple):
    """One halo transfer of a sweep, as emitted source fragments."""

    req: str  # request variable of the overlapped form
    dest: str
    payload: str
    src: str
    fill: str
    tag: int


def _halo_moves(pattern: StencilPattern, sweep: Sweep, si: int) -> list[_HaloMove]:
    """My last rows fill my right neighbor's left halo and my first rows
    my left neighbor's right halo.  Ring-wrap values are never consumed:
    the sweep bounds keep edge iterations away from non-existent
    neighbors."""
    halo = pattern.halo
    tag = _TAG_BASE[pattern.rank] + si
    moves = []
    for array, side, width in pattern.exchanges(sweep):
        hl = halo[array][0]
        pad = f"pads['{array}']"
        if side == "left":
            moves.append(_HaloMove(f"req_l_{array}", "right", f"{pad}[cnt:{hl} + cnt]", "left", f"{pad}[:{hl}]", tag))
        else:
            moves.append(
                _HaloMove(f"req_r_{array}", "left", f"{pad}[{hl}:{hl} + {width}]", "right", f"{pad}[{hl} + cnt:]", tag + 100)
            )
    return moves


def _emit_compute(w: CodeWriter, sweep: Sweep, pattern: StencilPattern, lo: str, hi: str, label: str) -> None:
    """Emit the sweep's statements over block rows ``[lo, hi)``."""
    two_d = pattern.rank == 2
    with w.block(f"if {hi} > {lo}{' and j1 > j0' if two_d else ''}:"):
        for st in sweep.stmts:
            hl = pattern.halo[st.lhs_array][0]
            cols = ", j0:j1" if two_d else ""
            expr = _compile_expr(st.rhs, sweep, pattern, lo, hi)
            w.line(f"pads['{st.lhs_array}'][{hl} + {lo} : {hl} + {hi}{cols}] = {expr}")
            if st.flops:
                elems = f"({hi} - {lo}) * (j1 - j0)" if two_d else f"({hi} - {lo})"
                w.line(f"p.compute({st.flops} * {elems}, label='{label}')")


def emit_stencil(pattern: StencilPattern, schedule: OverlapSchedule | None = None) -> GeneratedProgram:
    """Emit the SPMD stencil program for a recognized pattern.

    Without *schedule* every sweep is blocking (exchange halos, then
    compute the block).  With the overlap pass's schedule for *pattern*
    each sweep is rewritten to hide its halo transfers behind the
    interior compute; the strategy is then ``"stencil-overlap"``.
    """
    halo = pattern.halo
    widest = max(max(h) for h in halo.values())
    w = CodeWriter()
    w.lines(
        f"# generated: rank-{pattern.rank} stencil sweeps on row blocks; halo rows travel",
        "# between linear-array neighbors (paper S1: 'dependent data only influence",
        "# neighboring data' -> component alignment + Shift communication)"
        + (", hidden" if schedule else "."),
    )
    if schedule is not None:
        w.line("# behind interior compute: irecv -> isend -> interior -> wait -> boundary.")
    with w.block("def spmd_main(p, env):"):
        w.lines(
            f"m = int(env['{pattern.size_param}'])",
            "n = p.nprocs",
            "lo = p.rank * m // n",
            "hi = (p.rank + 1) * m // n",
            "cnt = hi - lo",
            "left = (p.rank - 1) % n",
            "right = (p.rank + 1) % n",
        )
        if widest:
            # A halo comes from the adjacent block only.
            with w.block(f"if n > 1 and m // n < {widest}:"):
                w.line(
                    "raise MachineError(f'stencil blocks of m // N = {m // n} rows (m={m}, N={n}) "
                    f"are narrower than the {widest}-row halo')"
                )
        if schedule is not None:
            w.line("comm = NBComm(p)")
        w.line("pads = {}")
        for name in pattern.arrays:
            hl, hr = halo[name]
            w.lines(
                f"_g = np.asarray(env['{name}'], dtype=np.float64)",
                f"pads['{name}'] = np.zeros((cnt + {hl} + {hr},) + _g.shape[1:])",
                f"pads['{name}'][{hl}:{hl} + cnt] = _g[lo:hi]",
            )
        steps = f"int(env['{pattern.time_param}'])" if pattern.time_param else "1"
        w.line(f"steps = {steps}")
        with w.block("for _step in range(steps):"):
            for si, sweep in enumerate(pattern.sweeps):
                ov = schedule.sweeps[si] if schedule is not None else None
                loops = " / ".join(
                    f"DO {var} = {lb}, {ub}" for var, (lb, ub) in zip(sweep.loop_vars, sweep.bounds)
                )
                w.line(f"# sweep {si + 1}: {loops}" + (f"  [{' -> '.join(ov.phases)}]" if ov else ""))
                moves = _halo_moves(pattern, sweep, si)
                if ov is None:
                    for mv in moves:
                        with w.block("if n > 1:"):
                            w.lines(
                                f"p.send({mv.dest}, {mv.payload}, tag={mv.tag})",
                                f"{mv.fill} = yield from p.recv({mv.src}, tag={mv.tag})",
                            )
                elif moves:
                    # Post every receive before anything moves, then the sends.
                    with w.block("if n > 1:"):
                        w.lines(*(f"{mv.req} = comm.irecv({mv.src}, tag={mv.tag})" for mv in moves))
                        w.lines(*(f"comm.isend({mv.dest}, {mv.payload}, tag={mv.tag})" for mv in moves))
                # Iteration subrange owned by this block, respecting bounds.
                (i_lb, i_ub), *inner = sweep.bounds
                w.lines(
                    f"g_lo = max({_affine_to_py(i_lb)}, lo + 1)",
                    f"g_hi = min({_affine_to_py(i_ub)}, hi)",
                    "s0 = g_lo - 1 - lo",
                    "s1 = g_hi - lo",
                )
                for j_lb, j_ub in inner:
                    w.lines(f"j0 = {_affine_to_py(j_lb)} - 1", f"j1 = {_affine_to_py(j_ub)}")
                if ov is None or not moves:
                    _emit_compute(w, sweep, pattern, "s0", "s1", "sweep")
                    continue
                # Interior: stencil windows stay inside the pad.
                w.lines(
                    f"i0 = min(max(s0, {ov.margin_left}), s1)",
                    f"i1 = max(min(s1, cnt - {ov.margin_right}), i0)",
                )
                _emit_compute(w, sweep, pattern, "i0", "i1", "interior")
                # Wait for the halos the boundary strips need.
                with w.block("if n > 1:"):
                    w.lines(*(f"{mv.fill} = yield from {mv.req}.wait()" for mv in moves))
                # Boundary strips (the deferred block edges).
                with w.block("for b0, b1 in ((s0, i0), (i1, s1)):"):
                    _emit_compute(w, sweep, pattern, "b0", "b1", "boundary")
        w.line("out = {}")
        for name in pattern.arrays:
            hl = halo[name][0]
            w.lines(
                f"blocks = yield from allgather(p, pads['{name}'][{hl}:{hl} + cnt], tuple(range(n)))",
                f"out['{name}'] = np.concatenate(blocks)",
            )
        w.line("return out")
    return GeneratedProgram(
        source=w.source(),
        entry="spmd_main",
        strategy=pattern.strategy if schedule is None else "stencil-overlap",
        pattern=pattern,
    )
