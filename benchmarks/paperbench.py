"""Shared measurement library for the paper-reproduction benchmarks.

Every table and figure of the paper's evaluation is regenerated from the
functions here; the ``bench_*`` modules wrap them for pytest-benchmark and
``harness.py`` prints the paper-style tables (recorded in EXPERIMENTS.md).

Scaling: the paper ran 12,288 rows/processor on an IBM SP-2.  Pure-Python
defaults are smaller (``CELLS_PER_RANK`` grid cells × DOF rows per rank);
set the environment variable ``REPRO_BENCH_SCALE`` (float, default 1.0) to
grow or shrink every workload proportionally.
"""

from __future__ import annotations

import os
import time
from dataclasses import dataclass

import numpy as np

from repro.compiler import compile_kernel
from repro.distribution import MultiBlockDistribution
from repro.formats import (
    BlockSolveMatrix,
    DenseVector,
    matrix_format_by_name,
)
from repro.kernels.spmv import SPMV_SRC
from repro.matrices import TABLE1_MATRICES, stencil_matrix, table1_matrix
from repro.observability.trace import span
from repro.parallel.spmd_blocksolve import BSFragments
from repro.parallel.spmd_spmv import SpmdSpMV
from repro.runtime import CommModel, Machine
from repro.solvers import parallel_cg

SCALE = float(os.environ.get("REPRO_BENCH_SCALE", "1.0"))

#: Table 1 column order (paper Appendix A formats).
TABLE1_FORMATS = ["Diagonal", "Coordinate", "CRS", "ITPACK", "JDiag", "BS95"]
#: Table 1 row order (paper matrices).
TABLE1_NAMES = list(TABLE1_MATRICES)

#: Weak-scaling workload: the paper's 3-D 7-point stencil with 5 dof.
DOF = 5
CELLS_PER_RANK = max(8, int(216 * SCALE))

#: Communication calibration.  Our Python ranks compute roughly this many
#: times slower than the SP-2's compiled node code; scaling the α–β model
#: by the same factor preserves the original machine's compute-to-
#: communication balance, which is what the inspector/executor ratios of
#: Tables 2–3 actually measure.  Override with REPRO_COMM_CALIBRATION.
CALIBRATION = float(os.environ.get("REPRO_COMM_CALIBRATION", "30.0"))
COMM = CommModel(latency=40e-6 * CALIBRATION, inv_bandwidth=25e-9 * CALIBRATION)


# ----------------------------------------------------------------------
# Table 1: sequential SpMV MFlop/s per (matrix, format)
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class Table1Cell:
    """One (matrix, format) measurement, stamped with the backend that
    produced it so a grid can never silently mix executor backends."""

    mflops: float
    backend: str  # "vectorized" / "interpreted" / "library" (BS95)


def spmv_closure(fmt_name: str, coo, backend: str | None = None):
    """A zero-argument y=A·x callable for one (format, matrix) pair.

    Bernoulli-compiled kernels for the simple formats; the hand-written
    library matvec for BS95 (mirroring the paper, where the BS95 column
    is the BlockSolve library — its label is ``"library"`` regardless of
    ``backend``).  Returns (fn, flops_per_call, backend_label).
    """
    cls = matrix_format_by_name(fmt_name)
    A = cls.from_coo(coo)
    x = np.ones(coo.shape[1])
    flops = 2.0 * coo.nnz
    if fmt_name == "BS95":
        return (lambda: A.matvec(x)), flops, "library"
    X = DenseVector(x)
    Y = DenseVector.zeros(coo.shape[0])
    kern = compile_kernel(SPMV_SRC, {"A": A, "X": X, "Y": Y}, backend=backend)

    def fn():
        Y.vals[:] = 0.0
        kern(A=A, X=X, Y=Y)

    return fn, flops, kern.backend


def measure_mflops(fn, flops: float, min_time: float = 0.15, min_reps: int = 3) -> float:
    """Best-of measurement: repeat until ``min_time`` total, report the
    fastest single call as MFlop/s."""
    fn()  # warm up (compilation, caches)
    best = float("inf")
    total = 0.0
    reps = 0
    while total < min_time or reps < min_reps:
        t0 = time.perf_counter()
        fn()
        dt = time.perf_counter() - t0
        best = min(best, dt)
        total += dt
        reps += 1
    return flops / best / 1e6


def run_table1(names=None, formats=None, min_time: float = 0.15, backend: str | None = None):
    """Measure every (matrix, format) pair under one executor backend;
    dict keyed by (name, fmt) of :class:`Table1Cell`."""
    names = names or TABLE1_NAMES
    formats = formats or TABLE1_FORMATS
    out: dict[tuple[str, str], Table1Cell] = {}
    for name in names:
        coo = table1_matrix(name)
        for fmt in formats:
            fn, flops, label = spmv_closure(fmt, coo, backend=backend)
            with span(
                "bench.table1_cell", matrix=name, format=fmt, backend=label, nnz=coo.nnz
            ) as sp:
                mflops = measure_mflops(fn, flops, min_time)
                sp.set(mflops=round(mflops, 2))
            out[(name, fmt)] = Table1Cell(mflops, label)
    return out


def _compiled_backends(results) -> set[str]:
    return {c.backend for c in results.values() if c.backend != "library"}


def format_table1(results, names=None, formats=None) -> str:
    """Paper-style Table 1: rows = matrices, columns = formats; the boxed
    (best) number per row is marked with ``*``.

    Refuses to render a grid whose compiled cells came from different
    executor backends: numbers measured under ``interpreted`` and
    ``vectorized`` are not comparable, and a mixed table would present
    them as if they were.  Use :func:`compare_backends` for that.
    """
    names = names or TABLE1_NAMES
    formats = formats or TABLE1_FORMATS
    backends = _compiled_backends(results)
    if len(backends) > 1:
        raise ValueError(
            f"refusing to format a table mixing executor backends {sorted(backends)}; "
            "cross-backend numbers are not comparable — use compare_backends()"
        )
    w = 12
    header = f"[compiled cells: backend={next(iter(backends))}; BS95: library]" if backends else ""
    lines = ["Name".ljust(12) + "".join(f.rjust(w) for f in formats)]
    for name in names:
        vals = [results[(name, f)].mflops for f in formats]
        best = max(vals)
        cells = [
            (f"{v:.1f}*" if v == best else f"{v:.1f}").rjust(w) for v in vals
        ]
        lines.append(name.ljust(12) + "".join(cells))
    if header:
        lines.append(header)
    return "\n".join(lines)


def geomean(values) -> float:
    vals = np.asarray(list(values), dtype=np.float64)
    if len(vals) == 0:
        raise ValueError("geomean of an empty sequence")
    return float(np.exp(np.log(vals).mean()))


def compare_backends(
    names=None,
    formats=None,
    min_time: float = 0.15,
    baseline: str = "interpreted",
    candidate: str = "vectorized",
):
    """Table 1 under two executor backends, with per-cell speedups.

    Returns ``(base, cand, speedups, geomean_speedup)`` where the speedup
    dict covers *compiled* cells only — the BS95 library column runs the
    same hand-written kernel under either backend and is excluded from
    the comparison rather than diluting it.
    """
    base = run_table1(names, formats, min_time, backend=baseline)
    cand = run_table1(names, formats, min_time, backend=candidate)
    speedups = {
        key: cand[key].mflops / cell.mflops
        for key, cell in base.items()
        if cell.backend != "library" and cand[key].backend != "library"
    }
    return base, cand, speedups, geomean(speedups.values())


def format_backend_comparison(base, cand, speedups, gm) -> str:
    """Per-cell speedup grid (candidate MFlop/s / baseline MFlop/s)."""
    base_name = next(iter(_compiled_backends(base)))
    cand_name = next(iter(_compiled_backends(cand)))
    names = sorted({k[0] for k in speedups}, key=lambda n: TABLE1_NAMES.index(n))
    formats = sorted({k[1] for k in speedups}, key=lambda f: TABLE1_FORMATS.index(f))
    w = 12
    lines = [
        f"speedup: {cand_name} over {base_name} (MFlop/s ratio; library cells excluded)",
        "Name".ljust(12) + "".join(f.rjust(w) for f in formats),
    ]
    for name in names:
        lines.append(
            name.ljust(12)
            + "".join(f"{speedups[(name, f)]:.2f}x".rjust(w) for f in formats)
        )
    lines.append(f"geomean speedup: {gm:.2f}x over {len(speedups)} cells")
    return "\n".join(lines)


# ----------------------------------------------------------------------
# Tables 2 & 3 + Figure 4: the parallel CG experiment
# ----------------------------------------------------------------------
@dataclass
class CGMeasurement:
    """One (variant, P) cell of Tables 2/3."""

    variant: str
    nprocs: int
    niter: int
    executor_seconds: float  # estimated parallel time, whole executor phase
    inspector_seconds: float

    @property
    def inspector_ratio(self) -> float:
        """Inspector time / one executor iteration (Table 3's quantity)."""
        return self.inspector_seconds / (self.executor_seconds / self.niter)


def weak_scaling_problem(nprocs: int, cells_per_rank: int | None = None, dof: int = DOF):
    """The paper's synthetic problem at P ranks: a 3-D grid sized so every
    rank holds ``cells_per_rank`` points (7-pt stencil, ``dof`` dof)."""
    cells = cells_per_rank or CELLS_PER_RANK
    total = cells * nprocs
    # fixed 6×6 cross-section, grow the third dimension with P
    nz = max(1, int(round(total / 36)))
    return stencil_matrix((6, 6, nz), dof=dof, rng=97)


_BS_CACHE: dict[tuple, tuple] = {}


def _bs_problem(nprocs: int, cells_per_rank: int | None = None):
    key = (nprocs, cells_per_rank or CELLS_PER_RANK)
    if key not in _BS_CACHE:
        coo = weak_scaling_problem(nprocs, cells_per_rank)
        bs = BlockSolveMatrix.from_coo(coo)
        dist = MultiBlockDistribution.from_color_classes(bs.clique_ptr, bs.colors, nprocs)
        _BS_CACHE[key] = (coo, bs, dist)
    return _BS_CACHE[key]


def run_cg_measurement(
    variant: str,
    nprocs: int,
    niter: int = 10,
    cells_per_rank: int | None = None,
    warmup: bool = True,
) -> CGMeasurement:
    """One CG run of a Bernoulli/BlockSolve variant; times from the
    machine's phase statistics under the α–β model."""
    coo, bs, dist = _bs_problem(nprocs, cells_per_rank)
    rng = np.random.default_rng(5)
    b = rng.standard_normal(coo.shape[0])
    if warmup:
        # compile kernels, fault in numpy paths, warm allocator caches
        parallel_cg(bs, b, nprocs=nprocs, variant=variant, niter=1, dist=dist)
    res = parallel_cg(bs, b, nprocs=nprocs, variant=variant, niter=niter, dist=dist)
    stats = res.stats
    return CGMeasurement(
        variant,
        nprocs,
        niter,
        executor_seconds=stats.phase("executor").parallel_time(COMM),
        inspector_seconds=stats.phase("inspector").parallel_time(COMM),
    )


def run_indirect_inspector(
    mixed: bool,
    nprocs: int,
    niter_for_ratio: int = 10,
    cells_per_rank: int | None = None,
    warmup: bool = True,
) -> float:
    """Inspector seconds of the Chaos (HPF-2 INDIRECT) path on the same
    problem and the same partitioning, expressed as an indirect map."""
    if warmup:
        run_indirect_inspector(mixed, nprocs, niter_for_ratio, cells_per_rank, warmup=False)
    _, bs, dist = _bs_problem(nprocs, cells_per_rank)
    # the mixed-bs / global-bs statements with translated ownership;
    # carving is assembly, untimed — only inspect() is measured
    frs = [BSFragments(p, dist, bs) for p in range(nprocs)]
    insps = [
        SpmdSpMV(
            p, dist, fr.mixed_terms() if mixed else fr.global_terms(), fr.rows_global,
            translated=True,
        )
        for p, fr in enumerate(frs)
    ]

    def make(p):
        yield ("phase", "inspector")
        yield from insps[p].inspect()
        return insps[p].sched.nghost

    machine = Machine(nprocs)
    _, stats = machine.run(make)
    return stats.phase("inspector").parallel_time(COMM)


def run_comm_optimization(
    nprocs: int = 4, niter: int = 10, cells_per_rank: int | None = None
) -> dict:
    """The communication-optimization measurement behind BENCH_comm.json.

    Three paired runs of the same mixed-spec CG solve, each isolating one
    :class:`~repro.runtime.comm.CommOptions` knob:

    * **schedule reuse** — cold vs warm solve sharing a
      :class:`~repro.runtime.schedule_cache.ScheduleCache`: the warm
      inspector pays one agreement allreduce instead of the request
      exchange, amortizing inspection to ~once per structure,
    * **coalescing** — packed envelopes vs one ``(slot, value)`` envelope
      per ghost value, compared under the α–β model,
    * **overlap** — nonblocking exchange + interior compute vs blocking,
      compared as modeled parallel time.

    Every pair also checks bitwise-identical iterates — the knobs'
    contract — and the returned dict carries the observability snapshot
    (``inspector.cache_hits``, ``comm.coalesced_msgs``,
    ``comm.overlap_ratio``, ...).
    """
    from repro.observability import metrics as _metrics
    from repro.runtime.schedule_cache import ScheduleCache

    coo, bs, dist = _bs_problem(nprocs, cells_per_rank)
    rng = np.random.default_rng(5)
    b = rng.standard_normal(coo.shape[0])

    def solve(iters=niter, **kw):
        return parallel_cg(
            bs, b, nprocs, variant="mixed-bs", niter=iters, dist=dist, **kw
        )

    solve(iters=1)  # warm kernels/compile caches, untimed

    def insp(stats):
        w = stats.phase("inspector")
        return {
            "msgs": w.total_msgs(),
            "nbytes": w.total_nbytes(),
            "seconds": w.parallel_time(COMM),
        }

    reg = _metrics.enable_metrics()
    # (a) schedule reuse: cold vs warm against one shared cache
    cache = ScheduleCache()
    cold = solve(schedule_cache=cache)
    warm = solve(schedule_cache=cache)
    # (b) coalescing: packed envelopes vs per-value Fragmented baseline
    co = solve(overlap=False, coalesce=True)
    pv = solve(overlap=False, coalesce=False)
    # (c) overlap: nonblocking + interior compute vs blocking
    on = solve(overlap=True)
    off = solve(overlap=False)
    snapshot = {
        k: v
        for k, v in reg.snapshot().items()
        if any(t in k for t in ("cache", "coalesced", "pervalue", "overlap"))
    }
    _metrics.disable_metrics()

    for other in (warm, co, pv, on, off):
        if not np.array_equal(cold.x, other.x):
            raise AssertionError("comm knobs changed the computed iterates")

    ex_co = co.stats.phase("executor")
    ex_pv = pv.stats.phase("executor")
    return {
        "nprocs": nprocs,
        "niter": niter,
        "n": int(coo.shape[0]),
        "calibration": CALIBRATION,
        "schedule_reuse": {
            "cold_inspector": insp(cold.stats),
            "warm_inspector": insp(warm.stats),
            "cache": cache.stats.as_dict(),
        },
        "coalescing": {
            "coalesced": {
                "executor_msgs": ex_co.total_msgs(),
                "executor_nbytes": ex_co.total_nbytes(),
                "comm_seconds": ex_co.comm_time(COMM),
            },
            "per_value": {
                "executor_msgs": ex_pv.total_msgs(),
                "executor_nbytes": ex_pv.total_nbytes(),
                "comm_seconds": ex_pv.comm_time(COMM),
            },
        },
        "overlap": {
            "on_parallel_seconds": on.stats.parallel_time(COMM),
            "off_parallel_seconds": off.stats.parallel_time(COMM),
            "on_blocking_equivalent_seconds": sum(
                p.step_time(COMM) for p in on.stats.phases
            ),
        },
        "metrics": snapshot,
    }


def run_table2(P_list=(2, 4, 8), niter: int = 10, cells_per_rank: int | None = None):
    """Table 2: executor seconds for the trio at each P."""
    rows = []
    for P in P_list:
        cells = {}
        for variant in ("blocksolve", "mixed-bs", "global-bs"):
            cells[variant] = run_cg_measurement(variant, P, niter, cells_per_rank)
        rows.append((P, cells))
    return rows


def format_table2(rows) -> str:
    lines = [
        f"{'P':>3} {'BlockSolve':>12} {'Bern-Mixed':>12} {'diff':>8} {'Bernoulli':>12} {'diff':>8}"
    ]
    for P, cells in rows:
        t_bs = cells["blocksolve"].executor_seconds
        t_mx = cells["mixed-bs"].executor_seconds
        t_gl = cells["global-bs"].executor_seconds
        lines.append(
            f"{P:>3} {t_bs:>12.4f} {t_mx:>12.4f} {100 * (t_mx - t_bs) / t_bs:>7.1f}% "
            f"{t_gl:>12.4f} {100 * (t_gl - t_bs) / t_bs:>7.1f}%"
        )
    return "\n".join(lines)


def run_table3(P_list=(2, 4, 8), niter: int = 10, cells_per_rank: int | None = None):
    """Table 3: inspector overhead ratios (inspector / one executor
    iteration).  Indirect-* use the Bernoulli executors as the denominator,
    exactly as the paper does."""
    rows = []
    for P in P_list:
        ms = {
            v: run_cg_measurement(v, P, niter, cells_per_rank)
            for v in ("blocksolve", "mixed-bs", "global-bs")
        }
        per_iter_mixed = ms["mixed-bs"].executor_seconds / niter
        per_iter_global = ms["global-bs"].executor_seconds / niter
        ind_mixed = run_indirect_inspector(True, P, niter, cells_per_rank)
        ind_naive = run_indirect_inspector(False, P, niter, cells_per_rank)
        rows.append(
            (
                P,
                {
                    "BlockSolve": ms["blocksolve"].inspector_ratio,
                    "Bernoulli-Mixed": ms["mixed-bs"].inspector_ratio,
                    "Bernoulli": ms["global-bs"].inspector_ratio,
                    "Indirect-Mixed": ind_mixed / per_iter_mixed,
                    "Indirect": ind_naive / per_iter_global,
                },
            )
        )
    return rows


def format_table3(rows) -> str:
    cols = ["BlockSolve", "Bernoulli-Mixed", "Bernoulli", "Indirect-Mixed", "Indirect"]
    lines = [f"{'P':>3} " + " ".join(c.rjust(16) for c in cols)]
    for P, cells in rows:
        lines.append(
            f"{P:>3} " + " ".join(f"{cells[c]:>16.2f}" for c in cols)
        )
    return "\n".join(lines)


def run_fig4(P_list=(8, 64), ks=None, niter: int = 10, cells_per_rank: int | None = None):
    """Figure 4: (k + r_I) / (k + r_B) for iteration counts k — the
    relative cost of the Indirect-Mixed solver vs Bernoulli-Mixed as the
    problem conditioning (iteration count) varies (paper Eq. 25)."""
    ks = list(ks) if ks is not None else list(range(5, 101))
    series = {}
    for P in P_list:
        m = run_cg_measurement("mixed-bs", P, niter, cells_per_rank)
        per_iter = m.executor_seconds / niter
        r_b = m.inspector_seconds / per_iter
        r_i = run_indirect_inspector(True, P, niter, cells_per_rank) / per_iter
        series[P] = {
            "r_B": r_b,
            "r_I": r_i,
            "k": ks,
            "ratio": [(k + r_i) / (k + r_b) for k in ks],
        }
    return series


def format_fig4(series) -> str:
    lines = []
    for P, s in sorted(series.items()):
        lines.append(
            f"P={P}: r_B={s['r_B']:.2f} iterations, r_I={s['r_I']:.2f} iterations"
        )
        marks = [5, 10, 20, 40, 60, 80, 100]
        for k in marks:
            if k in s["k"]:
                r = s["ratio"][s["k"].index(k)]
                lines.append(f"  k={k:>3}: Indirect-Mixed / Bernoulli-Mixed = {r:.3f}")
        # iterations needed to get within 10% / 20%
        for pct in (0.10, 0.20):
            within = [k for k, r in zip(s["k"], s["ratio"]) if r <= 1 + pct]
            txt = str(within[0]) if within else f">{s['k'][-1]}"
            lines.append(f"  within {int(pct * 100)}%: k >= {txt}")
    return "\n".join(lines)
