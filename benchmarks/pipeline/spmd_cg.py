"""Workload ``spmd_cg`` — the paper's Tables 2-3 path.

``parallel_cg(A, b, nprocs, variant, niter=20)`` on a 3-D 7-point stencil
(dof 3): ``parallel.fragment``, ``runtime.inspector``, ``schedule_cache``,
exchange and ``Machine``.  Half the calls get a fresh ``ScheduleCache()``
(the inspector builds), half a warm one (hits) — the same layer used two
ways.  Ranks are simulated in one process, so nprocs changes message
counts, not core use.
"""

from __future__ import annotations

import numpy as np

import inputs
import oracle
from measure import Section, Summary, geomean

from repro import BlockSolveMatrix, COOMatrix, CRSMatrix, DenseVector, compile_kernel, parallel_cg
from repro.compiler import kernel_cache_stats
from repro.distribution import BlockDistribution
from repro.parallel.fragment import partition_rows
from repro.runtime.schedule_cache import ScheduleCache

SPMV = "for i in 0:n { for j in 0:m { Y[i] += A[i,j] * X[j] } }"
NITER = 20
SCALES = {
    "full": dict(
        m=16,
        configs=[("mixed", 4), ("mixed", 8), ("global", 4), ("global", 8),
                 ("blocksolve", 4), ("blocksolve", 8), ("mixed-bs", 4)],
    ),
    "probe": dict(m=7, configs=[("mixed", 4), ("global", 8), ("blocksolve", 4), ("mixed-bs", 4)]),
}


def build(section: Section):
    p = SCALES[section.scale]
    rng = section.rng("spmd_cg")
    t = inputs.spd_values("stencil3d", inputs.stencil3d(p["m"], 3), rng)
    coo = COOMatrix.from_entries((t.n, t.n), t.row, t.col, t.val)
    bs = section.convert("BS95", BlockSolveMatrix, coo)
    return t, coo, bs, rng.standard_normal(t.n)


def run(section: Section) -> None:
    rec = section.recorder
    configs = SCALES[section.scale]["configs"]
    t, coo, bs, b = section.timed_setup(lambda: build(section))
    section.fingerprint = inputs.fingerprint([t, b])
    want = oracle.pcg_fixed(t, b, NITER)

    def pair(variant, nprocs):
        """One cold call (fresh schedule cache: the inspector builds) and
        one warm call (same cache: hits)."""
        A = bs if variant in ("blocksolve", "mixed-bs") else coo
        caches = []

        def call(fresh: bool):
            if fresh:
                caches[:] = [ScheduleCache()]
            with rec.span("solvers.parallel_cg", rec.new_op()) as sid:
                before = kernel_cache_stats()
                res = parallel_cg(A, b, nprocs, variant, niter=NITER, schedule_cache=caches[0])
                after = kernel_cache_stats()
            res.compiles = after["hits"] + after["misses"] - before["hits"] - before["misses"]
            res.cache_stats = caches[0].stats.as_dict()
            if section.trace:  # child intervals from the returned RunStats
                start = rec.spans[sid][1]
                for phase in ("inspector", "executor"):
                    busy = int(res.stats.phase(phase).total_compute().sum() * 1e9)
                    rec.add(f"runtime.{phase}", start, start + busy, sid)
                    start += busy
            return res

        return [lambda: call(True), lambda: call(False)]

    def checker(pairs):
        """Result check for calls made in (cold, warm) order over ``pairs``:
        plain numpy PCG for both, bitwise equality within the pair."""
        cold_x = {}

        def check(i, res):
            variant, nprocs = pairs[i // 2]
            label = f"{variant}/P={nprocs}"
            section.close(res.x, want, 1e-9, f"{label} x vs numpy PCG({NITER})")
            section.check(res.iterations == NITER, f"{label}: ran {res.iterations} iterations")
            if i % 2 == 0:
                cold_x[i // 2] = res.x
            else:
                section.check(
                    np.array_equal(res.x, cold_x[i // 2]) and not section.corrupt_reference,
                    f"{label}: warm-schedule-cache solve is not bitwise equal to the cold one",
                )
        return check

    # untimed warm-up: each variant once (kernels compiled, heap grown)
    warmup = [(v, min(p for w, p in configs if w == v)) for v in dict.fromkeys(v for v, _p in configs)]
    check = checker(warmup)
    for i, fn in enumerate(fn for pr in warmup for fn in pair(*pr)):
        check(i, fn())

    fns = [fn for variant, nprocs in configs for fn in pair(variant, nprocs)]
    samples, kept, factors = section.round_robin(
        fns, section.seconds * 0.9, min_rounds=1, keep=True, collect_each=True,
        on_result=checker(configs),
    )
    # counts that repeat exactly: taken from the first round
    first_cold = [kept[2 * i][0] for i in range(len(configs))]
    first_warm = [kept[2 * i + 1][0] for i in range(len(configs))]
    for key in ("hits", "misses", "rejected"):
        section.count(f"runtime.schedule_cache.{key}", sum(r.cache_stats[key] for r in first_warm))
    section.count("runtime.comm.msgs", sum(r.stats.total_msgs() for r in first_cold))
    section.count("runtime.comm.bytes", sum(r.stats.total_nbytes() for r in first_cold))

    wall, model = [], []
    inspector = {"cold": [], "warm": []}
    executor, comm, overhead = [], [], []
    compile_calls, wall_total = 0, 0.0
    for i, (variant, nprocs) in enumerate(configs):
        s = Summary(np.concatenate(samples[2 * i : 2 * i + 2]))
        wall.append(s.median)
        model_ms = []
        for kind, j in (("cold", 2 * i), ("warm", 2 * i + 1)):
            for ns, res, factor in zip(samples[j], kept[j], factors[j]):
                st = res.stats
                to_ms = 1e3 / factor  # model seconds come off the same clock
                model_ms.append(st.parallel_time() * to_ms)
                inspector[kind].append(st.phase("inspector").parallel_time() * to_ms)
                executor.append(st.phase("executor").parallel_time() * to_ms)
                comm.append(st.comm_time() * 1e3)
                overhead.append(ns * 1e-6 - st.total_compute().sum() * to_ms)
                compile_calls += res.compiles
                wall_total += ns * 1e-6
        model.append(float(np.median(model_ms)))
        section.rows.append(
            f"{variant:<10s} P={nprocs}  n={t.n} nnz={t.nnz}  wall {s.text(1e-6, 2)} ms  "
            f"model {model[-1]:7.2f} ms"
        )
    section.e2e["spmd_wall_ms"] = geomean(wall) * 1e-6
    section.e2e["spmd_model_ms"] = geomean(model)

    lay = section.layer
    lay["runtime.inspector.phase_ms"] = float(np.median(inspector["cold"]))
    lay["runtime.schedule_cache.warm_saving_ms"] = float(np.median(inspector["cold"]) - np.median(inspector["warm"]))
    lay["runtime.executor.phase_ms"] = float(np.median(executor))
    lay["runtime.executor.iter_ms"] = float(np.median(executor)) / NITER
    lay["runtime.inspector.over_iter"] = lay["runtime.inspector.phase_ms"] / lay["runtime.executor.iter_ms"]
    lay["runtime.comm.model_ms"] = float(np.median(comm))
    lay["runtime.machine.overhead_ms"] = float(np.median(overhead))

    # layers the call does not report: measured around direct calls
    crs = CRSMatrix.from_coo(coo)
    fmts = {"A": crs, "X": DenseVector(b), "Y": DenseVector.zeros(t.n)}
    compile_kernel(SPMV, fmts)

    def partition():
        for nprocs in sorted({p for _v, p in configs}):
            with rec.span("parallel.fragment.partition"):
                partition_rows(coo, BlockDistribution(t.n, nprocs))

    def warm_hit():
        for _ in range(8):
            with rec.span("compiler.kernels.warm_hit"):
                compile_kernel(SPMV, fmts)

    part, hit = section.round_robin([partition, warm_hit], section.seconds * 0.1)
    nparts = len({p for _v, p in configs})
    lay["parallel.fragment.partition_ms"] = Summary(part).median * 1e-6 / nparts
    lay["compiler.kernels.warm_hit_us"] = Summary(hit).median * 1e-3 / 8
    lay["share.spmd_cg.compile_kernel"] = (
        compile_calls * lay["compiler.kernels.warm_hit_us"] * 1e-3 / wall_total
    )
