"""Workload ``autoplan_mixed`` — the auto-planner, which runs nowhere else.

For each seeded matrix (banded bulk + planted dense windows + scattered
residual, plus one pure grid and one pure skew): ``autoplan(coo)`` ->
``plan.compile(coo)`` -> first call, checked; then the chosen plan's bound
call in steady state.  ``analysis.structure``, ``compiler.autoplan`` and
``compiler.specialize`` are exercised by no other workload, and planning
time is dominated by ``plan_hybrid``.  The cost model is pinned to the
built-in ``CostModel()`` so the decisions do not move when a bench run
appends a calibration record to ``BENCH_history.jsonl``.
"""

from __future__ import annotations

import numpy as np

import inputs
import oracle
from measure import Section, Summary, geomean

from repro import COOMatrix, DenseVector, autoplan
from repro.analysis.structure import analyze_structure
from repro.compiler import CostModel, clear_kernel_cache, plan_hybrid

#: (n, half bandwidth, windows, window edge, scattered entries)
PLANTED = {
    "full": [
        (5000, 3, 2, 192, 2000), (6000, 4, 2, 224, 3000), (7000, 3, 3, 160, 3000),
        (8000, 2, 2, 256, 2000), (5000, 8, 4, 64, 4000), (6000, 6, 1, 320, 2000),
    ],
    "probe": [(1500, 3, 2, 96, 600), (2000, 6, 2, 32, 800)],
}
PURE = {"full": dict(grid_m=90, hub=(8000, 8, 12, 2500)), "probe": dict(grid_m=40, hub=(2000, 6, 6, 500))}
CHOICES = ("CRS", "CCS", "Coordinate", "ITPACK", "JDiag", "Diagonal", "BlockDiag", "Inode", "Dense", "Hybrid")


def build(section: Section):
    """Every matrix as (triplets, COO, x, reference y)."""
    out = []
    specs = [(f"planted{k}", lambda rng, a=a: inputs.planted(*a, rng)) for k, a in enumerate(PLANTED[section.scale])]
    pure = PURE[section.scale]
    specs.append(("grid2d", lambda rng: inputs.grid2d(pure["grid_m"])))
    specs.append(("banded_hub", lambda rng: inputs.banded_hub(*pure["hub"], rng)))
    for name, make in specs:
        rng = section.rng("autoplan_mixed", name)
        t = inputs.with_values(name, make(rng), rng)
        coo = COOMatrix.from_entries((t.n, t.n), t.row, t.col, t.val)
        x = rng.standard_normal(t.n)
        out.append((t, coo, x, oracle.matvec(t, x)))
    return out


def run(section: Section) -> None:
    rec = section.recorder
    model = CostModel()
    mats = section.timed_setup(lambda: build(section))
    section.fingerprint = inputs.fingerprint([m[0] for m in mats])

    def first_call(t, coo, x, want):
        def op():
            clear_kernel_cache()  # every operation is a first call
            oid = rec.new_op()
            with rec.span("autoplan_mixed.op", oid):
                with rec.span("compiler.autoplan.autoplan", oid):
                    plan = autoplan(coo, model=model)
                with rec.span("compiler.autoplan.compile", oid):
                    kernel, fmts = plan.compile(coo)
                fmts["X"] = DenseVector(x)
                fmts["Y"] = DenseVector.zeros(t.n)
                with rec.span("compiler.kernels.first_call", oid):
                    kernel(**fmts)
            return plan, kernel, fmts
        return op

    ops = [first_call(*m) for m in mats]
    choices = dict.fromkeys(CHOICES, 0)
    bound = []
    for (t, _coo, _x, want), op in zip(mats, ops):  # warm-up pass, checked
        plan, kernel, fmts = op()
        section.close(fmts["Y"].vals, want, 1e-12, f"{t.name} first call ({plan.format_name})")
        choices[plan.format_name] = choices.get(plan.format_name, 0) + 1
        bound.append(kernel.bind(**fmts))
    for name, n in choices.items():
        section.count(f"compiler.autoplan.choice.{name}", n)

    share = 0.45 if section.trace else 0.8
    samples, kept, _f = section.round_robin(
        ops, section.seconds * share, min_rounds=1, keep=True, collect_each=True
    )
    for (t, _coo, _x, want), outs in zip(mats, kept):
        for _plan, _kernel, fmts in outs:
            section.close(fmts["Y"].vals, want, 1e-12, f"{t.name} first call")
    steady = section.round_robin(bound, section.seconds * 0.15, min_rounds=10)
    per_matrix = [Summary(ns).median for ns in samples]
    section.e2e["autoplan_first_ms"] = float(np.median(per_matrix)) * 1e-6
    section.e2e["autoplan_ns_per_nnz"] = geomean(
        Summary(ns).median / m[0].nnz for ns, m in zip(steady, mats)
    )
    for (t, *_), first, ns, outs in zip(mats, samples, steady, kept):
        s = Summary(ns)
        section.rows.append(
            f"{t.name:<10s} n={t.n:<5d} nnz={t.nnz:<7d} -> {outs[0][0].format_name:<10s} "
            f"first {Summary(first).text(1e-6, 1)} ms   steady {s.text(1e-3, 1)} us  "
            f"{s.median / t.nnz:5.2f} ns/nnz"
        )
    if not section.trace:
        return

    # the planner's stages, called directly
    def stages(t, coo, _x, _want):
        def op():
            oid = rec.new_op()
            with rec.span("analysis.structure.analyze", oid):
                profile = analyze_structure(coo)
            with rec.span("compiler.specialize.plan_hybrid", oid):
                plan_hybrid(coo, profile=profile, model=model)
            with rec.span("compiler.autoplan.autoplan_given_profile", oid):
                autoplan(coo, model=model, profile=profile)
        return op

    section.round_robin(
        [stages(*m) for m in mats], section.seconds * 0.4, min_rounds=1, collect_each=True
    )
    us = section.span_us()
    lay = section.layer
    lay["analysis.structure.analyze_ms"] = float(np.median(us["analysis.structure.analyze"])) * 1e-3
    lay["compiler.specialize.plan_hybrid_ms"] = float(np.median(us["compiler.specialize.plan_hybrid"])) * 1e-3
    # ranking = planning with the profile given, minus the hybrid plan it
    # builds inside; paired per operation, matrices differ too much to pool
    lay["compiler.autoplan.rank_ms"] = float(
        np.median(us["compiler.autoplan.autoplan_given_profile"] - us["compiler.specialize.plan_hybrid"])
    ) * 1e-3
    lay["compiler.autoplan.compile_ms"] = float(np.median(us["compiler.autoplan.compile"])) * 1e-3
