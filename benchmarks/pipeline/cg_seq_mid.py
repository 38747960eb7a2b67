"""Workload ``cg_seq_mid`` — the fixed-overhead regime.

``repro.cg(A, b, diag, tol=1e-8)`` on four SPD structures, n in
[1e3, 4e3], x {CRS, Coordinate, JDiag}: the paper's "compile once,
iterate" user.  Every iteration re-enters ``spmv()`` -> a warm
``compile_kernel`` (re-parse, classify, key, certificate check), an
unbound dispatch and a 40-80 us kernel, so the *hit path* is the majority
of an iteration.  Hit-path work shows here and not on ``spmv_stream``.
"""

from __future__ import annotations

import numpy as np

import inputs
import oracle
from measure import Section, Summary, geomean

import repro
from repro import COOMatrix, DenseVector, FORMAT_NAMES, compile_kernel
from repro.analysis.depend import check_certificate, classify_program
from repro.compiler.kernels import KERNEL_CACHE
from repro.compiler.parser import parse
from repro.compiler.plan_cache import kernel_cache_key

SPMV = "for i in 0:n { for j in 0:m { Y[i] += A[i,j] * X[j] } }"
FORMATS = ("CRS", "Coordinate", "JDiag")
TOL = 1e-8
BURST = 8

SCALES = {
    "full": dict(grid_m=50, stencil_m=12, band_n=4000, rand_n=3000),
    "probe": dict(grid_m=32, band_n=1500),
}


def patterns(scale: str):
    p = SCALES[scale]
    yield "grid2d", lambda rng: inputs.grid2d(p["grid_m"])
    if "stencil_m" in p:
        yield "stencil3d", lambda rng: inputs.stencil3d(p["stencil_m"], 1)
    yield "banded", lambda rng: inputs.banded(p["band_n"], 4)
    if "rand_n" in p:
        yield "random_sym", lambda rng: inputs.random_symmetric(p["rand_n"], 6, rng)


def build(section: Section):
    """Every (structure, format) system: triplets, matrix, rhs, diagonal."""
    systems = []
    for name, make in patterns(section.scale):
        rng = section.rng("cg_seq_mid", name)
        t = inputs.spd_values(name, make(rng), rng)
        coo = COOMatrix.from_entries((t.n, t.n), t.row, t.col, t.val)
        b = rng.standard_normal(t.n)
        diag = t.val[t.row == t.col]
        for fname in FORMATS:
            systems.append((t, fname, section.convert(fname, FORMAT_NAMES[fname], coo), b, diag))
    return systems


def replay_hit_path(rec, op, fmts):
    """The passes one warm ``compile_kernel`` runs, one span each."""
    with rec.span("compiler.parser.parse", op):
        program = parse(SPMV)
    with rec.span("analysis.depend.classify", op):
        classify_program(program, source=SPMV, gate=True)
    with rec.span("formats.spec", op):
        for f in fmts.values():
            f.spec()
    with rec.span("compiler.plan_cache.key", op):
        key = kernel_cache_key(program, fmts, "vectorized", None, True, ())
    with rec.span("compiler.plan_cache.hit", op):
        kern, outcome = KERNEL_CACHE.get_or_compile(key, None, backend="vectorized")
    with rec.span("analysis.depend.check_certificate", op):
        report = check_certificate(program, kern.certificate)
    return kern, outcome == "hit" and report.ok


def run(section: Section) -> None:
    rec = section.recorder
    systems = section.timed_setup(lambda: build(section))
    section.fingerprint = inputs.fingerprint([s[0] for s in systems[:: len(FORMATS)]])

    iterations = {}

    def solver(i, t, A, b, diag):
        def solve():
            with rec.span("solvers.cg", rec.new_op()):
                res = repro.cg(A, b, diag, tol=TOL)
            iterations[i] = res.iterations
            return res
        return solve

    solves = [solver(i, t, A, b, diag) for i, (t, _f, A, b, diag) in enumerate(systems)]

    def check(i, res):
        if res is None:  # the recorder-off twin of a traced solve
            return
        t, fname, _A, b, _d = systems[i]
        resid = oracle.true_residual(t, res.x, b)
        if section.corrupt_reference:
            resid += 1.0
        section.check(
            res.converged and resid <= 1e-6,
            f"{t.name}/{fname}: true residual {resid:.2e} > 1e-6 (converged={res.converged})",
        )

    for i, solve in enumerate(solves):  # warm-up pass, checked like every later solve
        check(i, solve())

    # traced runs interleave each solve with its recorder-off twin, so the
    # two see the same drift and their ratio is the recorder's overhead
    def untraced(solve):
        def call():
            rec.enabled = False
            try:
                solve()
            finally:
                rec.enabled = section.trace
        return call

    twins = [untraced(s) for s in solves] if section.trace else []
    samples = section.round_robin(
        solves + twins, section.seconds * (0.55 if section.trace else 1.0), on_result=check
    )
    medians = []
    for i, ((t, fname, _A, _b, _d), ns) in enumerate(zip(systems, samples)):
        s = Summary(ns)
        medians.append(s.median)
        section.rows.append(
            f"{t.name:<10s} {fname:<10s} n={t.n:<5d} nnz={t.nnz:<6d} iters={iterations[i]:<4d}"
            f"{s.text(1e-6)} ms  {s.median * 1e-3 / iterations[i]:7.1f} us/iter"
        )
    section.e2e["cg_solve_ms"] = geomean(medians) * 1e-6
    iter_us = geomean(m * 1e-3 / iterations[i] for i, m in enumerate(medians))
    section.layer["solvers.cg.iter_us"] = iter_us
    section.count("solvers.cg.iterations", sum(iterations.values()))
    if not section.trace:
        return
    section.layer["trace.overhead_share"] = (
        geomean(medians) / geomean(Summary(ns).median for ns in samples[len(solves):]) - 1.0
    )

    # Per row, in bursts (a solver iterates on one matrix, so its code and
    # data are warm): the SpMV step exactly as ``spmv()`` runs it each
    # iteration, then the staged replay of what the warm hit does inside.
    replay_ok = True
    ops = []
    for t, _fname, A, b, _d in systems:
        fmts = {"A": A, "X": DenseVector(b), "Y": DenseVector.zeros(t.n)}

        def op(fmts=fmts):
            nonlocal replay_ok
            for _ in range(BURST):
                oid = rec.new_op()
                with rec.span("cg_seq_mid.spmv_step", oid):
                    with rec.span("compiler.kernels.warm_hit", oid):
                        kern = compile_kernel(SPMV, fmts)
                    with rec.span("compiler.kernels.unbound_call", oid):
                        kern(**fmts)
            for _ in range(BURST):
                oid = rec.new_op()
                with rec.span("cg_seq_mid.replay", oid):
                    kern, ok = replay_hit_path(rec, oid, fmts)
                    replay_ok &= ok
                    with rec.span("compiler.kernels.bind", oid):
                        bound = kern.bind(**fmts)
                    with rec.span("compiler.kernels.body", oid):
                        bound()
        ops.append(op)
    section.round_robin(ops, section.seconds * 0.3)
    section.check(replay_ok, "staged replay: cache probe missed or certificate rejected")

    us = {k: float(np.median(v)) for k, v in section.span_us().items()}
    lay = section.layer
    lay["compiler.parser.parse_us"] = us["compiler.parser.parse"]
    lay["analysis.depend.classify_us"] = us["analysis.depend.classify"]
    lay["analysis.depend.check_certificate_us"] = us["analysis.depend.check_certificate"]
    lay["formats.spec_us"] = us["formats.spec"]
    lay["compiler.plan_cache.key_us"] = us["compiler.plan_cache.key"]
    lay["compiler.plan_cache.hit_us"] = us["compiler.plan_cache.hit"]
    lay["compiler.kernels.warm_hit_us"] = us["compiler.kernels.warm_hit"]
    lay["compiler.kernels.bind_us"] = us["compiler.kernels.bind"]
    lay["compiler.kernels.body_us"] = us["compiler.kernels.body"]
    lay["compiler.kernels.dispatch_us"] = us["compiler.kernels.unbound_call"] - us["compiler.kernels.body"]
    lay["solvers.cg.vector_ops_us"] = (
        iter_us - us["compiler.kernels.warm_hit"] - us["compiler.kernels.unbound_call"]
    )
    hit_path = sum(
        us[k]
        for k in (
            "compiler.parser.parse", "analysis.depend.classify", "compiler.plan_cache.key",
            "compiler.plan_cache.hit", "analysis.depend.check_certificate",
        )
    )
    lay["share.cg_seq_mid.hit_path"] = hit_path / iter_us

    # what the repo's own tracing + metrics cost a bound call when enabled
    t, _f, A, b, _d = systems[0]
    fmts = {"A": A, "X": DenseVector(b), "Y": DenseVector.zeros(t.n)}
    bound = compile_kernel(SPMV, fmts).bind(**fmts)
    (off,) = section.round_robin([bound], section.seconds * 0.05, min_rounds=30)
    repro.enable_tracing()
    repro.enable_metrics()
    try:
        (on,) = section.round_robin([bound], section.seconds * 0.05, min_rounds=30)
    finally:
        repro.disable_tracing()
        repro.disable_metrics()
    lay["observability.enabled_overhead_share"] = Summary(on).median / Summary(off).median - 1.0
