"""Workload ``compile_mix`` — all compiler passes, almost no kernel body.

Two hundred (program, formats, backend) requests drawn from the
benchmark's own copy of ten mini-language programs x eight matrix formats
x two backends, plus ``gauss_seidel``, which must raise
``VerificationError``.  Cold phase: every request carries a unique
``extra_key``, so it is a true miss through key -> single-flight -> insert
-> LRU eviction (the cache is prefilled to its bound).  Warm phase: the
same requests again, all hits.  Cold and warm use ``plan_cache``
differently (writes + evictions vs reads), so a hit-path shortcut that
slows inserts, or the reverse, shows as one metric up and one down.
"""

from __future__ import annotations

import numpy as np

import inputs
from measure import Section, Summary
from spmv_stream import LOWERINGS, lowering_metric

from repro import COOMatrix, CompiledKernel, DenseMatrix, DenseVector, FORMAT_NAMES, compile_kernel
from repro.analysis.depend import check_certificate, classify_program
from repro.compiler import codegen, extract_query, get_backend, kernel_cache_stats, plan_query, split_statement
from repro.compiler.codegen import KernelUnit
from repro.compiler.kernels import KERNEL_CACHE
from repro.compiler.parser import parse
from repro.compiler.plan_cache import kernel_cache_key
from repro.errors import VerificationError

#: the benchmark's own copy: editing examples/kernels/ cannot change the load
PROGRAMS = {
    "spmv": "for i in 0:n { for j in 0:m { Y[i] += A[i,j] * X[j] } }",
    "spmv_t": "for i in 0:n { for j in 0:m { Y[j] += A[i,j] * X[i] } }",
    "spmm": "for i in 0:n { for j in 0:m { for k in 0:l { C[i,k] += A[i,j] * B[j,k] } } }",
    "entrywise": "for i in 0:n { for j in 0:m { C[i,j] += A[i,j] * B[i,j] } }",
    "axpy": "for i in 0:n { Y[i] += alpha * X[i] }",
    "dot": "for z in 0:1 { for i in 0:n { S[z] += X[i] * Y[i] } }",
    "rowprod": "for i in 0:n { for j in 0:m { Y[i] = Y[i] * A[i,j] } }",
    "rowmin": "for i in 0:n { for j in 0:m { M[i] = min(M[i], A[i,j]) } }",
    "colmax": "for i in 0:n { for j in 0:m { M[j] = max(M[j], A[i,j]) } }",
    # two additive terms: exercises statement splitting (two kernel units)
    "two_term": "for i in 0:n { for j in 0:m { Y[i] += A[i,j] * X[j] + B[i,j] * Z[j] } }",
}
GAUSS_SEIDEL = "for i in 0:n { for j in 0:n { X[i] = X[i] - A[i,j] * X[j] } }"
FORMATS = ("CRS", "CCS", "CCCS", "Coordinate", "JDiag", "ITPACK", "Diagonal", "Dense")
BACKENDS = ("vectorized", "interpreted")
#: combinations left out, each for a stated reason
EXCLUDED = {
    # formats that store padding zeros multiply them into the product, so
    # "product over stored entries" has no format-independent answer
    ("rowprod", "Diagonal"), ("rowprod", "Dense"),
    # wrong answer at the seed commit (interpreted is right, vectorized is
    # not); a workload may not contain failing operations — see README
    ("entrywise", "Diagonal", "vectorized"),
}
REQUESTS = 200
#: per-layer metric -> span of the staged replay it is read from
MISS_STAGES = {
    "compiler.parser.parse_us": "compiler.parser.parse",
    "analysis.depend.classify_us": "analysis.depend.classify",
    "compiler.sparsity.split_us": "compiler.sparsity.split",
    "compiler.query_extract.extract_us": "compiler.query_extract.extract",
    "compiler.scheduling.plan_us": "compiler.scheduling.plan",
    "compiler.codegen.generate_us": "compiler.codegen.generate",
    "compiler.codegen.exec_us": "compiler.codegen.exec",
}
HIT_STAGES = {
    "formats.spec_us": "formats.spec",
    "compiler.plan_cache.key_us": "compiler.plan_cache.key",
    "compiler.plan_cache.hit_us": "compiler.plan_cache.hit",
    "analysis.depend.check_certificate_us": "analysis.depend.check_certificate",
}
SCALES = {"full": dict(n=200, per_row=6, k=8), "probe": dict(n=48, per_row=4, k=4)}


def build(section: Section):
    """Matrices in every format, operands, and the request list."""
    p = SCALES[section.scale]
    rng = section.rng("compile_mix")
    n = p["n"]
    t = inputs.with_values("mix", inputs.random_symmetric(n, p["per_row"], rng), rng)
    pos = COOMatrix.from_entries((n, n), t.row, t.col, t.val)
    neg = COOMatrix.from_entries((n, n), t.row, t.col, -t.val)
    mats = {f: section.convert(f, FORMAT_NAMES[f], pos) for f in FORMATS}
    negs = {f: FORMAT_NAMES[f].from_coo(neg) for f in FORMATS}
    data = dict(
        t=t, mats=mats, negs=negs, x=rng.standard_normal(n), z=rng.standard_normal(n),
        B=rng.standard_normal((n, p["k"])), E=rng.standard_normal((n, n)),
    )
    grid = [
        (prog, f, be)
        for prog in PROGRAMS
        for f in (FORMATS if "A[" in PROGRAMS[prog] else ("-",))
        for be in BACKENDS
        if (prog, f) not in EXCLUDED and (prog, f, be) not in EXCLUDED
    ]
    rejected = [("gauss_seidel", f, be) for f in FORMATS for be in BACKENDS]
    extra = [grid[i] for i in rng.integers(0, len(grid), REQUESTS - len(grid) - len(rejected))]
    requests = grid + rejected + extra
    requests = [requests[i] for i in rng.permutation(len(requests))]
    return data, grid, requests


def operands(data, prog: str, f: str):
    """Fresh operands for one run of ``prog``; returns (formats, scalars,
    output array name, expected result computed with plain numpy)."""
    t, x, z = data["t"], data["x"], data["z"]
    n = t.n
    D = t.dense()
    A = data["mats"].get(f)
    vec = lambda v: DenseVector(np.array(v, dtype=np.float64))  # noqa: E731
    if prog == "spmv":
        return {"A": A, "X": vec(x), "Y": vec(np.zeros(n))}, {}, "Y", D @ x
    if prog == "spmv_t":
        return {"A": A, "X": vec(x), "Y": vec(np.zeros(n))}, {}, "Y", D.T @ x
    if prog == "spmm":
        B = data["B"]
        fm = {"A": A, "B": DenseMatrix(B.copy()), "C": DenseMatrix(np.zeros(B.shape))}
        return fm, {}, "C", D @ B
    if prog == "entrywise":
        E = data["E"]
        fm = {"A": A, "B": DenseMatrix(E.copy()), "C": DenseMatrix(np.zeros((n, n)))}
        return fm, {}, "C", D * E
    if prog == "axpy":
        return {"X": vec(x), "Y": vec(z)}, {"alpha": 2.5}, "Y", z + 2.5 * x
    if prog == "dot":
        return {"X": vec(x), "Y": vec(z), "S": vec(np.zeros(1))}, {}, "S", np.array([x @ z])
    if prog == "rowprod":
        want = np.ones(n)
        np.multiply.at(want, t.row, t.val)
        return {"A": A, "Y": vec(np.ones(n))}, {}, "Y", want
    if prog == "rowmin":
        # negative values: zeros a padded format stores can never win the min
        return {"A": data["negs"][f], "M": vec(np.zeros(n))}, {}, "M", np.minimum(0.0, (-D).min(axis=1))
    if prog == "colmax":
        return {"A": A, "M": vec(np.zeros(n))}, {}, "M", np.maximum(0.0, D.max(axis=0))
    if prog == "two_term":
        fm = {"A": A, "B": A, "X": vec(x), "Z": vec(z), "Y": vec(np.zeros(n))}
        return fm, {}, "Y", D @ x + D @ z
    if prog == "gauss_seidel":
        return {"A": A, "X": vec(x)}, {}, "X", None
    raise KeyError(prog)


def result_of(fmt) -> np.ndarray:
    return fmt.vals if isinstance(fmt, DenseVector) else fmt.to_dense()


def replay_build(rec, op, src, fmts, backend, param_names):
    """The passes ``compile_kernel`` runs on a miss, one span each."""
    with rec.span("compiler.parser.parse", op):
        program = parse(src)
    with rec.span("analysis.depend.classify", op):
        classify_program(program, source=src, gate=True)
    sparse = {name for name in program.arrays() if not fmts[name].structurally_dense}
    units = []
    for stmt in program.body:
        with rec.span("compiler.sparsity.split", op):
            pieces = split_statement(stmt)
        for piece in pieces:
            with rec.span("compiler.query_extract.extract", op):
                query = extract_query(program, piece, sparse)
            with rec.span("compiler.scheduling.plan", op):
                plan = plan_query(query, dict(fmts), force_driver=None, allow_merge=True)
            units.append(KernelUnit(piece, plan))
    with rec.span("compiler.codegen.generate", op):
        source, _labels = codegen.generate_source(
            program, units, dict(fmts), param_names, backend=get_backend(backend)
        )
    with rec.span("compiler.codegen.exec", op):
        exec(compile(source, "<pipeline-bench-replay>", "exec"), {"np": np})
    return program, source


def replay_hit(rec, op, program, fmts, backend):
    with rec.span("formats.spec", op):
        for f in fmts.values():
            f.spec()
    with rec.span("compiler.plan_cache.key", op):
        key = kernel_cache_key(program, fmts, backend, None, True, ("warm",))
    with rec.span("compiler.plan_cache.hit", op):
        kern, outcome = KERNEL_CACHE.get_or_compile(key, None, backend=backend)
    with rec.span("analysis.depend.check_certificate", op):
        report = check_certificate(program, kern.certificate)
    return outcome == "hit" and report.ok


def run(section: Section) -> None:
    rec = section.recorder
    warm_kernels: dict[tuple, CompiledKernel] = {}
    request_fmts: dict[tuple, dict] = {}

    def setup():
        """Build inputs, fill the cache to its bound with placeholders, and
        compile the warm set — the state a long-lived process is in."""
        KERNEL_CACHE.clear()
        warm_kernels.clear()
        data, grid, requests = build(section)
        for i in range(KERNEL_CACHE.max_entries - len(grid)):
            KERNEL_CACHE.insert(("pipeline-bench-placeholder", i), i)
        for combo in grid + [r for r in requests if r[0] == "gauss_seidel"]:
            request_fmts[combo] = operands(data, *combo[:2])[0]
        for prog, f, be in grid:
            warm_kernels[prog, f, be] = compile_kernel(
                PROGRAMS[prog], request_fmts[prog, f, be], backend=be, extra_key=("warm",)
            )
        return data, grid, requests

    data, grid, requests = section.timed_setup(setup)
    section.fingerprint = inputs.fingerprint([data["t"], data["x"], data["z"], repr(requests)])

    # every distinct kernel runs once and is checked against dense numpy
    source_chars = 0
    lowerings = dict.fromkeys(LOWERINGS, 0)
    for (prog, f, be), kern in warm_kernels.items():
        fm, scalars, out, want = operands(data, prog, f)
        kern(**fm, **scalars)
        section.close(result_of(fm[out]), want, 1e-12, f"{prog}/{f}/{be}")
        source_chars += len(kern.source)
        for label in kern.unit_backends:
            lowerings[label] = lowerings.get(label, 0) + 1
    section.count("compiler.codegen.source_chars", source_chars)
    for label in LOWERINGS:
        section.count(lowering_metric(label), lowerings[label])

    serial = iter(range(10**9))

    def request(combo, cold: bool):
        prog, f, be = combo
        src = GAUSS_SEIDEL if prog == "gauss_seidel" else PROGRAMS[prog]
        fm = request_fmts[combo]
        span_name = "compile_mix." + (
            "rejected_op" if prog == "gauss_seidel" else "cold_op" if cold else "warm_op"
        )

        def call():
            key = ("cold", next(serial)) if cold else ("warm",)
            try:
                with rec.span(span_name, rec.new_op()):
                    return compile_kernel(src, fm, backend=be, extra_key=key)
            except VerificationError:
                return "rejected"
        return call

    ops = [request(c, True) for c in requests] + [request(c, False) for c in requests]
    is_rejected = np.array([c[0] == "gauss_seidel" for c in requests] * 2)

    def verify(i, out):
        combo, cold = requests[i % len(requests)], i < len(requests)
        if combo[0] == "gauss_seidel":
            ok = out == "rejected" and not section.corrupt_reference
        elif cold:
            ok = isinstance(out, CompiledKernel) and out is not warm_kernels[combo]
        else:
            ok = out is warm_kernels[combo]
        section.check(ok, f"{'cold' if cold else 'warm'} request {combo}: got {out!r}")

    # one untimed, checked warm-up pass; its cache accounting is exact
    before = kernel_cache_stats()
    for i, op in enumerate(ops):
        verify(i, op())
    after = kernel_cache_stats()
    for key in ("hits", "misses", "evictions"):
        section.count(f"compiler.plan_cache.{key}", after[key] - before[key])
    section.count("compiler.plan_cache.size", after["size"])

    samples = section.round_robin(
        ops, section.seconds * (0.5 if section.trace else 1.0), min_rounds=2,
        on_result=verify,
    )
    n = len(requests)
    cold = Summary(np.concatenate([s for s, r in zip(samples[:n], is_rejected) if not r]))
    warm = Summary(np.concatenate([s for s, r in zip(samples[n:], is_rejected) if not r]))
    section.e2e["compile_cold_us"] = cold.median * 1e-3
    section.e2e["compile_warm_us"] = warm.median * 1e-3
    section.rows.append(f"compile_kernel miss  {cold.text(1e-3, 1)} us")
    section.rows.append(f"compile_kernel hit   {warm.text(1e-3, 1)} us")
    if not section.trace:
        return

    # staged replay: the passes of a miss and of a hit, per distinct request
    replay_ok = True

    def replayer(combo):
        prog, f, be = combo
        src, fm, names = PROGRAMS[prog], request_fmts[combo], warm_kernels[combo].param_names

        def call():
            nonlocal replay_ok
            op = rec.new_op()
            with rec.span("compile_mix.replay_miss", op):
                program, _source = replay_build(rec, op, src, fm, be, names)
            with rec.span("compile_mix.replay_hit", op):
                replay_ok &= replay_hit(rec, op, program, fm, be)
            with rec.span("compiler.kernels.compile_uncached", op):
                compile_kernel(src, fm, backend=be, cache=False)
        return call

    section.round_robin([replayer(c) for c in grid], section.seconds * 0.5, min_rounds=2)
    section.check(replay_ok, "staged replay: cache probe missed or certificate rejected")

    us = {name: float(np.median(v)) for name, v in section.span_us(per_op=True).items()}
    lay = section.layer
    for metric, span in {**MISS_STAGES, **HIT_STAGES}.items():
        lay[metric] = us[span]
    stages = sum(lay[metric] for metric in MISS_STAGES)
    lay["compiler.kernels.other_us"] = us["compiler.kernels.compile_uncached"] - stages
    lay["share.compile_mix.passes"] = stages / us["compile_mix.cold_op"]
    lay["share.compile_mix.replay_vs_uncached"] = stages / us["compiler.kernels.compile_uncached"]
