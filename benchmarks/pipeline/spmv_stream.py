"""Workload ``spmv_stream`` — the generated kernel body does ~all the work.

``compile_kernel(SPMV).bind(...)()`` repeated on three structures, one
row per (structure, format): compile once, bind once, call many times.
Bandwidth regime: a better lowering or hoisted index sets show here; a
cheaper cache hit must not.  Structures are processed one at a time so
the process holds one matrix's formats, not thirteen (fresh pages are the
most expensive thing on the build VM).
"""

from __future__ import annotations

import numpy as np

import inputs
import oracle
import yardstick
from measure import Section, Summary, geomean

from repro import COOMatrix, DenseVector, FORMAT_NAMES, compile_kernel

SPMV = "for i in 0:n { for j in 0:m { Y[i] += A[i,j] * X[j] } }"
L2_BYTES = 4 << 20

#: full: nnz ~ 5e5 per structure (CRS data 8 MB vs the 4 MiB L2); probe: the
#: cross-section that other workloads' runs carry
SCALES = {
    "full": dict(grid_m=316, stencil_m=17, hub_n=30_000, hubs=20, hub_len=2500),
    "probe": dict(grid_m=141, stencil_m=10, hub_n=6_000, hubs=10, hub_len=1000),
}
LOWERINGS = ("segmented", "vectorized", "block", "reduce-scatter", "fallback:scalar")


def lowering_metric(label: str) -> str:
    return "compiler.backends.units_" + label.replace("-", "_").replace(":", "_")


def patterns(scale: str):
    p = SCALES[scale]
    yield "grid2d", lambda rng: inputs.grid2d(p["grid_m"])
    yield "stencil3d", lambda rng: inputs.stencil3d(p["stencil_m"], 4)
    yield "banded_hub", lambda rng: inputs.banded_hub(
        p["hub_n"], 7, p["hubs"], p["hub_len"], rng
    )


def feasible_formats(t: inputs.Triplets) -> list[str]:
    """Padded formats only where padding stays within 2x (ITPACK) or 4x
    (Diagonal) of the stored entries."""
    out = ["CRS", "Coordinate", "JDiag"]
    if int(np.bincount(t.row, minlength=t.n).max()) * t.n <= 2 * t.nnz:
        out.append("ITPACK")
    if len(np.unique(t.col - t.row)) * t.n <= 4 * t.nnz:
        out.append("Diagonal")
    return out


def build(section: Section, name: str, make):
    """Triplets -> COO -> every feasible format (the timed set-up)."""
    rng = section.rng("spmv_stream", name)
    t = inputs.with_values(name, make(rng), rng)
    coo = COOMatrix.from_entries((t.n, t.n), t.row, t.col, t.val)
    mats = {f: section.convert(f, FORMAT_NAMES[f], coo) for f in feasible_formats(t)}
    return t, mats


def storage_bytes(fmt) -> int:
    return int(sum(np.asarray(a).nbytes for a in fmt.storage("A").values()))


def run(section: Section) -> None:
    rec = section.recorder
    structures = list(patterns(section.scale))
    budget = section.seconds / len(structures)
    prints = []
    ns_per_nnz, body_us, gbs, mflops, vs_scipy = [], [], [], [], []
    flops = bytes_computed = source_chars = 0
    lowerings = dict.fromkeys(LOWERINGS, 0)
    yard: dict[str, list[float]] = {}

    for name, make in structures:
        t, mats = section.timed_setup(lambda: build(section, name, make))
        prints.append(t)
        x = section.rng("spmv_stream", name, "x").standard_normal(t.n)
        want = oracle.matvec(t, x)
        calls, rows = [], []
        for fname, A in mats.items():
            fmts = {"A": A, "X": DenseVector(x), "Y": DenseVector.zeros(t.n)}
            op = rec.new_op()
            with rec.span("compiler.kernels.compile_cold", op):
                kern = compile_kernel(SPMV, fmts)
            with rec.span("compiler.kernels.warm_hit", op):
                compile_kernel(SPMV, fmts)
            with rec.span("compiler.kernels.bind", op):
                call = kern.bind(**fmts)
            call()  # the untimed warm-up pass, and the checked result
            section.close(fmts["Y"].vals, want, 1e-12, f"{name}/{fname} y=A·x")
            c = kern.counters(**fmts)
            nbytes = storage_bytes(A) + 8 * t.n + 16 * t.n  # A, x read, y read+written
            flops += int(c.flops)
            bytes_computed += nbytes
            source_chars += len(kern.source)
            for label in kern.unit_backends:
                lowerings[label] = lowerings.get(label, 0) + 1
            if section.trace:
                def call(call=call, op=op):
                    with rec.span("compiler.kernels.body", op):
                        call()
            calls.append(call)
            rows.append((fname, c.flops, nbytes))

        yard_seconds = budget / 6 if oracle.HAVE_SCIPY else 0.0
        samples = section.round_robin(calls, budget - yard_seconds - budget / 12)
        for (fname, fl, nbytes), ns in zip(rows, samples):
            s = Summary(ns)
            sec = s.median * 1e-9
            ns_per_nnz.append(s.median / t.nnz)
            body_us.append(s.median * 1e-3)
            gbs.append(nbytes / sec / 1e9)
            mflops.append(fl / sec / 1e6)
            section.rows.append(
                f"{name:<10s} {fname:<10s} n={t.n:<7d} nnz={t.nnz:<8d} "
                f"{s.text(1e-6)} ms  {s.median / t.nnz:6.2f} ns/nnz  "
                f"{nbytes / 2**20:6.1f} MiB computed ({nbytes / L2_BYTES:4.1f}x L2)  "
                f"{nbytes / sec / 1e9:5.2f} GB/s eff  {fl / sec / 1e6:6.0f} MFlop/s"
            )
        for key, value in yardstick.scipy_spmv(t, x, want, section, yard_seconds).items():
            yard.setdefault(key, []).append(value)
        if "scipy_csr_ns_per_nnz" in yard:
            vs_scipy.append(ns_per_nnz[-len(rows)] / yard["scipy_csr_ns_per_nnz"][-1])
        yard.setdefault("triad_gbs", []).append(
            yardstick.triad_gbs(storage_bytes(mats["CRS"]), section, budget / 12)
        )
        del mats, calls, samples

    section.fingerprint = inputs.fingerprint(prints)
    section.e2e["spmv_ns_per_nnz"] = geomean(ns_per_nnz)
    section.layer["compiler.kernels.body_us"] = geomean(body_us)
    section.count("kernel.flops", flops)
    section.count("kernel.bytes_computed", bytes_computed)
    section.layer["kernel.gbs_effective"] = geomean(gbs)
    section.layer["kernel.mflops"] = geomean(mflops)
    section.count("compiler.codegen.source_chars", source_chars)
    for label in LOWERINGS:
        section.count(lowering_metric(label), lowerings[label])
    for key in ("scipy_csr_ns_per_nnz", "scipy_csc_ns_per_nnz", "scipy_coo_ns_per_nnz"):
        section.layer["yardstick." + key] = geomean(yard[key]) if key in yard else 0.0
    section.layer["yardstick.triad_gbs"] = geomean(yard["triad_gbs"])
    section.layer["spmv.vs_scipy_csr"] = geomean(vs_scipy) if vs_scipy else 0.0
    if not oracle.HAVE_SCIPY:
        section.rows.append("scipy not installed: yardstick rows omitted (reported as 0)")

    if section.trace:
        selft = {k: float(v.sum()) for k, v in section.span_us("self_times").items()}
        total = sum(selft.values())
        section.layer["share.spmv_stream.body"] = selft["compiler.kernels.body"] / total
        section.layer["share.spmv_stream.hit_path"] = selft["compiler.kernels.warm_hit"] / total
