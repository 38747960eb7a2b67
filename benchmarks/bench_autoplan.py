"""Auto-format selection benchmark: chosen plan vs fixed-format field.

For every structure class in the seeded generator suite
(``tests/generators.py``), measure one SpMV call through **every**
feasible candidate format, then let the auto-planner pick.  The
auto-chosen plan's time is the measured time of whatever it picked, so
the headline is noise-resistant: auto equals best-fixed exactly when the
cost model ranks the true argmin first.

Headline (``higher`` is better)::

    geomean over classes of  best_fixed_time / auto_time

Acceptance: headline >= 0.95 full-size (the planner may lose a class or
two to modeling error but not more; the ``--smoke`` floor is 0.85
because at CI sizes per-call alpha dominates), and auto must strictly
beat the worst-fixed-format geomean — picking blindly is not an option.

Every time is of the bound call ``kernel.bind(**formats)()``, the form
the solvers and ``bench_hybrid.py`` run: an unbound ``kernel(**formats)``
re-binds on every call, and that bind cost would land in the fitted alpha.

The same measurements calibrate the cost model: per format, least-squares
fit of ``seconds = alpha + beta * work_units`` across the suite.  The fit
(vectorized formats only: the planner never prices the interpreted
backend) lands under the ``fit`` key of the ``--out`` JSON
(``BENCH_autoplan.json``) beside the full per-class × per-format table.

Usage::

    python benchmarks/bench_autoplan.py --smoke --out BENCH_autoplan.json
"""

import json
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent))

import numpy as np

from repro.compiler import autoplan, clear_kernel_cache, compile_kernel
from repro.compiler.autoplan import CANDIDATE_FORMATS, CostModel, _feasibility
from repro.analysis.structure import analyze_structure
from repro.errors import FormatError
from repro.formats.dense import DenseVector
from repro.kernels.spmv import SPMV_SRC
from tests.generators import STRUCTURE_CLASSES, integer_vector

BENCH = "autoplan"
SEED = 19970


def _time_bound(kernel, formats, min_time: float) -> float:
    """Best-of seconds of the bound call, repeating until ``min_time``
    elapsed (after one warm call)."""
    call = kernel.bind(**formats)
    call()
    best = float("inf")
    spent = 0.0
    while spent < min_time:
        t0 = time.perf_counter()
        call()
        dt = time.perf_counter() - t0
        best = min(best, dt)
        spent += dt
    return best


def _measure_format(coo, profile, name, x, min_time) -> float | None:
    """Per-call SpMV seconds through one fixed format, or None if the
    format rejects the matrix."""
    try:
        fmt = CANDIDATE_FORMATS[name](coo, profile)
    except FormatError:
        return None
    formats = {
        "A": fmt,
        "X": DenseVector(x.copy()),
        "Y": DenseVector.zeros(fmt.shape[0]),
    }
    return _time_bound(compile_kernel(SPMV_SRC, formats), formats, min_time)


def _measure_auto(coo, plan, x, min_time) -> float:
    """Per-call SpMV seconds through whatever the auto-planner picked —
    the composed region-specialized plan included (``bench_hybrid.py``
    covers its headline; here it only needs a measured time so the ratio
    stays honest)."""
    kernel, formats = plan.compile(coo)
    formats["X"] = DenseVector(x.copy())
    formats["Y"] = DenseVector.zeros(coo.shape[0])
    return _time_bound(kernel, formats, min_time)


def _fit_alpha_beta(points):
    """Least-squares (alpha, beta) for seconds = alpha + beta*units,
    clamped nonnegative (alpha) / positive (beta)."""
    units = np.array([u for u, _ in points])
    secs = np.array([s for _, s in points])
    if len(points) < 2 or np.ptp(units) == 0:
        alpha = float(secs.min())
        return alpha, max(1e-12, alpha / max(units.max(), 1.0))
    A = np.vstack([np.ones_like(units), units]).T
    (alpha, beta), *_ = np.linalg.lstsq(A, secs, rcond=None)
    return max(0.0, float(alpha)), max(1e-12, float(beta))


def measure(args):
    rng_base = SEED if args.seed is None else args.seed
    n = 240 if args.smoke else 600
    min_time = 0.003 if args.smoke else 0.01
    # at smoke size per-call alpha dominates beta*work, so modeling error
    # costs proportionally more; the acceptance threshold lives on the
    # full-size run
    floor = 0.85 if args.smoke else 0.95
    clear_kernel_cache()

    rows = []
    fit_points = {name: [] for name in CANDIDATE_FORMATS}
    for ci, cls in enumerate(sorted(STRUCTURE_CLASSES)):
        rng = np.random.default_rng([rng_base, ci])
        coo = STRUCTURE_CLASSES[cls](rng, n)
        profile = analyze_structure(coo)
        x = integer_vector(rng, coo.shape[1])
        times = {}
        for name in CANDIDATE_FORMATS:
            feasible, _ = _feasibility(profile, name)
            if not feasible:
                continue
            t = _measure_format(coo, profile, name, x, min_time)
            if t is not None:
                times[name] = t
                fit_points[name].append((CostModel.work_units(profile, name), t))
        rows.append({
            "class": cls,
            "n": n,
            "nnz": profile.nnz,
            "tags": list(profile.tags),
            "profile_fingerprint": profile.fingerprint(),
            "fixed_seconds": times,
        })

    # calibrate the model from this run's own measurements
    alpha, beta = {}, {}
    for name, pts in fit_points.items():
        if pts:
            alpha[name], beta[name] = _fit_alpha_beta(pts)
    model = CostModel(alpha=alpha, beta=beta, source="fit[this-run]")

    # the auto-planner picks with the calibrated model; its time is the
    # measured time of whatever it picked
    ratios_best, ratios_worst = [], []
    for ci, (cls, row) in enumerate(zip(sorted(STRUCTURE_CLASSES), rows)):
        rng = np.random.default_rng([rng_base, ci])
        coo = STRUCTURE_CLASSES[cls](rng, n)
        profile = analyze_structure(coo)
        plan = autoplan(coo, profile=profile, model=model)
        times = row["fixed_seconds"]
        if plan.format_name not in times:
            x = integer_vector(np.random.default_rng([rng_base, ci, 1]), coo.shape[1])
            auto_t = _measure_auto(coo, plan, x, min_time)
        else:
            auto_t = times[plan.format_name]
        best_name = min(times, key=times.get)
        worst_name = max(times, key=times.get)
        row.update({
            "auto_format": plan.format_name,
            "auto_seconds": auto_t,
            "best_fixed": best_name,
            "worst_fixed": worst_name,
            "ratio_vs_best": times[best_name] / auto_t,
            "ratio_vs_worst": times[worst_name] / auto_t,
        })
        ratios_best.append(times[best_name] / auto_t)
        ratios_worst.append(times[worst_name] / auto_t)
        print(
            f"{cls:16s} auto={plan.format_name:<10s} best={best_name:<10s} "
            f"worst={worst_name:<10s} vs-best={ratios_best[-1]:6.3f} "
            f"vs-worst={ratios_worst[-1]:6.2f}"
        )

    headline = float(np.exp(np.mean(np.log(ratios_best))))
    worst_geomean = float(np.exp(np.mean(np.log(ratios_worst))))
    print(f"\nauto vs best-fixed geomean : {headline:.4f}  (target >= {floor})")
    print(f"auto vs worst-fixed geomean: {worst_geomean:.4f}  (must be > 1)")

    config = {"suite": "generators", "n": n, "smoke": bool(args.smoke),
              "seed": rng_base}
    if args.out:
        doc = {
            "bench": BENCH,
            "config": config,
            "auto_vs_best_geomean": headline,
            "auto_vs_worst_geomean": worst_geomean,
            "model_source": model.source,
            "fit": {"alpha": alpha, "beta": beta},
            "classes": rows,
        }
        with open(args.out, "w") as fh:
            json.dump(doc, fh, indent=2)
        print(f"wrote {args.out}")

    if headline < floor:
        print(f"FAIL: auto/best-fixed geomean {headline:.4f} < {floor}")
        raise SystemExit(1)
    if worst_geomean <= 1.0:
        print(f"FAIL: auto does not beat the worst fixed format "
              f"({worst_geomean:.4f} <= 1)")
        raise SystemExit(1)
    return headline


def main(argv=None) -> int:
    import argparse

    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--smoke", action="store_true", help="CI-sized problems")
    ap.add_argument("--seed", type=int, default=None,
                    help=f"suite base seed (default {SEED})")
    ap.add_argument("--out", default="BENCH_autoplan.json",
                    help="per-class table artifact (default BENCH_autoplan.json)")
    value = measure(ap.parse_args(argv))
    print(f"{BENCH}: headline={value:.6g} (higher is better)")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
