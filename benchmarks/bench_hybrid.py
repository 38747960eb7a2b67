"""Region-specialized hybrid plan vs every single-format plan.

On mixed-structure matrices (the ``hybrid``-tagged generator classes: a
planted dense block over a banded bulk with hub rows, or free-floating
dense windows over a uniform background) no single format wins — each
pays for the structure it was not built for.  The ``"Hybrid"``
:class:`~repro.compiler.specialize.Candidate` (a region split, priced
like any single-format candidate) materializes every region in its best
format and compiles one kernel with one statement per region
(dense windows stay on BLAS, the other regions run the native tier).

Headline (``higher`` is better; the gate floor is 1.0)::

    geomean over HYBRID_CLASSES of  best_single_time / hybrid_time

All timings go through pre-bound kernels (:meth:`CompiledKernel.bind`)
— the iterative-solver regime the paper
targets, where one binding amortizes over many SpMV calls.  Both sides
are bound, so the comparison is dispatch-for-dispatch fair.

Beyond the headline the run asserts, per hybrid class, that

* the measured hybrid strictly beats **every** feasible single-format
  plan (not just the best one), and
* the auto-planner actually *selects* the hybrid candidate — the cost
  model must rank the split first on these classes,

and, per single-structure control class, that the auto-planner does
**not** select the hybrid (the model must not hallucinate separability).
The hybrid SpMV result is also checked bitwise against the dense
product before any timing counts.

The per-class table and the headline land in ``BENCH_hybrid.json``.

Usage::

    python benchmarks/bench_hybrid.py --smoke --out BENCH_hybrid.json
"""

import json
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent))

import numpy as np

from repro.compiler import autoplan, clear_kernel_cache, compile_kernel
from repro.compiler.autoplan import CANDIDATE_FORMATS, _feasibility
from repro.analysis.structure import analyze_structure
from repro.errors import FormatError
from repro.formats.dense import DenseVector
from repro.kernels.spmv import SPMV_SRC
from tests.generators import HYBRID_CLASSES, STRUCTURE_CLASSES, integer_vector

BENCH = "hybrid"
SEED = 19970

#: single-structure controls: the planner must NOT pick Hybrid on these
CONTROL_CLASSES = ("banded", "diagonal", "block_diag", "uniform")


def _time_bound(bound, min_time: float) -> float:
    """Best-of per-call seconds of a pre-bound zero-arg callable."""
    best = float("inf")
    spent = 0.0
    while spent < min_time:
        t0 = time.perf_counter()
        bound()
        dt = time.perf_counter() - t0
        best = min(best, dt)
        spent += dt
    return best


def _single_format_times(coo, profile, x, min_time) -> dict[str, float]:
    """Bound per-call SpMV seconds for every feasible single format."""
    times = {}
    for name in CANDIDATE_FORMATS:
        feasible, _ = _feasibility(profile, name)
        if not feasible:
            continue
        try:
            fmt = CANDIDATE_FORMATS[name](coo, profile)
        except FormatError:
            continue
        formats = {
            "A": fmt,
            "X": DenseVector(x.copy()),
            "Y": DenseVector.zeros(coo.shape[0]),
        }
        kernel = compile_kernel(SPMV_SRC, formats, backend="vectorized")
        times[name] = _time_bound(kernel.bind(**formats), min_time)
    return times


def measure(args):
    rng_base = SEED if args.seed is None else args.seed
    # the composed plan pays one dispatch per region, so it needs enough
    # work per region to win; below ~n=1500 the model (correctly) keeps
    # picking the single CRS plan for the diagonal-block hybrid class
    n = 1500 if args.smoke else 3000
    min_time = 0.02 if args.smoke else 0.05
    clear_kernel_cache()

    rows = []
    ratios = []
    failures = []
    for ci, cls in enumerate(sorted(HYBRID_CLASSES)):
        rng = np.random.default_rng([rng_base, ci])
        coo = HYBRID_CLASSES[cls](rng, n)
        profile = analyze_structure(coo)
        x = integer_vector(rng, coo.shape[1])

        plan = autoplan(coo, profile=profile)
        if plan.format_name != "Hybrid":
            failures.append(
                f"{cls}: auto-planner picked {plan.format_name}, not the "
                "hybrid plan"
            )
        hybrid = plan.hybrid
        kernel, formats = hybrid.compile()
        formats["X"] = DenseVector(x.copy())
        formats["Y"] = DenseVector.zeros(coo.shape[0])

        # correctness gate before any timing: bitwise vs dense product
        # (integer-valued entries make float64 sums exact)
        kernel(**formats)
        want = coo.to_dense() @ x
        if formats["Y"].vals.tobytes() != want.tobytes():
            failures.append(f"{cls}: hybrid SpMV is not bitwise-correct")
            continue

        t_hybrid = _time_bound(kernel.bind(**formats), min_time)
        times = _single_format_times(coo, profile, x, min_time)
        best_name = min(times, key=times.get)
        lost_to = sorted(name for name, t in times.items() if t <= t_hybrid)
        if lost_to:
            failures.append(
                f"{cls}: hybrid ({t_hybrid * 1e6:.1f}us) does not beat "
                + ", ".join(f"{nm} ({times[nm] * 1e6:.1f}us)" for nm in lost_to)
            )
        ratio = times[best_name] / t_hybrid
        ratios.append(ratio)
        rows.append({
            "class": cls,
            "n": n,
            "nnz": profile.nnz,
            "regions": [r.summary() for r in hybrid.partition.regions],
            "predicted_seconds": hybrid.predicted_seconds,
            "hybrid_seconds": t_hybrid,
            "single_seconds": times,
            "best_single": best_name,
            "ratio_vs_best_single": ratio,
            "auto_choice": plan.format_name,
        })
        print(
            f"{cls:14s} hybrid={t_hybrid * 1e6:8.1f}us "
            f"best_single={best_name}:{times[best_name] * 1e6:8.1f}us "
            f"ratio={ratio:5.2f} regions="
            + "+".join(r.kind for r in hybrid.partition.regions)
        )

    # single-structure controls: the model must not pick Hybrid there
    controls = {}
    for cls in CONTROL_CLASSES:
        rng = np.random.default_rng([rng_base, 100 + ord(cls[0])])
        coo = STRUCTURE_CLASSES[cls](rng, n)
        plan = autoplan(coo)
        controls[cls] = plan.format_name
        if plan.format_name == "Hybrid":
            failures.append(
                f"control {cls}: auto-planner picked Hybrid on a "
                "single-structure matrix"
            )
        print(f"{cls:14s} control: auto={plan.format_name}")

    headline = float(np.exp(np.mean(np.log(ratios)))) if ratios else 0.0
    print(f"\nbest-single/hybrid geomean: {headline:.4f}  (target >= 1.0)")

    config = {
        "suite": "hybrid-generators", "n": n, "smoke": bool(args.smoke),
        "seed": rng_base,
    }
    if args.out:
        doc = {
            "bench": BENCH,
            "config": config,
            "best_single_vs_hybrid_geomean": headline,
            "classes": rows,
            "controls": controls,
            "failures": failures,
        }
        with open(args.out, "w") as fh:
            json.dump(doc, fh, indent=2)
        print(f"wrote {args.out}")

    if failures:
        for f in failures:
            print(f"FAIL: {f}")
        raise SystemExit(1)
    if headline < 1.0:
        print(f"FAIL: geomean {headline:.4f} < 1.0")
        raise SystemExit(1)
    return headline


def main(argv=None) -> int:
    import argparse

    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--smoke", action="store_true", help="CI-sized problems")
    ap.add_argument("--seed", type=int, default=None,
                    help=f"suite base seed (default {SEED})")
    ap.add_argument("--out", default="BENCH_hybrid.json",
                    help="per-class table artifact (default BENCH_hybrid.json)")
    value = measure(ap.parse_args(argv))
    print(f"{BENCH}: headline={value:.6g} (higher is better)")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
