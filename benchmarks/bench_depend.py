"""Reduction-unlock benchmark: certified scatter kernels vs the oracle.

Before the dependence lattice, every kernel here died in
``compile_kernel`` with a ``VerificationError`` — the binary DOANY gate
had no verdict between "independent" and "refuse".  The analyzer now
classifies them ``REDUCTION(op)`` and the vectorized backend runs their
scalar nest, combining with the op in place, as C (gcc at ``bind()``).
This bench proves the unlock is a *performance* feature, not just an
admissibility one: per kernel it measures the certified vectorized
kernel against the interpreted scalar nest (the semantic oracle,
previously the only way to run these loops at all — outside the
compiler), checks the results agree bitwise, and reports

Headline (``higher`` is better)::

    geomean over kernels of  interpreted_seconds / vectorized_seconds

Acceptance: every kernel must carry a ``REDUCTION`` certificate, every
vectorized result must equal the interpreted result bitwise, and the
headline geomean must exceed 1 — a reduction unlock that runs slower
than the scalar nest would be a regression, not a feature.  The
classification itself is timed and recorded as a metric (it is pure
analysis and should stay microseconds-per-kernel).

Usage::

    python benchmarks/bench_depend.py --smoke --out BENCH_depend.json
"""

import json
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent))

import numpy as np

from repro.compiler import clear_kernel_cache, compile_kernel
from repro.formats.coo import COOMatrix
from repro.formats.crs import CRSMatrix
from repro.formats.dense import DenseVector

BENCH = "depend_unlock"
SEED = 19970

#: name -> (source, reduction op, target length as a function of (n, m))
KERNELS = {
    # per-row product: each row's '*' combine into its target slot
    "rowprod": ("for i in 0:n { for j in 0:m { Y[i] = Y[i] * A[i,j] } }", "*"),
    # column max: the newly-unlocked scatter through colind
    "colmax": ("for i in 0:n { for j in 0:m { Y[j] = max(Y[j], A[i,j]) } }", "max"),
    # column min, same scatter shape, opposite monoid
    "colmin": ("for i in 0:n { for j in 0:m { Y[j] = min(Y[j], A[i,j]) } }", "min"),
}


def _matrix(rng, n: int, density: float) -> CRSMatrix:
    d = (rng.random((n, n)) < density) * rng.integers(1, 5, (n, n)).astype(float)
    # keep '*' exact: remap stored values to ±1/±2 (powers of two multiply
    # exactly in float64 regardless of association order)
    d[d == 3.0] = 1.0
    d[d == 4.0] = 2.0
    sign = np.where(rng.random((n, n)) < 0.5, -1.0, 1.0)
    return CRSMatrix.from_coo(COOMatrix.from_dense(d * sign))


def _time_call(kernel, formats, y0, min_time: float) -> float:
    """Best-of per-call seconds (reset the accumulator between calls)."""
    best = float("inf")
    spent = 0.0
    while spent < min_time:
        formats["Y"].vals[:] = y0
        t0 = time.perf_counter()
        kernel(**formats)
        dt = time.perf_counter() - t0
        best = min(best, dt)
        spent += dt
    return best


def measure(args):
    rng = np.random.default_rng(SEED if args.seed is None else args.seed)
    n = 300 if args.smoke else 1200
    density = 0.05
    min_time = 0.005 if args.smoke else 0.05
    clear_kernel_cache()

    A = _matrix(rng, n, density)
    y0 = rng.choice([-2.0, -1.0, 1.0, 2.0], size=n)

    rows = []
    speedups = []
    for name, (src, op) in KERNELS.items():
        per_backend = {}
        results = {}
        for backend in ("vectorized", "interpreted"):
            formats = {"A": A, "Y": DenseVector(y0.copy())}
            t0 = time.perf_counter()
            kern = compile_kernel(src, formats, cache=False, backend=backend)
            compile_s = time.perf_counter() - t0
            cert = kern.certificate
            if cert is None or cert.verdict.kind != "REDUCTION" or cert.verdict.op != op:
                print(f"FAIL: {name} [{backend}] did not certify REDUCTION({op})")
                raise SystemExit(1)
            formats["Y"].vals[:] = y0
            kern(**formats)  # warm + capture the result for the bitwise check
            results[backend] = formats["Y"].vals.copy()
            per_backend[backend] = {
                "seconds": _time_call(kern, formats, y0, min_time),
                "compile_seconds": compile_s,
                "lowering": list(kern.unit_backends),
            }
        if results["vectorized"].tobytes() != results["interpreted"].tobytes():
            print(f"FAIL: {name} vectorized result diverges from the oracle")
            raise SystemExit(1)

        from repro.analysis.depend import classify_source

        t0 = time.perf_counter()
        cls = classify_source(src, gate=False)
        classify_s = time.perf_counter() - t0

        speedup = per_backend["interpreted"]["seconds"] / per_backend["vectorized"]["seconds"]
        speedups.append(speedup)
        rows.append({
            "kernel": name,
            "verdict": cls.verdict.label(),
            "certificate": cls.certificate.fingerprint,
            "vectorized": per_backend["vectorized"],
            "interpreted": per_backend["interpreted"],
            "classify_seconds": classify_s,
            "speedup": speedup,
        })
        print(
            f"{name:8s} {cls.verdict.label():14s} "
            f"vec={per_backend['vectorized']['seconds']:.6f}s "
            f"interp={per_backend['interpreted']['seconds']:.6f}s "
            f"speedup={speedup:7.2f}x "
            f"({per_backend['vectorized']['lowering'][0]})"
        )

    headline = float(np.exp(np.mean(np.log(speedups))))
    print(f"\nreduction-unlock speedup geomean: {headline:.2f}x (must be > 1)")

    config = {"n": n, "density": density, "smoke": bool(args.smoke),
              "seed": SEED if args.seed is None else args.seed}
    if args.out:
        doc = {"bench": BENCH, "config": config, "headline": headline,
               "kernels": rows}
        with open(args.out, "w") as fh:
            json.dump(doc, fh, indent=2)
        print(f"wrote {args.out}")

    if headline <= 1.0:
        print(f"FAIL: geomean speedup {headline:.3f} <= 1 — the certified "
              "lowering lost to the scalar nest")
        raise SystemExit(1)
    return headline


def main(argv=None) -> int:
    import argparse

    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--smoke", action="store_true", help="CI-sized problem")
    ap.add_argument("--seed", type=int, default=None,
                    help=f"matrix seed (default {SEED})")
    ap.add_argument("--out", default="BENCH_depend.json",
                    help="per-kernel table artifact (default BENCH_depend.json)")
    value = measure(ap.parse_args(argv))
    print(f"{BENCH}: headline={value:.6g} (higher is better)")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
