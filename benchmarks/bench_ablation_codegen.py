"""Ablation: the one scalar nest run as Python vs as C.

DESIGN.md question: how much of Table-1 performance comes from running
the generated nest as C?  Both backends print the same nest; the
vectorized backend's kernels tier up at bind time to that nest built as
C when a compiler is on ``PATH`` and stay Python otherwise (then the two
backends time the same code); ``kern.native`` says which ran, and the
printed line names it.  Expected, with gcc: vectorized CRS SpMV beats
the interpreted loop nest by well over an order of magnitude at these
sizes — the tier matters as much as the plan.
"""

import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))
try:
    import repro  # noqa: F401  (installed, or on PYTHONPATH)
except ModuleNotFoundError:  # run from a source checkout
    sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import numpy as np
import pytest

from repro.compiler import compile_kernel
from repro.compiler.kernels import clear_kernel_cache
from repro.formats import CRSMatrix, DenseVector, DiagonalMatrix, ELLMatrix
from repro.kernels.spmv import SPMV_SRC
from repro.matrices import table1_matrix

FORMATS = [CRSMatrix, ELLMatrix, DiagonalMatrix]


def make_kernel(fmt, backend):
    coo = table1_matrix("gr_30_30")
    A = fmt.from_coo(coo)
    X = DenseVector(np.ones(coo.shape[1]))
    Y = DenseVector.zeros(coo.shape[0])
    kern = compile_kernel(SPMV_SRC, {"A": A, "X": X, "Y": Y}, backend=backend, cache=False)

    def call():
        kern(A=A, X=X, Y=Y)

    call.kernel = kern  # its .native names the tier that ran
    return call


@pytest.mark.parametrize("backend", ["interpreted", "vectorized"], ids=["scalar", "vector"])
@pytest.mark.parametrize("fmt", FORMATS, ids=lambda f: f.__name__)
def test_ablation_codegen(benchmark, fmt, backend):
    fn = make_kernel(fmt, backend)
    rounds = 3 if backend == "vectorized" else 2
    benchmark.pedantic(fn, rounds=rounds, iterations=1, warmup_rounds=1)
    benchmark.extra_info["format"] = fmt.__name__
    benchmark.extra_info["backend"] = backend
    benchmark.extra_info["tier"] = str(fn.kernel.native)


def test_ablation_codegen_speedup():
    import time

    clear_kernel_cache()
    results = {}
    for backend in ("interpreted", "vectorized"):
        fn = make_kernel(CRSMatrix, backend)
        fn()
        t0 = time.perf_counter()
        for _ in range(3):
            fn()
        results[backend] = (time.perf_counter() - t0) / 3
    assert results["vectorized"] * 5 < results["interpreted"], results


def main(argv=None):
    import time

    from bench_cli import bench_main

    def measure(args):
        reps = 2 if args.smoke else 3
        clear_kernel_cache()
        times, tiers = {}, {}
        for backend in ("interpreted", "vectorized"):
            fn = make_kernel(CRSMatrix, backend)
            fn()  # warmup
            t0 = time.perf_counter()
            for _ in range(reps):
                fn()
            times[backend] = (time.perf_counter() - t0) / reps
            tiers[backend] = fn.kernel.native
        speedup = times["interpreted"] / times["vectorized"]
        print(f"scalar={times['interpreted']:.5f}s "
              f"vector={times['vectorized']:.5f}s [{tiers['vectorized']}] speedup={speedup:.1f}x")
        return speedup

    return bench_main(
        "ablation_codegen", measure, direction="higher",
        description=__doc__, argv=argv,
    )


if __name__ == "__main__":
    raise SystemExit(main())
