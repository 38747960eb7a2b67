"""Ablation: the value of i-node dense blocks.

DESIGN.md question: what does BlockSolve's i-node storage buy over plain
CRS on a multi-dof FEM matrix?  Three SpMV paths on the same matrix:

* ``crs-compiled``   — compiled CRS kernel (no structure exploited),
* ``inode-compiled`` — compiled i-node kernel (shared column lists),
* ``inode-library``  — the library matvec: the compiled kernel's
  shape-batched block plan, run without the compiler.
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
from repro.formats import CRSMatrix, DenseVector, InodeMatrix
from repro.kernels.spmv import SPMV_SRC
from repro.matrices import fem_matrix

_COO = fem_matrix(points=400, dof=5, neighbors=4, rng=9)


def paths():
    x = np.ones(_COO.shape[1])
    crs = CRSMatrix.from_coo(_COO)
    ino = InodeMatrix.from_coo(_COO)
    X = DenseVector(x)
    Y = DenseVector.zeros(_COO.shape[0])
    k_crs = compile_kernel(SPMV_SRC, {"A": crs, "X": X, "Y": Y})
    k_ino = compile_kernel(SPMV_SRC, {"A": ino, "X": X, "Y": Y})
    return {
        "crs-compiled": lambda: k_crs(A=crs, X=X, Y=Y),
        "inode-compiled": lambda: k_ino(A=ino, X=X, Y=Y),
        "inode-library": lambda: ino.matvec(x),
    }


@pytest.mark.parametrize("path", ["crs-compiled", "inode-compiled", "inode-library"])
def test_ablation_inode(benchmark, path):
    fn = paths()[path]
    benchmark.pedantic(fn, rounds=5, iterations=3, warmup_rounds=1)
    benchmark.extra_info["path"] = path
    benchmark.extra_info["nnz"] = _COO.nnz


def test_inode_library_beats_compiled_crs():
    import time

    fns = paths()
    times = {}
    for name, fn in fns.items():
        fn()
        t0 = time.perf_counter()
        for _ in range(5):
            fn()
        times[name] = (time.perf_counter() - t0) / 5
    assert times["inode-library"] < times["crs-compiled"], times


def main(argv=None):
    import time

    from bench_cli import bench_main

    def measure(args):
        reps = 3 if args.smoke else 5
        fns = paths()
        times = {}
        for name, fn in fns.items():
            fn()  # warmup
            t0 = time.perf_counter()
            for _ in range(reps):
                fn()
            times[name] = (time.perf_counter() - t0) / reps
        speedup = times["crs-compiled"] / times["inode-library"]
        for name, t in times.items():
            print(f"{name:<16} {t * 1e3:.3f} ms")
        print(f"inode-library over crs-compiled: {speedup:.2f}x")
        return speedup

    return bench_main(
        "ablation_inode", measure, direction="higher",
        description=__doc__, argv=argv,
    )


if __name__ == "__main__":
    raise SystemExit(main())
