"""Ablation: why the planner's join order matters.

SpMV with a sparse x: the natural plan enumerates A (the driver) and
searches x.  Forcing x as the driver makes A's row level a *chained dense
enumeration* — every row is visited for every stored x entry, an
asymptotically worse join order.  The planner's cost model must pick the
former unaided.
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
from repro.compiler.scheduling import plan_query
from repro.compiler.query_extract import extract_query
from repro.compiler.parser import parse
from repro.formats import COOMatrix, CRSMatrix, DenseVector, SparseVector
from repro.kernels.spmv import SPMV_SRC


def setup(n=120, density=0.05, rng=0):
    coo = COOMatrix.random(n, n, density, rng=rng)
    A = CRSMatrix.from_coo(coo)
    xd = np.zeros(n)
    xd[:: max(1, n // 40)] = 1.0
    X = SparseVector.from_dense(xd)
    Y = DenseVector.zeros(n)
    return A, X, Y


@pytest.mark.parametrize("driver", ["A", "X"], ids=["natural-A", "forced-X"])
def test_ablation_joinorder(benchmark, driver):
    A, X, Y = setup()
    kern = compile_kernel(SPMV_SRC, {"A": A, "X": X, "Y": Y}, force_driver=driver, cache=False)

    def run():
        Y.vals[:] = 0.0
        kern(A=A, X=X, Y=Y)

    benchmark.pedantic(run, rounds=3, iterations=1, warmup_rounds=1)
    benchmark.extra_info["driver"] = driver


@pytest.mark.parametrize("impl", ["merge", "search"])
def test_ablation_join_implementation(benchmark, impl):
    """Merge join vs per-entry binary search for the same sorted-sparse-x
    SpMV — the planner's join-*implementation* choice (it picks merge)."""
    A, X, Y = setup(n=400, density=0.06)
    kern = compile_kernel(
        SPMV_SRC, {"A": A, "X": X, "Y": Y}, allow_merge=(impl == "merge"), cache=False
    )

    def run():
        Y.vals[:] = 0.0
        kern(A=A, X=X, Y=Y)

    benchmark.pedantic(run, rounds=3, iterations=2, warmup_rounds=1)
    benchmark.extra_info["implementation"] = impl


def test_planner_picks_the_cheap_order():
    """Unforced planning must choose A as the driver (cost model check)."""
    A, X, Y = setup()
    program = parse(SPMV_SRC)
    q = extract_query(program, program.body[0], {"A", "X"})
    plan = plan_query(q, {"A": A, "X": X, "Y": Y})
    assert plan.driver == "A"
    forced = plan_query(q, {"A": A, "X": X, "Y": Y}, force_driver="X")
    assert forced.cost > plan.cost


def main(argv=None):
    from bench_cli import bench_main

    def measure(args):
        A, X, Y = setup()
        program = parse(SPMV_SRC)
        q = extract_query(program, program.body[0], {"A", "X"})
        plan = plan_query(q, {"A": A, "X": X, "Y": Y})
        forced = plan_query(q, {"A": A, "X": X, "Y": Y}, force_driver="X")
        ratio = forced.cost / plan.cost  # deterministic cost-model margin
        print(f"natural driver {plan.driver} cost={plan.cost:.1f}; "
              f"forced X cost={forced.cost:.1f}; margin={ratio:.2f}x")
        return ratio

    return bench_main(
        "ablation_joinorder", measure, direction="higher",
        description=__doc__, argv=argv,
    )


if __name__ == "__main__":
    raise SystemExit(main())
