"""explain() plan narratives and the Table-1 kernel counters."""

import numpy as np
import pytest

from repro import (
    COOMatrix,
    CRSMatrix,
    DenseVector,
    SparseVector,
    compile_kernel,
    explain,
    table1_matrix,
)
from repro.errors import ObservabilityError
from repro.kernels.spmv import SPMV_SRC
from repro.observability.metrics import REGISTRY, disable_metrics, enable_metrics


@pytest.fixture(autouse=True)
def _clean_metrics():
    disable_metrics()
    REGISTRY.reset()
    yield
    disable_metrics()
    REGISTRY.reset()


def _table1_crs_kernel():
    coo = table1_matrix("small")
    A = CRSMatrix.from_coo(coo)
    X = DenseVector(np.ones(A.shape[1]))
    Y = DenseVector.zeros(A.shape[0])
    return compile_kernel(SPMV_SRC, {"A": A, "X": X, "Y": Y}), A, X, Y


def test_explain_names_order_and_methods():
    k, A, X, Y = _table1_crs_kernel()
    text = explain(k)
    assert "driver: A (CRSMatrix)" in text
    assert "join order: A.L0→i -> A.L1→j" in text  # row level then column level
    assert "join method per term" in text
    assert "driver" in text and "output" in text and "dense O(1) loads" in text
    assert "driver=A: chosen" in text


def test_explain_reports_rejected_alternatives():
    rng = np.random.default_rng(0)
    coo = COOMatrix.random(60, 60, density=0.1, rng=rng)
    A = CRSMatrix.from_coo(coo)
    x = SparseVector.from_dense(np.where(rng.random(60) < 0.2, 1.0, 0.0))
    Y = DenseVector.zeros(60)
    k = compile_kernel(SPMV_SRC, {"A": A, "X": x, "Y": Y}, cache=False)
    text = explain(k)
    # two sparse terms -> two driver candidates, one chosen one rejected
    assert "chosen" in text
    assert "rejected: cost" in text or "illegal:" in text


def test_explain_accepts_source_string():
    coo = table1_matrix("small")
    A = CRSMatrix.from_coo(coo)
    X = DenseVector(np.ones(A.shape[1]))
    Y = DenseVector.zeros(A.shape[0])
    text = explain(SPMV_SRC, formats={"A": A, "X": X, "Y": Y})
    assert "driver: A" in text


def test_explain_rejects_unknown_objects():
    with pytest.raises(ObservabilityError):
        explain(42)


def test_counters_match_table1_methodology():
    k, A, X, Y = _table1_crs_kernel()
    c = k.counters(A=A, X=X, Y=Y)
    # y += A[i,j]*x[j]: one multiply + one accumulate per stored entry
    assert c.flops == 2.0 * A.nnz
    assert c.nnz_touched == A.nnz
    assert c.rows_visited == A.shape[0]
    assert c.mflops(1.0) == pytest.approx(c.flops / 1e6)
    assert np.isnan(c.mflops(0.0))  # undefined rate, not zero
    total = c + c
    assert total.flops == 2 * c.flops and total.rows_visited == 2 * c.rows_visited


def test_kernel_call_records_counters():
    k, A, X, Y = _table1_crs_kernel()
    enable_metrics()
    k(A=A, X=X, Y=Y)
    k(A=A, X=X, Y=Y)
    snap = REGISTRY.snapshot()
    assert snap["kernel.calls"] == 2
    assert snap["kernel.flops"] == 2 * 2.0 * A.nnz
    assert k.last_counters.flops == 2.0 * A.nnz

    # the prebound fast path records the same counters
    REGISTRY.reset()
    bound = k.bind(A=A, X=X, Y=Y)
    bound()
    assert REGISTRY.snapshot()["kernel.flops"] == 2.0 * A.nnz


def test_explain_works_on_plan_cache_hit():
    """Satellite: a warm PlanCache must hand back a kernel explain() can
    still narrate — the cached object carries its plan rationale, it is
    not a stripped fast path."""
    from repro.compiler import clear_kernel_cache, kernel_cache_stats

    clear_kernel_cache()
    k_cold, A, X, Y = _table1_crs_kernel()
    k_warm, *_ = _table1_crs_kernel()  # identical request: cache hit
    stats = kernel_cache_stats()
    assert stats["hits"] >= 1 and k_warm is k_cold
    text_cold = explain(k_cold)
    text_warm = explain(k_warm)
    assert text_warm == text_cold
    assert "driver: A (CRSMatrix)" in text_warm
    assert "driver=A: chosen" in text_warm  # rationale survived the cache


def test_cg_solve_explains_on_warm_schedule_cache():
    """Satellite: the ScheduleCache warm path (inspection skipped) still
    leaves the executor's compiled kernels explainable, and the warm
    solve's explain output matches the cold one's."""
    from repro.runtime.schedule_cache import ScheduleCache
    from repro.solvers.cg import parallel_cg

    rng = np.random.default_rng(2)
    n = 24
    dense = np.eye(n) * 4.0
    for i in range(n - 1):
        dense[i, i + 1] = dense[i + 1, i] = -1.0
    coo = COOMatrix.from_dense(dense)
    b = rng.standard_normal(n)

    cache = ScheduleCache()
    texts = []
    for _ in range(2):  # cold, then warm
        res = parallel_cg(coo, b, nprocs=2, niter=3, schedule_cache=cache)
        assert res.stats is not None
        # compiling the same mixed-variant spec the solver used must
        # still produce a narratable plan after the warm solve
        A = CRSMatrix.from_coo(coo)
        X = DenseVector(np.ones(n))
        Y = DenseVector.zeros(n)
        texts.append(explain(SPMV_SRC, formats={"A": A, "X": X, "Y": Y}))
    assert cache.stats.hits > 0, "second solve did not hit the schedule cache"
    assert texts[0] == texts[1]
    assert "driver: A" in texts[1]


def test_explain_narrates_what_prepare_hoists():
    from repro.formats import FORMAT_NAMES

    coo = COOMatrix.random(8, 8, 0.4, rng=0)
    X, Y = DenseVector(np.ones(8)), DenseVector.zeros(8)
    crs = compile_kernel(SPMV_SRC, {"A": FORMAT_NAMES["CRS"].from_coo(coo), "X": X, "Y": Y})
    text = explain(crs)
    assert "prepare (once per bind()" in text
    assert "np.flatnonzero(np.diff(A_rowptr))" in text  # the hoisted index set
    ccs = compile_kernel(SPMV_SRC, {"A": FORMAT_NAMES["CCS"].from_coo(coo), "X": X, "Y": Y})
    assert "prepare: nothing to hoist" in explain(ccs)
