"""Planner unit tests: driver choice, access modes, chained drivers,
guards, merge selection, cost model."""

import numpy as np
import pytest

from repro.compiler.parser import parse
from repro.compiler.query_extract import extract_query
from repro.compiler.scheduling import plan_query
from repro.errors import PlanningError
from repro.formats import (
    CCSMatrix,
    COOMatrix,
    CRSMatrix,
    DenseMatrix,
    DenseVector,
    JaggedDiagonalMatrix,
    SparseVector,
)

SPMV = "for i in 0:n { for j in 0:m { Y[i] += A[i,j] * X[j] } }"


def make(n=8, m=6, rng=0):
    coo = COOMatrix.random(n, m, 0.4, rng=rng)
    x = DenseVector(np.ones(m))
    y = DenseVector.zeros(n)
    return coo, x, y


def plan_for(src, formats, **kw):
    program = parse(src)
    sparse = {k for k, f in formats.items() if not f.structurally_dense}
    q = extract_query(program, program.body[0], sparse)
    return plan_query(q, formats, **kw)


def test_crs_spmv_plan_shape():
    coo, x, y = make()
    plan = plan_for(SPMV, {"A": CRSMatrix.from_coo(coo), "X": x, "Y": y})
    assert plan.driver == "A"
    kinds = [s.kind for s in plan.steps]
    assert kinds == ["enumerate", "enumerate"]
    assert plan.steps[0].binds == ("i",)
    assert plan.steps[1].binds == ("j",)


def test_ccs_spmv_plan_is_column_major():
    coo, x, y = make()
    plan = plan_for(SPMV, {"A": CCSMatrix.from_coo(coo), "X": x, "Y": y})
    assert plan.steps[0].binds == ("j",)  # CCS drives column-first
    assert plan.steps[1].binds == ("i",)


def test_dense_program_has_no_driver():
    coo, x, y = make()
    plan = plan_for(SPMV, {"A": DenseMatrix(coo.to_dense()), "X": x, "Y": y})
    assert plan.driver is None
    assert all(s.kind == "dense" for s in plan.steps)
    assert [s.var for s in plan.steps] == ["i", "j"]


def test_false_predicate_is_noop():
    coo, x, y = make()
    plan = plan_for(
        "for i in 0:n { for j in 0:m { Y[i] += 0 * A[i,j] * X[j] } }",
        {"A": CRSMatrix.from_coo(coo), "X": x, "Y": y},
    )
    assert plan.noop


def test_sparse_x_is_merged_on_sorted_driver():
    coo, _, y = make()
    X = SparseVector(6, [1, 4], [1.0, 2.0])
    plan = plan_for(SPMV, {"A": CRSMatrix.from_coo(coo), "X": X, "Y": y})
    assert plan.steps[-1].kind == "merge"
    assert plan.steps[-1].key == "j"
    assert plan.steps[-1].anchor == 1  # rides the inner CRS level


def test_merge_disabled_falls_back_to_search():
    coo, _, y = make()
    X = SparseVector(6, [1, 4], [1.0, 2.0])
    plan = plan_for(
        SPMV, {"A": CRSMatrix.from_coo(coo), "X": X, "Y": y}, allow_merge=False
    )
    assert plan.steps[-1].kind == "search"


def test_unsorted_driver_blocks_merge():
    """JDiag enumerates columns unsorted: a merge against it would be
    wrong.  The planner may search x or flip the driver (scan A guarded by
    x's entries) — but never emit a merge step."""
    coo, _, y = make()
    X = SparseVector(6, [1, 4], [1.0, 2.0])
    fm = {"A": JaggedDiagonalMatrix.from_coo(coo), "X": X, "Y": y}
    plan = plan_for(SPMV, fm)
    assert all(s.kind != "merge" for s in plan.steps)
    # and the compiled result is correct whichever legal plan it picked
    from repro.compiler import compile_kernel

    k = compile_kernel(SPMV, fm, cache=False)
    k(A=fm["A"], X=X, Y=y)
    assert np.allclose(y.vals, coo.to_dense() @ X.to_dense()), k.source
    y.vals[:] = 0.0


def test_spgemm_chains_drivers():
    src = "for i in 0:n { for j in 0:m { for k in 0:p { Z[i,k] += A[i,j] * B[j,k] } } }"
    a = COOMatrix.random(5, 6, 0.4, rng=0)
    b = COOMatrix.random(6, 4, 0.4, rng=1)
    plan = plan_for(
        src,
        {
            "A": CRSMatrix.from_coo(a),
            "B": CRSMatrix.from_coo(b),
            "Z": DenseMatrix.zeros(5, 4),
        },
    )
    modes = {a.term.array: a.mode for a in plan.accesses}
    assert modes["A"] == "driver"
    assert modes["B"] == "chained"
    # B's dense row level is searched (j bound), its compressed level enumerates k
    kinds = [(s.kind, s.term, tuple(s.binds)) for s in plan.steps]
    assert ("enumerate", "B", ("k",)) in kinds


def test_coo_driver_guards_prebound_axis():
    """Y[i] += A[i,j] * B[i,j] with B in COO: B's single level binds both
    axes but i and j are already bound — the plan filters with guards
    (or searches); either way it must be legal and correct."""
    a = COOMatrix.random(5, 5, 0.5, rng=0)
    b = COOMatrix.random(5, 5, 0.5, rng=1)
    plan = plan_for(
        "for i in 0:n { for j in 0:n { Y[i] += A[i,j] * B[i,j] } }",
        {
            "A": CRSMatrix.from_coo(a),
            "B": COOMatrix.from_coo(b),
            "Y": DenseVector.zeros(5),
        },
    )
    modes = {acc.term.array: acc.mode for acc in plan.accesses}
    assert modes["B"] == "searched"


def test_forced_driver_respected():
    coo, _, y = make()
    toy = {
        "A": CRSMatrix.from_coo(coo),
        "X": SparseVector(6, [1, 4], [1.0, 2.0]),
        "Y": y,
    }
    # the join-order ablation's input: forcing X as the driver turns A's
    # row level into a chained dense enumeration (43,201 vs 1,771 today)
    n = 120
    xd = np.zeros(n)
    xd[:: n // 40] = 1.0
    ablation = {
        "A": CRSMatrix.from_coo(COOMatrix.random(n, n, 0.05, rng=0)),
        "X": SparseVector.from_dense(xd),
        "Y": DenseVector.zeros(n),
    }
    for fm, min_ratio in ((toy, 1.0), (ablation, 18.0)):
        plan = plan_for(SPMV, fm, force_driver="X")
        assert plan.driver == "X"
        natural = plan_for(SPMV, fm)
        assert natural.driver == "A"
        assert plan.cost / natural.cost > min_ratio


def test_force_unknown_driver_raises():
    coo, x, y = make()
    with pytest.raises(PlanningError):
        plan_for(SPMV, {"A": CRSMatrix.from_coo(coo), "X": x, "Y": y}, force_driver="Q")


def test_missing_format_raises():
    program = parse(SPMV)
    q = extract_query(program, program.body[0], {"A"})
    with pytest.raises(PlanningError):
        plan_query(q, {"X": DenseVector.zeros(3), "Y": DenseVector.zeros(3)})


def test_sparse_output_rejected():
    coo, x, _ = make()
    src = "for i in 0:n { for j in 0:m { Y[i,j] = A[i,j] } }"
    with pytest.raises(PlanningError):
        plan_for(src, {"A": CRSMatrix.from_coo(coo), "Y": CRSMatrix.from_coo(coo)})


def test_describe_mentions_driver_and_steps():
    coo, x, y = make()
    plan = plan_for(SPMV, {"A": CRSMatrix.from_coo(coo), "X": x, "Y": y})
    text = plan.describe()
    assert "driver=A" in text and "enumerate" in text


def test_merge_kernel_end_to_end_matches_search():
    """Same query, both join implementations, identical results."""
    from repro.compiler import compile_kernel

    rng = np.random.default_rng(9)
    dense = rng.standard_normal((30, 40)) * (rng.random((30, 40)) < 0.2)
    xd = np.zeros(40)
    xd[rng.choice(40, 15, replace=False)] = rng.standard_normal(15)
    A = CRSMatrix.from_coo(COOMatrix.from_dense(dense))
    X = SparseVector.from_dense(xd)
    outs = []
    for allow in (True, False):
        Y = DenseVector.zeros(30)
        k = compile_kernel(SPMV, {"A": A, "X": X, "Y": Y}, allow_merge=allow, cache=False)
        k(A=A, X=X, Y=Y)
        outs.append(Y.vals.copy())
        want_kind = "merge" if allow else "search"
        assert any(s.kind == want_kind for u in k.units for s in u.plan.steps)
    assert np.allclose(outs[0], outs[1])
    assert np.allclose(outs[0], dense @ xd)
