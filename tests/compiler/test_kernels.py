"""End-to-end compiled-kernel correctness.

The gold standard: for every storage format and several programs, the
compiled kernel (scalar AND vectorized backends) must match a dense numpy
computation and the interpreted reference executor.
"""

import numpy as np
import pytest
from hypothesis import given, settings

from repro.compiler import compile_kernel, parse
from repro.compiler.kernels import clear_kernel_cache
from repro.compiler.reference import run_reference
from repro.errors import CompileError
from repro.formats import (
    CCCSMatrix,
    CCSMatrix,
    COOMatrix,
    CRSMatrix,
    DenseMatrix,
    DenseVector,
    DiagonalMatrix,
    ELLMatrix,
    InodeMatrix,
    JaggedDiagonalMatrix,
    SparseVector,
)
from tests.conftest import coo_matrices

SPMV = "for i in 0:n { for j in 0:m { Y[i] += A[i,j] * X[j] } }"
SPMV_T = "for i in 0:n { for j in 0:m { Z[j] += A[i,j] * X[i] } }"

MATRIX_FORMATS = [
    COOMatrix,
    CRSMatrix,
    CCSMatrix,
    CCCSMatrix,
    ELLMatrix,
    DiagonalMatrix,
    JaggedDiagonalMatrix,
    InodeMatrix,
    DenseMatrix,
]


@pytest.fixture(autouse=True)
def _fresh_cache():
    clear_kernel_cache()
    yield


def make_data(rng=0, n=9, m=7, density=0.3):
    r = np.random.default_rng(rng)
    dense = r.standard_normal((n, m)) * (r.random((n, m)) < density)
    x = r.standard_normal(m)
    return COOMatrix.from_dense(dense), dense, x


@pytest.mark.parametrize("fmt", MATRIX_FORMATS, ids=lambda f: f.__name__)
@pytest.mark.parametrize("backend", ["interpreted", "vectorized"], ids=["scalar", "vector"])
def test_spmv_all_formats(fmt, backend):
    coo, dense, x = make_data()
    A = fmt.from_coo(coo)
    X = DenseVector(x)
    Y = DenseVector.zeros(dense.shape[0])
    k = compile_kernel(SPMV, {"A": A, "X": X, "Y": Y}, backend=backend)
    k(A=A, X=X, Y=Y)
    assert np.allclose(Y.vals, dense @ x), k.source


@pytest.mark.parametrize("fmt", [CRSMatrix, CCSMatrix, COOMatrix, DenseMatrix], ids=lambda f: f.__name__)
@pytest.mark.parametrize("backend", ["interpreted", "vectorized"], ids=["scalar", "vector"])
def test_spmv_transpose(fmt, backend):
    coo, dense, _ = make_data(rng=1)
    r = np.random.default_rng(5)
    xi = r.standard_normal(dense.shape[0])
    A = fmt.from_coo(coo)
    X = DenseVector(xi)
    Z = DenseVector.zeros(dense.shape[1])
    k = compile_kernel(SPMV_T, {"A": A, "X": X, "Z": Z}, backend=backend)
    k(A=A, X=X, Z=Z)
    assert np.allclose(Z.vals, dense.T @ xi), k.source


@pytest.mark.parametrize("backend", ["interpreted", "vectorized"], ids=["scalar", "vector"])
def test_spmv_sparse_x(backend):
    """Sparse A and sparse x: the planner must search x (paper Sec. 2)."""
    coo, dense, _ = make_data(rng=2)
    xd = np.zeros(dense.shape[1])
    xd[::2] = 1.5
    A = CRSMatrix.from_coo(coo)
    X = SparseVector.from_dense(xd)
    Y = DenseVector.zeros(dense.shape[0])
    k = compile_kernel(SPMV, {"A": A, "X": X, "Y": Y}, backend=backend)
    k(A=A, X=X, Y=Y)
    assert np.allclose(Y.vals, dense @ xd), k.source


def test_kernel_rebind_new_data():
    coo, dense, x = make_data(rng=3)
    A = CRSMatrix.from_coo(coo)
    k = compile_kernel(SPMV, {"A": A, "X": DenseVector(x), "Y": DenseVector.zeros(dense.shape[0])})
    coo2, dense2, x2 = make_data(rng=4)
    A2 = CRSMatrix.from_coo(coo2)
    Y2 = DenseVector.zeros(dense2.shape[0])
    k(A=A2, X=DenseVector(x2), Y=Y2)
    assert np.allclose(Y2.vals, dense2 @ x2)


def test_kernel_cache_hits():
    coo, dense, x = make_data()
    A = CRSMatrix.from_coo(coo)
    fm = {"A": A, "X": DenseVector(x), "Y": DenseVector.zeros(dense.shape[0])}
    assert compile_kernel(SPMV, fm) is compile_kernel(SPMV, fm)
    assert compile_kernel(SPMV, fm, backend="interpreted") is not compile_kernel(SPMV, fm)


def test_kernel_rejects_wrong_class():
    coo, dense, x = make_data()
    A = CRSMatrix.from_coo(coo)
    k = compile_kernel(SPMV, {"A": A, "X": DenseVector(x), "Y": DenseVector.zeros(dense.shape[0])})
    with pytest.raises(CompileError):
        k(A=CCSMatrix.from_coo(coo), X=DenseVector(x), Y=DenseVector.zeros(dense.shape[0]))


def test_kernel_rejects_extent_mismatch():
    coo, dense, x = make_data()
    A = CRSMatrix.from_coo(coo)
    k = compile_kernel(SPMV, {"A": A, "X": DenseVector(x), "Y": DenseVector.zeros(dense.shape[0])})
    with pytest.raises(CompileError):
        k(A=A, X=DenseVector(np.ones(3)), Y=DenseVector.zeros(dense.shape[0]))


def test_kernel_missing_binding():
    coo, dense, x = make_data()
    A = CRSMatrix.from_coo(coo)
    k = compile_kernel(SPMV, {"A": A, "X": DenseVector(x), "Y": DenseVector.zeros(dense.shape[0])})
    with pytest.raises(CompileError):
        k(A=A, X=DenseVector(x))


def test_non_format_binding_is_a_compile_error():
    fm = {"A": np.eye(5), "X": DenseVector(np.ones(5)), "Y": DenseVector.zeros(5)}
    with pytest.raises(CompileError, match=r"array 'A' .* got ndarray"):
        compile_kernel(SPMV, fm)


@pytest.mark.parametrize("backend", ["auto", "nope"])
def test_unknown_backend_is_a_compile_error(backend):
    coo, dense, x = make_data()
    fm = {"A": CRSMatrix.from_coo(coo), "X": DenseVector(x), "Y": DenseVector.zeros(dense.shape[0])}
    with pytest.raises(CompileError, match=r"available: interpreted, vectorized$"):
        compile_kernel(SPMV, fm, backend=backend)


@pytest.mark.parametrize("backend", ["interpreted", "vectorized"], ids=["scalar", "vector"])
def test_axpy_with_scalar(backend):
    src = "for i in 0:n { Y[i] += alpha * X[i] }"
    x = np.arange(5.0)
    X, Y = DenseVector(x), DenseVector(np.ones(5))
    k = compile_kernel(src, {"X": X, "Y": Y}, backend=backend)
    k(X=X, Y=Y, alpha=2.0)
    assert np.allclose(Y.vals, 1.0 + 2.0 * x)


@pytest.mark.parametrize("backend", ["interpreted", "vectorized"], ids=["scalar", "vector"])
def test_additive_split_kernel(backend):
    """Y = A + B elementwise with two sparse inputs (union query)."""
    src = "for i in 0:n { for j in 0:m { Y[i,j] = A[i,j] + B[i,j] } }"
    r = np.random.default_rng(0)
    da = r.standard_normal((6, 5)) * (r.random((6, 5)) < 0.4)
    db = r.standard_normal((6, 5)) * (r.random((6, 5)) < 0.4)
    A = CRSMatrix.from_coo(COOMatrix.from_dense(da))
    B = CRSMatrix.from_coo(COOMatrix.from_dense(db))
    Y = DenseMatrix.zeros(6, 5)
    k = compile_kernel(src, {"A": A, "B": B, "Y": Y}, backend=backend)
    k(A=A, B=B, Y=Y)
    assert np.allclose(Y.vals, da + db), k.source


@pytest.mark.parametrize("backend", ["interpreted", "vectorized"], ids=["scalar", "vector"])
def test_distributed_product_kernel(backend):
    """Y += (A + B) * X — distribution makes the predicates conjunctive."""
    src = "for i in 0:n { Y[i] += (A[i] + B[i]) * X[i] }"
    r = np.random.default_rng(1)
    da = r.standard_normal(8) * (r.random(8) < 0.5)
    db = r.standard_normal(8) * (r.random(8) < 0.5)
    x = r.standard_normal(8)
    A = SparseVector.from_dense(da)
    B = SparseVector.from_dense(db)
    X, Y = DenseVector(x), DenseVector.zeros(8)
    k = compile_kernel(src, {"A": A, "B": B, "X": X, "Y": Y}, backend=backend)
    k(A=A, B=B, X=X, Y=Y)
    assert np.allclose(Y.vals, (da + db) * x), k.source


@pytest.mark.parametrize("backend", ["interpreted", "vectorized"], ids=["scalar", "vector"])
def test_spmm_sparse_times_dense(backend):
    """Z[i,k] += A[i,j] * B[j,k] — sparse × skinny dense (paper Sec. 6)."""
    src = "for i in 0:n { for j in 0:m { for k in 0:p { Z[i,k] += A[i,j] * B[j,k] } } }"
    coo, dense, _ = make_data(rng=6)
    r = np.random.default_rng(7)
    b = r.standard_normal((dense.shape[1], 3))
    A = CRSMatrix.from_coo(coo)
    B = DenseMatrix(b)
    Z = DenseMatrix.zeros(dense.shape[0], 3)
    k = compile_kernel(src, {"A": A, "B": B, "Z": Z}, backend=backend)
    k(A=A, B=B, Z=Z)
    assert np.allclose(Z.vals, dense @ b), k.source


def test_spgemm_two_sparse():
    """Z[i,k] += A[i,j] * B[j,k] with both sparse: chained drivers."""
    src = "for i in 0:n { for j in 0:m { for k in 0:p { Z[i,k] += A[i,j] * B[j,k] } } }"
    r = np.random.default_rng(8)
    da = r.standard_normal((6, 7)) * (r.random((6, 7)) < 0.4)
    db = r.standard_normal((7, 5)) * (r.random((7, 5)) < 0.4)
    A = CRSMatrix.from_coo(COOMatrix.from_dense(da))
    B = CRSMatrix.from_coo(COOMatrix.from_dense(db))
    Z = DenseMatrix.zeros(6, 5)
    k = compile_kernel(src, {"A": A, "B": B, "Z": Z})
    k(A=A, B=B, Z=Z)
    assert np.allclose(Z.vals, da @ db), k.source


def test_scaling_statement():
    """Pure dense program compiles to dense loops."""
    src = "for i in 0:n { Y[i] = beta * X[i] }"
    x = np.arange(4.0)
    X, Y = DenseVector(x), DenseVector.zeros(4)
    k = compile_kernel(src, {"X": X, "Y": Y})
    k(X=X, Y=Y, beta=3.0)
    assert np.allclose(Y.vals, 3.0 * x)


def test_plain_assignment_with_free_var_rejected():
    src = "for i in 0:n { for j in 0:m { Y[i] = A[i,j] * X[j] } }"
    coo, dense, x = make_data()
    A = CRSMatrix.from_coo(coo)
    with pytest.raises(CompileError):
        compile_kernel(src, {"A": A, "X": DenseVector(x), "Y": DenseVector.zeros(dense.shape[0])})


def test_conflicting_index_tuples_rejected():
    src = "for i in 0:n { for j in 0:n { Y[i] += A[i,j] * A[j,i] } }"
    coo = COOMatrix.random(5, 5, 0.3, rng=0)
    A = CRSMatrix.from_coo(coo)
    with pytest.raises(CompileError):
        compile_kernel(src, {"A": A, "Y": DenseVector.zeros(5)})


@pytest.mark.parametrize("fmt", MATRIX_FORMATS, ids=lambda f: f.__name__)
@pytest.mark.parametrize("backend", ["interpreted", "vectorized"], ids=["scalar", "vector"])
@given(coo=coo_matrices(max_n=8, max_m=8))
@settings(max_examples=10, deadline=None)
def test_spmv_property_all_formats(fmt, backend, coo):
    A = fmt.from_coo(coo)
    x = np.linspace(-1, 1, coo.shape[1])
    X = DenseVector(x)
    Y = DenseVector.zeros(coo.shape[0])
    k = compile_kernel(SPMV, {"A": A, "X": X, "Y": Y}, backend=backend, cache=False)
    k(A=A, X=X, Y=Y)
    assert np.allclose(Y.vals, coo.to_dense() @ x, atol=1e-9), k.source


@pytest.mark.parametrize("backend", ["interpreted", "vectorized"], ids=["scalar", "vector"])
def test_matches_reference_executor(backend):
    src = "for i in 0:n { for j in 0:m { Y[i] += 2 * A[i,j] * X[j] } }"
    coo, dense, x = make_data(rng=11)
    A = CRSMatrix.from_coo(coo)
    X = DenseVector(x)
    Y = DenseVector.zeros(dense.shape[0])
    k = compile_kernel(src, {"A": A, "X": X, "Y": Y}, backend=backend)
    k(A=A, X=X, Y=Y)
    ref = run_reference(parse(src), {"A": dense, "X": x, "Y": np.zeros(dense.shape[0])})
    assert np.allclose(Y.vals, ref["Y"])
