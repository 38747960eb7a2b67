"""Plans without a contiguous view compile and run right.

Plans whose last step is a sparse search or merge (sparse-x SpMV) or
whose enumeration is guarded (A[i,i]) print as the scalar nest, like
every other unit that is not ``block-gemv`` — never raise.  Every case is
differentially checked against the interpreted backend and the dense
reference executor.
"""

import numpy as np
import pytest

from repro.compiler import clear_kernel_cache, compile_kernel, parse
from repro.compiler.reference import run_reference
from repro.errors import CompileError
from repro.formats import COOMatrix, CRSMatrix, DenseVector, SparseVector
from repro.kernels.spmv import SPMV_SRC, spmv


@pytest.fixture(autouse=True)
def fresh_cache():
    clear_kernel_cache()
    yield
    clear_kernel_cache()


@pytest.fixture
def coo():
    rng = np.random.default_rng(11)
    dense = (rng.random((9, 9)) < 0.4) * rng.standard_normal((9, 9))
    return COOMatrix.from_dense(dense)


def _sparse_x_formats(coo):
    rng = np.random.default_rng(3)
    xd = (rng.random(9) < 0.5) * rng.standard_normal(9)
    return {
        "A": CRSMatrix.from_coo(coo),
        "X": SparseVector.from_dense(xd),
        "Y": DenseVector.zeros(9),
    }, xd


def test_sparse_x_spmv_falls_back_not_raises(coo):
    fmts, xd = _sparse_x_formats(coo)
    k = compile_kernel(SPMV_SRC, fmts, backend="vectorized")
    k(**fmts)
    ref = run_reference(
        parse(SPMV_SRC), {"A": coo.to_dense(), "X": xd, "Y": np.zeros(9)}
    )["Y"]
    assert np.allclose(fmts["Y"].vals, ref, atol=1e-9)

    interp, _ = _sparse_x_formats(coo)
    ki = compile_kernel(SPMV_SRC, interp, backend="interpreted")
    ki(**interp)
    assert np.allclose(fmts["Y"].vals, interp["Y"].vals, atol=1e-9)


def test_guarded_diagonal_falls_back(coo):
    src = "for i in 0:n { Y[i] += A[i,i] }"
    fmts = {"A": CRSMatrix.from_coo(coo), "Y": DenseVector.zeros(9)}
    k = compile_kernel(src, fmts, backend="vectorized")
    k(**fmts)
    assert np.allclose(fmts["Y"].vals, np.diag(coo.to_dense()), atol=1e-9)


def test_interpreted_backend_never_labels_fallback(coo):
    """Scalar code is the interpreted backend's first choice, not a
    degradation — the labels must say so."""
    fmts, _ = _sparse_x_formats(coo)
    k = compile_kernel(SPMV_SRC, fmts, backend="interpreted")
    assert all(label == "scalar" for label in k.unit_backends)


def test_spmv_wrapper_fallback_end_to_end(coo):
    """The public spmv() entry point runs such a plan too."""
    rng = np.random.default_rng(5)
    x = rng.standard_normal(9)
    got = spmv(CRSMatrix.from_coo(coo), SparseVector.from_dense(x).to_dense())
    assert np.allclose(got, coo.to_dense() @ x, atol=1e-9)


def test_unknown_backend_raises(coo):
    fmts = {"A": CRSMatrix.from_coo(coo), "X": DenseVector(np.ones(9)), "Y": DenseVector.zeros(9)}
    with pytest.raises(CompileError, match="backend"):
        compile_kernel(SPMV_SRC, fmts, backend="simd-9000")
