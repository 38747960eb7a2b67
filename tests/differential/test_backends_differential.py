"""Property-based differential tests: vectorized == interpreted == dense.

One seeded/hypothesis matrix, every registered matrix format, three
executors.  The dense reference executor is the semantic oracle; the two
compiled backends must both match it within floating-point tolerance —
its summation order, and BLAS's on ``block-gemv`` units, differ from the
scalar nest's — so comparisons are ``allclose``.  Where no unit is
``block-gemv`` the two backends run one print and agree bitwise
(``test_tier_bits.py``).
"""

import numpy as np
import pytest
from hypothesis import given, settings

from repro.analysis.contracts import block_formats
from repro.compiler import compile_kernel, parse
from repro.compiler.reference import run_reference
from repro.formats import (
    FORMAT_NAMES,
    BlockSolveMatrix,
    COOMatrix,
    DenseMatrix,
    DenseVector,
    SparseVector,
)
from repro.kernels.spmm import SPMM_SRC
from repro.kernels.spmv import SPMV_SRC
from repro.kernels.vecops import axpy, dot
from repro.matrices import fem_matrix
from tests.conftest import coo_matrices

#: The dense-block formats outside Table 1, built with several blocks each.
BLOCK = block_formats()
#: Formats compiled through the backend layer.  BS95 is the hand-written
#: library path (asserted separately below), not a compiled kernel.
COMPILED = [n for n in FORMAT_NAMES if n != "BS95"] + sorted(BLOCK)

BACKENDS = ["interpreted", "vectorized"]


def _build(fmt_name, coo):
    """``(A, the dense matrix A stores)``.  A block format keeps only its
    blocks; BlockDiag is square, so a rectangular draw is padded."""
    if fmt_name not in BLOCK:
        return FORMAT_NAMES[fmt_name].from_coo(coo), coo.to_dense()
    if fmt_name == "BlockDiag":
        k = max(coo.shape)
        coo = COOMatrix((k, k), coo.row, coo.col, coo.vals)
    A = BLOCK[fmt_name](coo)
    return A, A.to_dense()


def _check_spmv(fmt_name, coo, make_x):
    """y = A·x through both backends, against the dense reference."""
    A, dense = _build(fmt_name, coo)
    x = make_x(A.shape[1])
    results = {}
    for backend in BACKENDS:
        X = DenseVector(x.copy())
        Y = DenseVector.zeros(A.shape[0])
        k = compile_kernel(SPMV_SRC, {"A": A, "X": X, "Y": Y}, backend=backend)
        k(A=A, X=X, Y=Y)
        results[backend] = Y.vals.copy()
    _assert_matches_reference(
        results, SPMV_SRC, {"A": dense, "X": x, "Y": np.zeros(A.shape[0])}, "Y"
    )


def _assert_matches_reference(results, program_src, arrays, target):
    ref = run_reference(parse(program_src), arrays)[target]
    for backend, got in results.items():
        assert np.allclose(got, ref, atol=1e-8), (
            f"{backend} disagrees with dense reference"
        )


# ----------------------------------------------------------------------
# SpMV
# ----------------------------------------------------------------------
@pytest.mark.parametrize("fmt", COMPILED)
@given(coo=coo_matrices(max_n=9, max_m=9))
@settings(max_examples=15, deadline=None)
def test_spmv_differential(fmt, coo):
    _check_spmv(fmt, coo, lambda m: np.linspace(-2.0, 2.0, m))


@pytest.mark.parametrize("fmt", COMPILED)
@pytest.mark.parametrize(
    "shape,entries",
    [
        ((4, 5), []),  # all-zero matrix
        ((5, 4), [(0, 0, 1.5), (4, 3, -2.0)]),  # empty rows between nonzeros
        ((1, 6), [(0, 2, 3.0)]),  # 1×n
        ((6, 1), [(3, 0, -1.0)]),  # n×1
    ],
    ids=["all-zero", "empty-rows", "1xn", "nx1"],
)
def test_spmv_differential_edge_shapes(fmt, shape, entries):
    rows = [e[0] for e in entries]
    cols = [e[1] for e in entries]
    vals = [e[2] for e in entries]
    coo = COOMatrix.from_entries(shape, rows, cols, vals)
    _check_spmv(fmt, coo, lambda m: np.arange(1.0, m + 1.0))


def test_spmv_differential_blocksolve():
    """BS95 is the library path: check it against the dense product."""
    coo = fem_matrix(points=8, dof=3, rng=1)
    bs = BlockSolveMatrix.from_coo(coo)
    x = np.linspace(-1.0, 1.0, coo.shape[0])
    assert np.allclose(bs.matvec(x), coo.to_dense() @ x, atol=1e-8)


# ----------------------------------------------------------------------
# SpMM
# ----------------------------------------------------------------------
@pytest.mark.parametrize("fmt", COMPILED)
@given(coo=coo_matrices(max_n=7, max_m=7))
@settings(max_examples=10, deadline=None)
def test_spmm_differential(fmt, coo):
    A, dense = _build(fmt, coo)
    b = np.random.default_rng(coo.nnz).standard_normal((A.shape[1], 3))
    results = {}
    for backend in BACKENDS:
        B = DenseMatrix(b.copy())
        C = DenseMatrix(np.zeros((A.shape[0], 3)))
        k = compile_kernel(SPMM_SRC, {"A": A, "B": B, "C": C}, backend=backend)
        k(A=A, B=B, C=C)
        results[backend] = C.vals.copy()
    _assert_matches_reference(
        results, SPMM_SRC, {"A": dense, "B": b, "C": np.zeros((A.shape[0], 3))}, "C"
    )


# ----------------------------------------------------------------------
# Vector ops (dense and sparse operands)
# ----------------------------------------------------------------------
@given(coo=coo_matrices(max_n=1, max_m=10))
@settings(max_examples=15, deadline=None)
def test_axpy_differential(coo):
    xd = coo.to_dense()[0]
    n = len(xd)
    y0 = np.linspace(0.0, 1.0, n)
    got = {
        backend: axpy(2.5, SparseVector.from_dense(xd), y0.copy(), backend=backend)
        for backend in BACKENDS
    }
    ref = run_reference(
        parse("for i in 0:n { Y[i] += alpha * X[i] }"),
        {"X": xd, "Y": y0.copy()},
        scalars={"alpha": 2.5},
    )["Y"]
    for backend, y in got.items():
        assert np.allclose(y, ref, atol=1e-8), backend


@given(coo=coo_matrices(max_n=1, max_m=10))
@settings(max_examples=15, deadline=None)
def test_dot_differential(coo):
    xd = coo.to_dense()[0]
    n = len(xd)
    y = np.linspace(-1.0, 1.0, n)
    want = float(xd @ y)
    for backend in BACKENDS:
        assert dot(SparseVector.from_dense(xd), y, backend=backend) == pytest.approx(
            want, abs=1e-8
        ), backend
        assert dot(xd, y, backend=backend) == pytest.approx(want, abs=1e-8), backend
