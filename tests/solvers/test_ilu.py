"""ILU(0), sparse triangular solves, and ILU-preconditioned CG."""

import numpy as np
import pytest
import scipy.sparse as sp
import scipy.sparse.linalg as spla
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import ReproError
from repro.formats import FORMAT_NAMES, COOMatrix, CRSMatrix
from repro.matrices import grid_laplacian
from repro.solvers import cg, ilu0, ilu_preconditioned_cg, solve_lower, solve_upper


def crs(dense):
    return CRSMatrix.from_coo(COOMatrix.from_dense(dense))


def test_solve_lower():
    L = np.array([[1.0, 0, 0], [2.0, 1.0, 0], [0, 3.0, 1.0]])
    b = np.array([1.0, 4.0, 8.0])
    x = solve_lower(crs(L), b, unit_diagonal=True)
    assert np.allclose(L @ x, b)


def test_solve_lower_nonunit():
    L = np.array([[2.0, 0], [3.0, 4.0]])
    b = np.array([2.0, 11.0])
    x = solve_lower(crs(L), b, unit_diagonal=False)
    assert np.allclose(L @ x, b)


def test_solve_upper():
    U = np.array([[2.0, 1.0, 0], [0, 3.0, 2.0], [0, 0, 4.0]])
    b = np.array([5.0, 13.0, 8.0])
    x = solve_upper(crs(U), b)
    assert np.allclose(U @ x, b)


def test_solve_upper_zero_diag_raises():
    U = np.array([[1.0, 1.0], [0, 0.0]])
    with pytest.raises(ReproError):
        solve_upper(crs(np.triu(U)), np.ones(2))


def test_ilu0_exact_on_full_pattern():
    """With no implied fill (dense band fully stored), ILU(0) == LU."""
    rng = np.random.default_rng(0)
    dense = np.diag(rng.random(6) + 3)
    for off in (1, -1):
        dense += np.diag(rng.random(6 - abs(off)) * 0.5, off)
    A = crs(dense)
    L, U = ilu0(A)
    assert np.allclose(L.to_dense() @ U.to_dense(), dense, atol=1e-10)
    # triangularity
    assert np.allclose(np.triu(L.to_dense(), 1), 0)
    assert np.allclose(np.tril(U.to_dense(), -1), 0)
    assert np.allclose(np.diag(L.to_dense()), 1.0)


def test_ilu0_keeps_pattern():
    lap = grid_laplacian((5, 5))
    A = CRSMatrix.from_coo(lap)
    L, U = ilu0(A)
    pattern = lap.to_dense() != 0
    lu_pattern = (L.to_dense() - np.eye(25) != 0) | (U.to_dense() != 0)
    assert not (lu_pattern & ~pattern).any(), "ILU(0) must not create fill"


def test_ilu0_matches_scipy_spilu_on_band():
    """On a matrix whose LU has no fill, scipy's exact ILU agrees."""
    rng = np.random.default_rng(1)
    n = 8
    dense = np.diag(rng.random(n) + 4) + np.diag(rng.random(n - 1), 1) + np.diag(rng.random(n - 1), -1)
    L, U = ilu0(crs(dense))
    ref = spla.splu(sp.csc_matrix(dense), permc_spec="NATURAL", diag_pivot_thresh=0)
    assert np.allclose((L.to_dense() @ U.to_dense()), dense, atol=1e-10)


def test_ilu0_requires_square_and_diagonal():
    with pytest.raises(ReproError):
        ilu0(CRSMatrix.from_coo(COOMatrix((2, 3), [], [], [])))
    no_diag = COOMatrix.from_entries((2, 2), [0, 1], [1, 0], [1.0, 1.0])
    with pytest.raises(ReproError):
        ilu0(CRSMatrix.from_coo(no_diag))


def test_ilu_pcg_converges_faster_than_jacobi_pcg():
    lap = grid_laplacian((12, 12))
    A = CRSMatrix.from_coo(lap)
    rng = np.random.default_rng(2)
    b = rng.standard_normal(lap.shape[0])
    jacobi_pcg = cg(A, b, diag=lap.diagonal(), tol=1e-8)
    ilu_pcg = ilu_preconditioned_cg(A, b, tol=1e-8)
    assert ilu_pcg.converged
    assert np.allclose(ilu_pcg.x, jacobi_pcg.x, atol=1e-5)
    assert ilu_pcg.iterations < jacobi_pcg.iterations


def test_ilu_pcg_takes_any_square_format():
    """Like ``cg``, any square Format: it is factored through CRS."""
    lap = grid_laplacian((6, 6))
    b = np.linspace(-1.0, 1.0, lap.shape[0])
    want = ilu_preconditioned_cg(CRSMatrix.from_coo(lap), b, tol=1e-10)
    for A in (lap, FORMAT_NAMES["JDiag"].from_coo(lap)):
        got = ilu_preconditioned_cg(A, b, tol=1e-10)
        assert got.residuals == want.residuals and np.array_equal(got.x, want.x)


@given(st.integers(3, 8), st.integers(0, 1000))
@settings(max_examples=20, deadline=None)
def test_triangular_solves_roundtrip_property(n, seed):
    rng = np.random.default_rng(seed)
    L = np.tril(rng.standard_normal((n, n)) * (rng.random((n, n)) < 0.5), -1) + np.eye(n)
    U = np.triu(rng.standard_normal((n, n)) * (rng.random((n, n)) < 0.5), 1) + np.diag(
        rng.random(n) + 1
    )
    b = rng.standard_normal(n)
    assert np.allclose(L @ solve_lower(crs(L), b), b, atol=1e-8)
    assert np.allclose(U @ solve_upper(crs(U), b), b, atol=1e-8)
