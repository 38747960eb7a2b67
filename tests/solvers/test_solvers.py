"""Solver tests: CG (sequential + parallel), Jacobi, power iteration."""

import numpy as np
import pytest

from repro.distribution import BlockDistribution
from repro.errors import DistributionError, ReproError
from repro.formats import BlockSolveMatrix, COOMatrix, CRSMatrix, DenseVector
from repro.matrices import fem_matrix, grid_laplacian, stencil_matrix
from repro.parallel import SPMV_VARIANTS
from repro.solvers import cg, ilu_preconditioned_cg, jacobi, parallel_cg, power_iteration

ROW_FRAGMENT_VARIANTS = [v for v in SPMV_VARIANTS if not SPMV_VARIANTS[v].blocksolve]


@pytest.fixture
def spd_system():
    coo = grid_laplacian((5, 5))
    n = coo.shape[0]
    rng = np.random.default_rng(0)
    xstar = rng.standard_normal(n)
    b = coo.to_dense() @ xstar
    return coo, b, xstar


def test_cg_solves_laplacian(spd_system):
    coo, b, xstar = spd_system
    res = cg(CRSMatrix.from_coo(coo), b, diag=coo.diagonal(), tol=1e-10)
    assert res.converged
    assert np.allclose(res.x, xstar, atol=1e-6)


def test_cg_matches_numpy_solve(spd_system):
    coo, b, _ = spd_system
    res = cg(CRSMatrix.from_coo(coo), b, tol=1e-12)
    assert np.allclose(res.x, np.linalg.solve(coo.to_dense(), b), atol=1e-6)


def test_cg_residuals_recorded(spd_system):
    coo, b, _ = spd_system
    res = cg(CRSMatrix.from_coo(coo), b, tol=1e-10)
    assert len(res.residuals) == res.iterations + 1
    assert res.final_residual < res.residuals[0]


def test_cg_with_callable_operator(spd_system):
    coo, b, xstar = spd_system
    dense = coo.to_dense()
    res = cg(lambda v: dense @ v, b, tol=1e-10)
    assert np.allclose(res.x, xstar, atol=1e-6)


def test_cg_maxiter_stops():
    coo = grid_laplacian((8, 8))
    b = np.ones(coo.shape[0])
    res = cg(CRSMatrix.from_coo(coo), b, maxiter=3, tol=1e-14)
    assert res.iterations == 3 and not res.converged


def test_cg_x0_start(spd_system):
    coo, b, xstar = spd_system
    res = cg(CRSMatrix.from_coo(coo), b, x0=xstar.copy(), tol=1e-10)
    assert res.iterations == 0
    assert res.converged


def test_cg_rejects_indefinite():
    neg = COOMatrix.from_dense(-np.eye(3))
    with pytest.raises(ReproError):
        cg(CRSMatrix.from_coo(neg), np.ones(3))


@pytest.mark.parametrize("variant", ROW_FRAGMENT_VARIANTS)
@pytest.mark.parametrize("P", [1, 2])
def test_parallel_cg_rejects_indefinite_like_cg(variant, P):
    """One contract for pᵀAp <= 0: the rank programs raise what ``cg``
    raises instead of iterating on with a negative step."""
    m = COOMatrix.from_dense(np.array([[1.0, 2.0, 0.0], [2.0, 1.0, 0.0], [0.0, 0.0, 1.0]]))
    b = np.array([1.0, -1.0, 0.5])
    with pytest.raises(ReproError, match="not positive definite"):
        cg(CRSMatrix.from_coo(m), b, diag=m.diagonal(), maxiter=5)
    with pytest.raises(ReproError, match="not positive definite"):
        parallel_cg(m, b, P, variant, niter=5)


_LAP = grid_laplacian((3, 3))
_B = np.ones(9)


@pytest.mark.parametrize(
    "call",
    [
        lambda: cg(CRSMatrix.from_coo(_LAP), _B.reshape(9, 1)),
        lambda: cg(lambda v: v, np.float64(1.0)),
        lambda: cg(CRSMatrix.from_coo(_LAP), _B, diag=np.ones(8)),
        lambda: cg(CRSMatrix.from_coo(_LAP), _B, diag=np.ones((9, 1))),
        lambda: ilu_preconditioned_cg(CRSMatrix.from_coo(_LAP), _B[:-1]),
        lambda: ilu_preconditioned_cg(CRSMatrix.from_coo(_LAP), _B.reshape(9, 1)),
        lambda: ilu_preconditioned_cg(_LAP.to_dense(), _B),
    ],
    ids=["cg-2d-b", "cg-scalar-b", "cg-short-diag", "cg-2d-diag",
         "ilu-short-b", "ilu-2d-b", "ilu-ndarray"],
)
def test_cg_entry_points_raise_typed_input_errors(call):
    with pytest.raises(ReproError):
        call()


@pytest.mark.parametrize("variant", ROW_FRAGMENT_VARIANTS)
def test_sequential_cg_is_the_one_rank_program(variant):
    """The local driver and the machine-driven rank program run the same
    PCG body: on one rank every allreduce is the local value."""
    A = grid_laplacian((12, 12))
    b = np.random.default_rng(4).standard_normal(A.shape[0])
    par = parallel_cg(A, b, 1, variant, niter=8)
    seq = cg(CRSMatrix.from_coo(A), b, A.diagonal(), tol=0.0, maxiter=8)
    assert par.iterations == seq.iterations == 8
    assert par.residuals == seq.residuals
    assert np.array_equal(par.x, seq.x)


def test_cg_diag_preconditioner_helps():
    # badly scaled SPD system: Jacobi preconditioning must reduce iterations
    coo = grid_laplacian((6, 6))
    n = coo.shape[0]
    scale = np.logspace(0, 3, n)
    dense = scale[:, None] * coo.to_dense() * scale[None, :]
    m = COOMatrix.from_dense(dense)
    b = np.ones(n)
    plain = cg(CRSMatrix.from_coo(m), b, tol=1e-8, maxiter=5000)
    precon = cg(CRSMatrix.from_coo(m), b, diag=m.diagonal(), tol=1e-8, maxiter=5000)
    assert precon.iterations < plain.iterations


@pytest.mark.parametrize("variant", ["mixed", "global"])
@pytest.mark.parametrize("P", [1, 2, 4])
def test_parallel_cg_matches_sequential(variant, P):
    coo = stencil_matrix((3, 3, 3), dof=2, rng=0)
    n = coo.shape[0]
    rng = np.random.default_rng(1)
    b = rng.standard_normal(n)
    seq = cg(CRSMatrix.from_coo(coo), b, diag=coo.diagonal(), maxiter=10, tol=0.0)
    par = parallel_cg(coo, b, nprocs=P, variant=variant, niter=10)
    assert np.allclose(par.x, seq.x, atol=1e-8)
    assert np.allclose(par.residuals, seq.residuals, rtol=1e-8)


@pytest.mark.parametrize("variant", ["blocksolve", "mixed-bs", "global-bs"])
def test_parallel_cg_bs_trio_matches_sequential(variant):
    coo = stencil_matrix((3, 3, 2), dof=3, rng=5)
    n = coo.shape[0]
    b = np.cos(np.arange(n, dtype=float))
    seq = cg(CRSMatrix.from_coo(coo), b, diag=coo.diagonal(), maxiter=10, tol=0.0)
    par = parallel_cg(coo, b, nprocs=3, variant=variant, niter=10)
    assert np.allclose(par.x, seq.x, atol=1e-8)
    assert np.allclose(par.residuals, seq.residuals, rtol=1e-8)


@pytest.mark.parametrize("P", [1, 2, 3])
def test_parallel_cg_blocksolve_matches_sequential(P):
    coo = fem_matrix(points=12, dof=3, rng=3)
    n = coo.shape[0]
    b = np.linspace(-1, 1, n)
    seq = cg(CRSMatrix.from_coo(coo), b, diag=coo.diagonal(), maxiter=10, tol=0.0)
    par = parallel_cg(coo, b, nprocs=P, variant="blocksolve", niter=10)
    assert np.allclose(par.x, seq.x, atol=1e-8)


def test_parallel_cg_records_phases():
    coo = stencil_matrix((3, 3), dof=1)
    b = np.ones(coo.shape[0])
    par = parallel_cg(coo, b, nprocs=2, variant="mixed", niter=5)
    assert par.stats is not None
    assert len(par.stats.phase("inspector").phases) >= 1
    assert len(par.stats.phase("executor").phases) >= 5


def test_parallel_cg_bad_variant():
    coo = grid_laplacian((3, 3))
    with pytest.raises(ReproError):
        parallel_cg(coo, np.ones(9), nprocs=2, variant="zzz")


@pytest.mark.parametrize("variant", ["mixed", "blocksolve"])
def test_parallel_cg_rejects_zero_diagonal(variant):
    """Same typed error as sequential ``cg`` — not x = [nan ...] and a
    numpy RuntimeWarning from inside the rank programs."""
    dense = grid_laplacian((3, 3)).to_dense()
    dense[4, 4] = 0.0
    with pytest.raises(ReproError, match="diagonal contains zeros"):
        parallel_cg(COOMatrix.from_dense(dense), np.ones(9), nprocs=2, variant=variant)


@pytest.mark.parametrize("bad", [0.0, np.nan, np.inf])
@pytest.mark.parametrize("solver", ["cg", "parallel_cg"])
def test_bad_preconditioner_diagonal_is_one_typed_error(solver, bad):
    """Both drivers need a finite, nonzero diagonal: a NaN or inf one is
    not an all-NaN or silently unpreconditioned solve."""
    dense = grid_laplacian((3, 3)).to_dense()
    dense[4, 4] = bad
    coo = COOMatrix.from_dense(dense)
    with pytest.raises(ReproError, match="must be finite and nonzero"):
        if solver == "cg":
            cg(CRSMatrix.from_coo(coo), np.ones(9), diag=coo.diagonal())
        else:
            parallel_cg(coo, np.ones(9), nprocs=1, variant="mixed")


@pytest.mark.parametrize("operator", ["format", "callable"])
def test_cg_rejects_x0_of_other_shape(operator):
    coo = grid_laplacian((3, 3))
    A = CRSMatrix.from_coo(coo) if operator == "format" else (lambda v, D=coo.to_dense(): D @ v)
    with pytest.raises(ReproError, match="initial guess has shape"):
        cg(A, np.ones(9), x0=np.ones(8))


@pytest.mark.parametrize("dist_procs", [2, 4])
def test_parallel_cg_rejects_distribution_over_other_rank_count(dist_procs):
    coo = grid_laplacian((3, 3))
    with pytest.raises(DistributionError, match="ranks"):
        parallel_cg(coo, np.ones(9), nprocs=3, dist=BlockDistribution(9, dist_procs))


def test_parallel_cg_rejects_rhs_of_other_length():
    """The mismatch is between b and A — the error must say so rather
    than blame a distribution sized from len(b)."""
    coo = grid_laplacian((3, 3))
    with pytest.raises(ReproError, match="right-hand side"):
        parallel_cg(coo, np.ones(8), nprocs=2)


@pytest.mark.parametrize("variant", SPMV_VARIANTS)
def test_parallel_cg_takes_any_format_and_rejects_non_square(variant):
    """CRS input solves bitwise like COO input (the BlockSolve variants
    convert through COO too); a rectangular matrix, a vector or a bare
    ndarray is a typed error, not an IndexError from inside the carving."""
    coo = fem_matrix(points=8, dof=2, rng=1)
    b = np.linspace(1.0, 2.0, coo.shape[0])
    x = parallel_cg(coo, b, 2, variant, niter=4).x
    assert np.array_equal(parallel_cg(CRSMatrix.from_coo(coo), b, 2, variant, niter=4).x, x)
    wide = COOMatrix.from_entries((6, 8), [*range(6), 0], [*range(6), 7], np.ones(7))
    tall = COOMatrix.from_entries((8, 6), [*range(6), 7], [*range(6), 0], np.ones(7))
    for bad in (wide, tall, DenseVector(b), coo.to_dense()):
        with pytest.raises(ReproError, match="square matrix Format"):
            parallel_cg(bad, np.ones(bad.shape[0]), 2, variant, niter=2)


def test_parallel_cg_default_blocksolve_distribution_spans_all_ranks():
    """More ranks than cliques per color: the trailing ranks own nothing,
    and the default distribution still counts them."""
    coo = fem_matrix(points=2, dof=2, rng=3)
    b = np.arange(1.0, coo.shape[0] + 1)
    par = parallel_cg(coo, b, nprocs=4, variant="mixed-bs", niter=4)
    seq = cg(CRSMatrix.from_coo(coo), b, diag=coo.diagonal(), maxiter=4, tol=0.0)
    assert np.allclose(par.x, seq.x, atol=1e-8)


def test_parallel_cg_accepts_prebuilt_blocksolve():
    coo = fem_matrix(points=8, dof=2, rng=1)
    bs = BlockSolveMatrix.from_coo(coo)
    b = np.ones(coo.shape[0])
    par = parallel_cg(bs, b, nprocs=2, variant="blocksolve", niter=8)
    seq = cg(CRSMatrix.from_coo(coo), b, diag=coo.diagonal(), maxiter=8, tol=0.0)
    assert np.allclose(par.x, seq.x, atol=1e-8)


def test_jacobi_converges_on_dominant_system():
    coo = grid_laplacian((4, 4))
    # make it strictly diagonally dominant
    dd = COOMatrix.from_dense(coo.to_dense() + 3 * np.eye(16))
    xstar = np.linspace(0, 1, 16)
    b = dd.to_dense() @ xstar
    x, iters, res = jacobi(CRSMatrix.from_coo(dd), b, tol=1e-10, maxiter=2000)
    assert np.allclose(x, xstar, atol=1e-6)
    assert iters < 2000


def test_jacobi_rejects_zero_diagonal():
    m = COOMatrix.from_entries((2, 2), [0, 1], [1, 0], [1.0, 1.0])
    with pytest.raises(ReproError):
        jacobi(CRSMatrix.from_coo(m), np.ones(2))


def test_power_iteration_dominant_eigenpair():
    dense = np.diag([5.0, 2.0, 1.0])
    dense[0, 1] = dense[1, 0] = 0.3
    m = CRSMatrix.from_coo(COOMatrix.from_dense(dense))
    lam, v, _ = power_iteration(m, rng=0)
    w, V = np.linalg.eigh(dense)
    assert lam == pytest.approx(w[-1], rel=1e-6)
    assert abs(abs(v @ V[:, -1]) - 1.0) < 1e-5
