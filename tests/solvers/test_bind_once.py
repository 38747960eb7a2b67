"""Solvers compile and bind once per solve (``kernels.spmv.bound_spmv``):
same iterates as a loop that re-enters ``spmv()`` every iteration, and
exactly one compile + one ``prepare`` whatever the iteration count."""

import sys

import numpy as np
import pytest

from repro.compiler.kernels import clear_kernel_cache
from repro.errors import CompileError
from repro.formats import FORMAT_NAMES, BlockSolveMatrix, COOMatrix
from repro.kernels.spmv import bound_spmv, spmv
from repro.matrices import fem_matrix, grid_laplacian
from repro.observability import metrics, trace
from repro.solvers import cg, jacobi, power_iteration

FORMATS = ["CRS", "Coordinate", "JDiag", "ITPACK", "Diagonal", "CCS"]


def _per_iteration_spmv(A, backend=None):
    """What the solvers did before: a fresh ``spmv()`` per mat-vec."""
    return lambda v: spmv(A, v, backend=backend)


@pytest.fixture
def system():
    coo = grid_laplacian((7, 6))
    rng = np.random.default_rng(3)
    dense = coo.to_dense() + np.diag(rng.random(coo.shape[0]))
    return COOMatrix.from_dense(dense), rng.standard_normal(coo.shape[0])


@pytest.mark.parametrize("fmt", FORMATS)
def test_solvers_match_per_iteration_spmv_bitwise(fmt, system, monkeypatch):
    coo, b = system
    A = FORMAT_NAMES[fmt].from_coo(coo)
    runs = {}
    for mode in ("bound", "reference"):
        if mode == "reference":
            for mod in ("cg", "jacobi", "power"):
                # (the package re-exports shadow the module names)
                module = sys.modules[f"repro.solvers.{mod}"]
                monkeypatch.setattr(module, "bound_spmv", _per_iteration_spmv)
        res = cg(A, b, diag=coo.diagonal(), tol=1e-10)
        shifted = FORMAT_NAMES[fmt].from_coo(
            COOMatrix.from_dense(coo.to_dense() + 4 * np.eye(coo.shape[0]))
        )
        runs[mode] = (
            (res.x, res.iterations, res.residuals),
            jacobi(shifted, b, tol=1e-9),
            power_iteration(A, rng=0),
        )
    (x, it, resid), jac, pw = runs["bound"]
    (x0, it0, resid0), jac0, pw0 = runs["reference"]
    assert it == it0 and it > 3 and resid == resid0 and np.array_equal(x, x0)
    assert jac[1:] == jac0[1:] and np.array_equal(jac[0], jac0[0])
    assert pw[0] == pw0[0] and pw[2] == pw0[2] and np.array_equal(pw[1], pw0[1])


def test_bound_spmv_returns_fresh_arrays_and_follows_value_edits(system):
    coo, b = system
    A = FORMAT_NAMES["CRS"].from_coo(coo)
    matvec = bound_spmv(A)
    y1 = matvec(b)
    y2 = matvec(2 * b)
    assert y1 is not y2 and np.array_equal(y1, spmv(A, b))
    A.vals *= 3.0  # values may change under a bound kernel
    assert np.array_equal(matvec(b), spmv(A, b))


def test_wrong_length_vector_is_the_typed_extent_error(system):
    """``bound_spmv(A)(x)`` checks x like ``spmv(A, x)`` does, so a solver
    handed a right-hand side of the wrong length fails with the same
    ``CompileError`` instead of a numpy broadcast error mid-iteration."""
    coo, b = system
    A = FORMAT_NAMES["CRS"].from_coo(coo)
    short = b[:-1]
    for call in (lambda: spmv(A, short), lambda: bound_spmv(A)(short), lambda: cg(A, short),
                 lambda: jacobi(A, short)):
        with pytest.raises(CompileError, match="extent mismatch"):
            call()


def test_bound_spmv_blocksolve_uses_the_library_path():
    coo = fem_matrix(points=6, dof=2, rng=1)
    bs = BlockSolveMatrix.from_coo(coo)
    x = np.linspace(-1.0, 1.0, coo.shape[0])
    assert np.array_equal(bound_spmv(bs)(x), bs.matvec(x))


@pytest.mark.parametrize("maxiter", [2, 25])
def test_one_compile_and_one_prepare_per_solve(system, maxiter):
    coo, b = system
    A = FORMAT_NAMES["CRS"].from_coo(coo)
    clear_kernel_cache()
    tracer = trace.enable_tracing()
    try:
        with metrics.scoped():
            res = cg(A, b, diag=coo.diagonal(), tol=0.0, maxiter=maxiter)
            snap = metrics.REGISTRY.snapshot()
    finally:
        trace.disable_tracing()
    assert res.iterations == maxiter
    names = [r.name for r in tracer.records]
    assert names.count("compiler.compile_kernel") == 1
    assert names.count("kernel.prepare") == 1
    assert names.count("kernels.spmv") == maxiter

    def total(counter):
        return sum(v for k, v in snap.items() if k.split("{")[0] == counter)

    assert total("compiler.kernels.prepares") == 1
    assert total("compiler.cache_hits") + total("compiler.cache_misses") == 1
    assert total("kernel.calls") == maxiter
