"""Solvers compile and bind once per solve: exactly one compile + one
``prepare`` whatever the iteration count.  ``jacobi`` and
``power_iteration`` bind the SpMV (``kernels.spmv.bound_spmv``) and match
a loop that re-enters ``spmv()`` every iteration; ``cg`` on a format
binds its whole iteration program (``PCG_SRC``) and matches that program
run as Python (no C compiler).  The operators ``cg`` runs as
numpy steps — a callable, a BlockSolve matrix, ILU's triangular solves —
keep the numpy-order iterates, pinned against that loop written out."""

import sys

import numpy as np
import pytest

from repro.analysis.contracts import block_formats
from repro.compiler import compile_kernel, native
from repro.compiler.kernels import clear_kernel_cache
from repro.errors import CompileError, ReproError
from repro.formats import FORMAT_NAMES, BlockSolveMatrix, COOMatrix, DenseVector
from repro.kernels.spmv import bound_spmv, spmv
from repro.matrices import fem_matrix, grid_laplacian
from repro.observability import metrics, trace
from repro.solvers import cg, ilu_preconditioned_cg, jacobi, power_iteration
from repro.solvers.cg import PCG_SRC
from repro.solvers.ilu import ilu0, solve_lower, solve_upper

FORMATS = ["CRS", "Coordinate", "JDiag", "ITPACK", "Diagonal", "CCS"]


def _per_iteration_spmv(A):
    """What the solvers did before: a fresh ``spmv()`` per mat-vec."""
    return lambda v: spmv(A, v)


@pytest.fixture
def system():
    coo = grid_laplacian((7, 6))
    rng = np.random.default_rng(3)
    dense = coo.to_dense() + np.diag(rng.random(coo.shape[0]))
    return COOMatrix.from_dense(dense), rng.standard_normal(coo.shape[0])


def _traced(call):
    """``call()``'s result, the names of the spans it opened and its
    counter totals."""
    tracer = trace.enable_tracing()
    try:
        with metrics.scoped():
            out = call()
            snap = metrics.REGISTRY.snapshot()
    finally:
        trace.disable_tracing()

    def total(counter):
        return sum(v for k, v in snap.items() if k.split("{")[0] == counter)

    return out, [r.name for r in tracer.records], total


@pytest.mark.parametrize("fmt", FORMATS)
def test_solvers_match_per_iteration_spmv_bitwise(fmt, system, monkeypatch):
    coo, b = system
    A = FORMAT_NAMES[fmt].from_coo(coo)
    runs = {}
    for mode in ("bound", "reference"):
        if mode == "reference":  # the same print, run as Python
            monkeypatch.setattr(native, "find_compiler", lambda: None)
        clear_kernel_cache()  # a cached kernel keeps the tiers its earlier binds chose
        res, names, total = _traced(lambda: cg(A, b, diag=coo.diagonal(), tol=1e-10))
        assert names.count("compiler.compile_kernel") == names.count("kernel.prepare") == 1
        assert total("compiler.kernels.prepares") == 1
        if mode == "reference":
            for mod in ("jacobi", "power"):
                # (the package re-exports shadow the module names)
                module = sys.modules[f"repro.solvers.{mod}"]
                monkeypatch.setattr(module, "bound_spmv", _per_iteration_spmv)
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
    clear_kernel_cache()


def _numpy_pcg(matvec, precond, b, tol, maxiter):
    """The sequential PCG loop with numpy dots and updates, written out:
    what ``cg`` ran for every operator before its iteration compiled."""
    x, r = np.zeros(len(b)), b.copy()
    z = precond(r)
    p = z.copy()
    rz, b2, rr = float(r @ z), float(b @ b), float(r @ r)
    bnorm = np.sqrt(b2) or 1.0
    residuals = [float(np.sqrt(rr))]
    it = 0
    while residuals[-1] > tol * bnorm and it < maxiter:
        q = matvec(p)
        alpha = rz / float(p @ q)
        x += alpha * p
        r -= alpha * q
        z = precond(r)
        rz_new, rr = float(r @ z), float(r @ r)
        beta = rz_new / rz
        rz = rz_new
        p = z + beta * p
        it += 1
        residuals.append(float(np.sqrt(rr)))
    return x, it, residuals


@pytest.mark.parametrize("operator", ["callable", "ilu", "blocksolve"])
def test_numpy_step_operators_keep_numpy_order_iterates(operator, system):
    coo, b = system
    dinv = 1.0 / coo.diagonal()
    if operator == "callable":
        dense = coo.to_dense()
        matvec, precond = (lambda v: dense @ v), (lambda r: dinv * r)
        res = cg(matvec, b, diag=coo.diagonal(), tol=1e-10)
    elif operator == "ilu":
        A = FORMAT_NAMES["CRS"].from_coo(coo)
        L, U = ilu0(A)
        matvec, precond = bound_spmv(A), (lambda r: solve_upper(U, solve_lower(L, r)))
        res = ilu_preconditioned_cg(A, b, tol=1e-10)
    else:
        bs = BlockSolveMatrix.from_coo(fem_matrix(points=6, dof=2, rng=1))
        b = np.linspace(-1.0, 1.0, bs.shape[0])
        dinv = 1.0 / bs.to_coo().diagonal()
        matvec, precond = bs.matvec, (lambda r: dinv * r)
        res = cg(bs, b, diag=1.0 / dinv, tol=1e-10)
    x, it, residuals = _numpy_pcg(matvec, precond, b, 1e-10, 10 * len(b))
    assert res.iterations == it > 3 and res.residuals == residuals
    assert np.array_equal(res.x, x)


@pytest.mark.parametrize("tier", ["gcc", "no-compiler"])
def test_indefinite_matrix_raises_on_the_compiled_path(tier, monkeypatch):
    if tier == "gcc" and native.find_compiler() is None:
        pytest.skip("no C compiler on PATH")
    if tier == "no-compiler":
        monkeypatch.setattr(native, "find_compiler", lambda: None)
    clear_kernel_cache()  # a cached kernel keeps the tiers its earlier binds chose
    m = COOMatrix.from_dense(np.array([[1.0, 2.0, 0.0], [2.0, 1.0, 0.0], [0.0, 0.0, 1.0]]))
    with pytest.raises(ReproError, match="not positive definite"):
        cg(FORMAT_NAMES["CRS"].from_coo(m), np.array([1.0, -1.0, 0.5]))
    clear_kernel_cache()


@pytest.mark.parametrize("fmt", ["CRS", "Coordinate", "JDiag"])
def test_iteration_program_is_one_c_run(fmt, system):
    if native.find_compiler() is None:
        pytest.skip("no C compiler on PATH")
    coo, b = system
    A = FORMAT_NAMES[fmt].from_coo(coo)
    vecs = {k: DenseVector(b.copy()) for k in "XRZPQD"}
    clear_kernel_cache()
    kern = compile_kernel(PCG_SRC, {"A": A, **vecs})
    kern.bind(A=A, rz=1.0, **vecs)
    assert kern.native.reason is None and len(kern.native.units) == len(kern.units)
    assert all(u.reason is None and u.fingerprint == kern.native.fingerprint for u in kern.native.units)


@pytest.mark.parametrize("fmt", ["Inode", "BlockDiag"])
def test_cg_on_small_blocks_is_one_c_call_per_iteration(fmt, system, monkeypatch):
    """Blocks of a few rows print the scalar nest, so the whole iteration
    program is one C run; its iterates are bitwise the no-compiler run's."""
    if native.find_compiler() is None:
        pytest.skip("no C compiler on PATH")
    coo, b = system
    A = block_formats()[fmt](coo)  # BlockDiag keeps the blocks on row runs 1, 2, 3, ...
    vecs = {k: DenseVector(b.copy()) for k in "XRZPQD"}
    runs = []
    for tier in ("gcc", "no-compiler"):
        if tier == "no-compiler":
            monkeypatch.setattr(native, "find_compiler", lambda: None)
        clear_kernel_cache()
        res = cg(A, b, diag=coo.diagonal(), tol=1e-10)
        kern = compile_kernel(PCG_SRC, {"A": A, **vecs})  # the solve's kernel, from the cache
        runs.append((res.x.tobytes(), res.iterations, res.residuals))
        if tier == "gcc":
            assert kern.native.reason is None and "block-gemv" not in kern.unit_backends
            assert {u.fingerprint for u in kern.native.units} == {kern.native.fingerprint}
    assert runs[0] == runs[1] and runs[0][1] > 3
    clear_kernel_cache()


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
    for call in (lambda: spmv(A, short), lambda: bound_spmv(A)(short), lambda: cg(A, short)):
        with pytest.raises(CompileError, match="extent mismatch"):
            call()


def test_jacobi_checks_its_system_like_cg(system):
    """``jacobi`` names what is wrong with its input, through the check
    every CG entry point runs, instead of failing inside the SpMV."""
    coo, b = system
    A = FORMAT_NAMES["CRS"].from_coo(coo)
    wide = FORMAT_NAMES["CRS"].from_coo(COOMatrix.from_dense(np.ones((len(b), len(b) + 1))))
    cases = [
        (lambda v: A.to_dense() @ v, b, "Jacobi needs a square matrix Format, got function"),
        (wide, b, "Jacobi needs a square matrix Format, got CRSMatrix"),
        (A, b[:-1], "right-hand side has shape"),
    ]
    for op, rhs, message in cases:
        with pytest.raises(ReproError, match=message) as err:
            jacobi(op, rhs)
        assert not isinstance(err.value, CompileError)


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
    res, names, total = _traced(lambda: cg(A, b, diag=coo.diagonal(), tol=0.0, maxiter=maxiter))
    assert res.iterations == maxiter
    assert names.count("compiler.compile_kernel") == 1
    assert names.count("kernel.prepare") == 1
    assert names.count("solvers.cg.step") == maxiter
    assert total("compiler.kernels.prepares") == 1
    assert total("compiler.cache_hits") + total("compiler.cache_misses") == 1
    assert total("kernel.calls") == maxiter


def test_ilu_preconditioned_cg_binds_once_and_matches_per_iteration_spmv(system, monkeypatch):
    coo, b = system
    A = FORMAT_NAMES["CRS"].from_coo(coo)
    clear_kernel_cache()
    tracer = trace.enable_tracing()
    try:
        res = ilu_preconditioned_cg(A, b, tol=0.0, maxiter=6)
    finally:
        trace.disable_tracing()
    names = [r.name for r in tracer.records]
    assert res.iterations == 6
    assert names.count("compiler.compile_kernel") == 1
    assert names.count("kernel.prepare") == 1
    assert names.count("kernels.spmv") == 6

    monkeypatch.setattr(sys.modules["repro.solvers.ilu"], "bound_spmv", _per_iteration_spmv)
    ref = ilu_preconditioned_cg(A, b, tol=0.0, maxiter=6)
    assert ref.iterations == res.iterations and ref.residuals == res.residuals
    assert np.array_equal(ref.x, res.x)


def test_compiled_iteration_keeps_numpys_spmv_and_update_bits(system):
    """Given the dots it summed (in row order), one call of the iteration
    program leaves q = A·p and the x, r, z, p updates bitwise as numpy
    computes them from those dots."""
    coo, b = system
    A = FORMAT_NAMES["CRS"].from_coo(coo)
    rng = np.random.default_rng(5)
    x, r, p = (rng.standard_normal(len(b)) for _ in range(3))
    dinv, rz = 1.0 / coo.diagonal(), 0.75
    vecs = {k: DenseVector(v.copy()) for k, v in dict(X=x, R=r, Z=dinv * r, P=p, Q=np.ones(len(b)), D=dinv).items()}
    kern = compile_kernel(PCG_SRC, {"A": A, **vecs})
    got = kern(A=A, rz=rz, **vecs)
    q = spmv(A, p)
    alpha = rz / got["pq"]
    x, r = x + alpha * p, r - alpha * q
    z = dinv * r
    want = dict(Q=q, X=x, R=r, Z=z, P=z + (got["rzn"] / rz) * p)
    for name, v in want.items():
        assert vecs[name].vals.tobytes() == v.tobytes(), name
