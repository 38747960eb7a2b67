"""Conjugate Gradient with diagonal preconditioning (paper Sec. 4).

Sequential :func:`cg` on a matrix format compiles one whole PCG iteration
— the SpMV, its three dot products and the vector updates — as one
mini-language program, :data:`PCG_SRC`; it binds that program once per
solve and calls it once per iteration (one C call when gcc is present).
Its dot products sum in row order.  An operator the compiler cannot see
(a plain callable, or a BlockSolve matrix, whose SpMV is a library
routine) runs the same iteration as numpy code around it.
:func:`parallel_cg` runs the SPMD version on a simulated
:class:`~repro.runtime.machine.Machine`, following the
inspector/executor split the paper measures: the setup phase builds the
communication schedule once; each iteration does one ghost exchange, one
local SpMV, and the allreduces of its dot products.

Every driver runs one loop, :func:`pcg_iteration` (as does
:func:`~repro.solvers.ilu.ilu_preconditioned_cg`): the convergence test,
the residual record and the pᵀAp ≤ 0 check around a ``step`` that does
one iteration — the compiled program, or :func:`numpy_step`'s numpy code
around an SpMV hook and a dot-product hook (a rank's exchange and
allreduces).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from repro.compiler import compile_kernel
from repro.errors import DistributionError, ReproError
from repro.formats.base import Format
from repro.formats.blocksolve import BlockSolveMatrix
from repro.formats.dense import DenseVector
from repro.kernels.spmv import spmv
from repro.observability.trace import span
from repro.parallel.fragment import partition_rows
from repro.parallel.spmd_spmv import SPMV_VARIANTS, make_spmv_setup
from repro.runtime.machine import Machine, RunStats

__all__ = ["CGResult", "PCG_SRC", "cg", "parallel_cg"]

#: One PCG iteration with M⁻¹ = diag(D): q = A·p, p·q, the x/r/z updates
#: with r·z and r·r, then p = z + βp (β = rzn / rz).
PCG_SRC = """
for i in 0:n { Q[i] = 0 }
for i in 0:n { for j in 0:n { Q[i] += A[i,j] * P[j] } }
for i in 0:n { pq += P[i] * Q[i] }
for i in 0:n {
  X[i] += (rz / pq) * P[i]
  R[i] = R[i] - (rz / pq) * Q[i]
  Z[i] = D[i] * R[i]
  rzn += R[i] * Z[i]
  rr += R[i] * R[i]
}
for i in 0:n { P[i] *= rzn / rz  P[i] += Z[i] }
"""


@dataclass
class CGResult:
    """Solution and convergence record of a CG run."""

    x: np.ndarray
    iterations: int
    residuals: list[float]
    converged: bool
    stats: RunStats | None = None  # parallel runs only

    @property
    def final_residual(self) -> float:
        return self.residuals[-1] if self.residuals else float("inf")


def check_system(A, b, diag=None, solver: str | None = None, x0=None) -> np.ndarray:
    """Every CG entry point's input checks; returns ``b`` as floats.

    ``b`` must be a vector; ``diag`` (if given) one of its length, finite
    and nonzero; ``x0`` (if given) one of its shape.  A named ``solver``
    needs ``A`` a square matrix Format of ``len(b)`` rows; :func:`cg` names
    none: its operator may be a callable, and a Format's compiled
    iteration checks the extents itself.
    """
    square = isinstance(A, Format) and len(A.shape) == 2 and A.shape[0] == A.shape[1]
    if solver and not square:
        raise ReproError(f"{solver} needs a square matrix Format, got {type(A).__name__} {getattr(A, 'shape', '')}")
    b = np.asarray(b, dtype=np.float64)
    if solver and b.shape != (A.shape[0],):
        raise ReproError(f"right-hand side has shape {b.shape}, matrix has {A.shape[0]} rows")
    if b.ndim != 1:
        raise ReproError(f"right-hand side must be a vector, got shape {b.shape}")
    if diag is not None and np.shape(diag) != b.shape:
        raise ReproError(f"preconditioner diagonal has shape {np.shape(diag)}, right-hand side {b.shape}")
    if diag is not None and not (np.isfinite(diag) & (np.asarray(diag) != 0)).all():
        raise ReproError("preconditioner diagonal contains zeros, NaN or inf: it must be finite and nonzero")
    if x0 is not None and np.shape(x0) != b.shape:
        raise ReproError(f"initial guess has shape {np.shape(x0)}, right-hand side {b.shape}")
    return b


def pcg_iteration(step, reduce, b, r, z, maxiter, tol):
    """The PCG loop every CG driver runs; returns ``(iterations,
    residuals, converged)``.

    ``r`` is the start's residual and ``z`` = M⁻¹r.  ``step(rz)`` does one
    iteration from rᵀz = ``rz`` and returns ``(pᵀq, the new rᵀz, rᵀr)``
    (it may stop after pᵀq when that is not positive).  ``step`` and
    ``reduce`` are generator functions: a rank program's yield machine
    collectives, the sequential driver's return at once.  ``reduce``
    receives a group of dot products the start needs together — ``(r·z,
    b·b, r·r)`` — and returns their global values.
    """
    rz, b2, rr = yield from reduce((float(r @ z), float(b @ b), float(r @ r)))
    bnorm = math.sqrt(b2) or 1.0
    residuals = [math.sqrt(rr)]
    converged = residuals[-1] <= tol * bnorm
    it = 0
    while not converged and it < maxiter:
        pq, rz, rr = yield from step(rz)
        if pq <= 0:
            raise ReproError("matrix is not positive definite (pᵀAp <= 0)")
        it += 1
        residuals.append(math.sqrt(rr))
        converged = residuals[-1] <= tol * bnorm
    return it, residuals, converged


def numpy_step(spmv, precond, reduce, x, r, z):
    """:func:`pcg_iteration`'s ``step`` as numpy code around hooks:
    ``spmv(p)`` and ``reduce(dots)`` are generator functions (``reduce``
    gets ``p·q`` alone, then ``(r·z, r·r)``), ``precond(r)`` applies M⁻¹.
    ``x`` and ``r`` are updated in place."""
    p = z.copy()

    def step(rz):
        nonlocal x, r, z, p
        q = yield from spmv(p)
        (pq,) = yield from reduce((float(p @ q),))
        if pq <= 0:
            return pq, rz, 0.0
        alpha = rz / pq
        x += alpha * p
        r -= alpha * q
        z = precond(r)
        rz_new, rr = yield from reduce((float(r @ z), float(r @ r)))
        beta = rz_new / rz
        p = z + beta * p
        return pq, rz_new, rr

    return step


def _at_once(fn):
    """``fn`` as a generator function that returns without yielding."""

    def hook(arg):
        return fn(arg)
        yield  # unreachable: makes ``hook`` a generator function

    return hook


def solve_local(matvec, precond, b, tol, maxiter, x0=None, make=None) -> CGResult:
    """Drive :func:`pcg_iteration` in one process: a dot product's global
    value is its local one.  ``make(x, r, z)`` builds the step (default:
    numpy code around the SpMV ``matvec``, which also forms ``x0``'s
    residual)."""
    x = np.zeros(len(b)) if x0 is None else np.array(x0, dtype=np.float64)
    r = b - matvec(x) if x.any() else b.copy()
    z = precond(r)
    reduce = _at_once(tuple)
    step = make(x, r, z) if make else numpy_step(_at_once(matvec), precond, reduce, x, r, z)
    maxiter = maxiter if maxiter is not None else 10 * len(b)
    body = pcg_iteration(step, reduce, b, r, z, maxiter, tol)
    try:
        next(body)  # the hooks never yield, so this runs the whole solve
    except StopIteration as done:
        return CGResult(x, *done.value)


def _compiled_step(A, dinv):
    """A ``make`` for :func:`solve_local`: :data:`PCG_SRC` compiled and
    bound once over the solve's vectors, one bound call per iteration."""

    def make(x, r, z):
        vecs = dict(X=x, R=r, Z=z, P=z.copy(), Q=np.zeros(len(x)), D=dinv)
        vecs = {k: DenseVector(v) for k, v in vecs.items()}
        kern = compile_kernel(PCG_SRC, {"A": A, **vecs})
        run = kern.bind(A=A, rz=0.0, **vecs)
        s = run.scalars
        PQ, RR, RZ, RZN = map(kern.slots.index, ("pq", "rr", "rz", "rzn"))
        attrs = dict(format=type(A).__name__, nnz=A.nnz)

        def step(rz):
            s[RZ] = rz
            with span("solvers.cg.step", **attrs):
                run()
            v = s.tolist()
            return v[PQ], v[RZN], v[RR]

        return _at_once(step)

    return make


def cg(
    A,
    b: np.ndarray,
    diag: np.ndarray | None = None,
    tol: float = 1e-8,
    maxiter: int | None = None,
    x0: np.ndarray | None = None,
) -> CGResult:
    """Preconditioned CG for SPD systems.

    ``A`` is any matrix format or a matvec callable; ``diag`` the
    preconditioner diagonal (defaults to ones: unpreconditioned).
    Iterates until ||r|| <= tol·||b|| or ``maxiter``.
    """
    b = check_system(A, b, diag, x0=x0)
    dinv = 1.0 / np.asarray(diag, dtype=np.float64) if diag is not None else np.ones(len(b))
    if isinstance(A, Format):  # a BlockSolve matrix's SpMV is the library's
        matvec = lambda v: spmv(A, v)  # noqa: E731
        make = None if isinstance(A, BlockSolveMatrix) else _compiled_step(A, dinv)
    elif callable(A):
        matvec, make = A, None
    else:
        raise ReproError(f"cannot use {type(A).__name__} as an operator")
    return solve_local(matvec, lambda r: dinv * r, b, tol, maxiter, x0, make)


# ----------------------------------------------------------------------
# parallel CG
# ----------------------------------------------------------------------
def _allreduce(coalesce: bool):
    """A rank's reduction hook for :func:`pcg_iteration`: with ``coalesce``
    a group of dot products rides one array allreduce (one α charge, not
    two or three), else each value is one scalar allreduce, as a lone
    ``p·q`` always is.  The machine folds arrays elementwise in the rank
    order it folds scalars, so the iterates are bitwise the same."""

    def reduce(dots):
        if coalesce and len(dots) > 1:
            sums = yield ("allreduce", np.array(dots))
            return [float(s) for s in sums]
        sums = []
        for d in dots:
            sums.append((yield ("allreduce", d)))
        return sums

    return reduce


def parallel_cg(
    A,
    b: np.ndarray,
    nprocs: int,
    variant: str = "mixed",
    niter: int = 10,
    tol: float = 0.0,
    dist=None,
    faults=None,
    delivery=None,
    overlap: bool = True,
    coalesce: bool = True,
    schedule_cache=None,
    model=None,
) -> CGResult:
    """SPMD preconditioned CG on the simulated machine.

    ``variant`` names a row of
    :data:`~repro.parallel.spmd_spmv.SPMV_VARIANTS`:

    * ``"blocksolve"``, ``"mixed-bs"``, ``"global-bs"`` — the Table-2 trio
      over BlockSolve structures (hand-written library / compiled mixed
      spec / compiled fully-global spec); ``A`` may be any format (built
      through COO) or a prebuilt :class:`BlockSolveMatrix`; solved in the
      reordered space and mapped back,
    * ``"mixed"``, ``"global"`` (and their ``"indirect-*"`` forms) — the
      CRS-fragment Bernoulli variants for general matrices; ``dist``
      defaults to a block row distribution.

    ``niter`` bounds the iterations (the paper runs exactly 10); set
    ``tol > 0`` to also stop on convergence.

    ``faults`` (a :class:`~repro.runtime.faults.FaultPlan`) and
    ``delivery`` (a :class:`~repro.runtime.faults.DeliveryConfig`) run the
    solve under the fault-injecting delivery layer: the result either
    matches the fault-free solve bit-for-bit or the call raises
    :class:`~repro.errors.CommFailureError`.

    ``overlap``, ``coalesce`` and ``schedule_cache`` are the executor
    communication knobs (see :class:`~repro.runtime.comm.CommOptions`);
    all three leave the computed iterates bitwise unchanged.  ``model``
    overrides the machine's α–β :class:`~repro.runtime.machine.CommModel`.
    """
    from repro.distribution.block import BlockDistribution
    from repro.distribution.multiblock import MultiBlockDistribution
    from repro.runtime.comm import CommOptions

    if variant not in SPMV_VARIANTS:
        raise ReproError(f"unknown parallel CG variant {variant!r}")
    b = check_system(A, b, solver="parallel CG")
    n = A.shape[0]
    opts = CommOptions(
        overlap=overlap, coalesce=coalesce, schedule_cache=schedule_cache
    )

    # choose (perm, dist, diag, data): the solve runs in the space `dist`
    # distributes, with b'[perm] = b and x = x'[perm]
    if SPMV_VARIANTS[variant].blocksolve:
        bs = A if isinstance(A, BlockSolveMatrix) else BlockSolveMatrix.from_coo(A.to_coo())
        perm = bs.perm.perm  # the reordered system A' x' = b'
        dist = dist or MultiBlockDistribution.from_color_classes(
            bs.clique_ptr, bs.colors, nprocs
        )
        diag = bs.dense_blocks.diagonal()  # a diagonal entry is in its clique
        data = [bs] * nprocs
    else:
        coo = A.to_coo()
        perm = np.arange(n)
        dist = dist or BlockDistribution(n, nprocs)
        data = partition_rows(coo, dist)
        diag = np.zeros(n)
        for frag in data:  # a row's owner owns its diagonal entry
            diag[frag.rows_global] = frag.diagonal
    if dist.nprocs != nprocs or dist.nglobal != n:
        raise DistributionError(
            f"distribution is {dist.nglobal} rows over {dist.nprocs} ranks; "
            f"the solve is {n} rows over {nprocs}"
        )
    check_system(A, b, diag, solver="parallel CG")
    bprime = np.empty(n)
    bprime[perm] = b
    owned = [dist.owned_by(p) for p in range(nprocs)]

    dinv, reduce = 1.0 / diag, _allreduce(coalesce)

    def rank(strategy, blocal, dinv_local):
        # every rank sees the same allreduced dots, hence the same residuals
        yield ("phase", "inspector")
        yield from strategy.setup()
        yield ("phase", "executor")
        x, r = np.zeros(len(blocal)), blocal.copy()
        z = dinv_local * r
        step = numpy_step(strategy.step, lambda r: dinv_local * r, reduce, x, r, z)
        return (x, *(yield from pcg_iteration(step, reduce, blocal, r, z, niter, tol)))

    def make(p):
        strategy = make_spmv_setup(variant, p, dist, data[p], opts)
        return rank(strategy, bprime[owned[p]], dinv[owned[p]])

    machine = Machine(nprocs, faults=faults, delivery=delivery, model=model)
    results, stats = machine.run(make)
    xprime = np.zeros(n)
    for p in range(nprocs):
        xprime[owned[p]] = results[p][0]
    x = xprime[perm]

    it = results[0][1]
    residuals = results[0][2]
    converged = results[0][3]
    return CGResult(x, it, residuals, converged, stats=stats)
