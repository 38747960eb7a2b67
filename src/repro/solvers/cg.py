"""Conjugate Gradient with diagonal preconditioning (paper Sec. 4).

Sequential :func:`cg` accepts any matrix format (the SpMV is produced by
the compiler) or a plain callable.  :func:`parallel_cg` runs the SPMD
version on a simulated :class:`~repro.runtime.machine.Machine`, following
the inspector/executor split the paper measures: the setup phase builds the
communication schedule once; each iteration does one ghost exchange, one
local SpMV, and the allreduces of its dot products.

Both run one iteration body, :func:`pcg_iteration` (as does
:func:`~repro.solvers.ilu.ilu_preconditioned_cg`).  A driver supplies the
SpMV step, the preconditioner and the code that finishes each group of dot
products: the local values sequentially, allreduces on a rank.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.errors import DistributionError, ReproError
from repro.formats.base import Format
from repro.formats.blocksolve import BlockSolveMatrix
from repro.kernels.spmv import bound_spmv
from repro.parallel.fragment import partition_rows
from repro.parallel.spmd_spmv import SPMV_VARIANTS, make_spmv_setup
from repro.runtime.machine import Machine, RunStats

__all__ = ["CGResult", "cg", "parallel_cg"]


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


def _as_matvec(A, backend: str | None = None):
    if isinstance(A, Format):
        # one compile and one bind per solve: an iteration pays only the
        # generated run() around its vector updates
        return bound_spmv(A, backend=backend)
    if callable(A):
        return A
    raise ReproError(f"cannot use {type(A).__name__} as an operator")


def check_system(A, b, diag=None, solver: str | None = None, x0=None) -> np.ndarray:
    """Every CG entry point's input checks; returns ``b`` as floats.

    ``b`` must be a vector; ``diag`` (if given) one of its length, finite
    and nonzero; ``x0`` (if given) one of its shape.  A named ``solver``
    needs ``A`` a square matrix Format of ``len(b)`` rows; :func:`cg` names
    none: its operator may be a callable, and a Format's SpMV checks the
    extent itself.
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


def pcg_iteration(spmv, precond, reduce, b, x, r, maxiter, tol):
    """The PCG iteration every CG driver runs; returns
    ``(x, iterations, residuals, converged)``.

    ``spmv(p)`` and ``reduce(dots)`` are generator functions: a rank
    program's SpMV step and allreduces yield machine collectives, the
    sequential driver's return at once.  ``reduce`` receives each group of
    dot products the iteration needs together — ``(r·z, b·b, r·r)`` at the
    start, ``p·q`` alone, then ``(r·z, r·r)`` — and returns their global
    values.  ``precond(r)`` applies M⁻¹; ``x`` and its residual ``r`` are
    the start and are updated in place.
    """
    z = precond(r)
    p = z.copy()
    rz, b2, rr = yield from reduce((float(r @ z), float(b @ b), float(r @ r)))
    bnorm = np.sqrt(b2) or 1.0
    residuals = [float(np.sqrt(rr))]
    converged = residuals[-1] <= tol * bnorm
    it = 0
    while not converged and it < maxiter:
        q = yield from spmv(p)
        (pq,) = yield from reduce((float(p @ q),))
        if pq <= 0:
            raise ReproError("matrix is not positive definite (pᵀAp <= 0)")
        alpha = rz / pq
        x += alpha * p
        r -= alpha * q
        z = precond(r)
        rz_new, rr = yield from reduce((float(r @ z), float(r @ r)))
        beta = rz_new / rz
        rz = rz_new
        p = z + beta * p
        it += 1
        residuals.append(float(np.sqrt(rr)))
        converged = residuals[-1] <= tol * bnorm
    return x, it, residuals, converged


def _at_once(fn):
    """``fn`` as a generator function that returns without yielding."""

    def hook(arg):
        return fn(arg)
        yield  # unreachable: makes ``hook`` a generator function

    return hook


def solve_local(matvec, precond, b, tol, maxiter, x0=None) -> CGResult:
    """Drive :func:`pcg_iteration` in one process: the SpMV is ``matvec``
    and a dot product's global value is its local one."""
    n = len(b)
    x = np.zeros(n) if x0 is None else np.array(x0, dtype=np.float64)
    r = b - matvec(x) if x.any() else b.copy()
    maxiter = maxiter if maxiter is not None else 10 * n
    body = pcg_iteration(_at_once(matvec), precond, _at_once(tuple), b, x, r, maxiter, tol)
    try:
        next(body)  # the hooks never yield, so this runs the whole solve
    except StopIteration as done:
        return CGResult(*done.value)


def cg(
    A,
    b: np.ndarray,
    diag: np.ndarray | None = None,
    tol: float = 1e-8,
    maxiter: int | None = None,
    x0: np.ndarray | None = None,
    backend: str | None = None,
) -> CGResult:
    """Preconditioned CG for SPD systems.

    ``A`` is any matrix format or a matvec callable; ``diag`` the
    preconditioner diagonal (defaults to ones: unpreconditioned);
    ``backend`` the executor backend the SpMV compiles through.
    Iterates until ||r|| <= tol·||b|| or ``maxiter``.
    """
    b = check_system(A, b, diag, x0=x0)
    matvec = _as_matvec(A, backend)
    dinv = 1.0 / np.asarray(diag) if diag is not None else np.ones(len(b))
    return solve_local(matvec, lambda r: dinv * r, b, tol, maxiter, x0)


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
        diag = coo.diagonal()
        data = partition_rows(coo, dist)
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
        return (yield from pcg_iteration(strategy.step, lambda r: dinv_local * r, reduce, blocal, x, r, niter, tol))

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
