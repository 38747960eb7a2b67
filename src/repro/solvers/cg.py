"""Conjugate Gradient with diagonal preconditioning (paper Sec. 4).

Sequential :func:`cg` accepts any matrix format (the SpMV is produced by
the compiler) or a plain callable.  :func:`parallel_cg` runs the SPMD
version on a simulated :class:`~repro.runtime.machine.Machine`, following
the inspector/executor split the paper measures: the setup phase builds the
communication schedule once; each iteration does one ghost exchange, one
local SpMV, and two scalar allreduces.
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
    b = np.asarray(b, dtype=np.float64)
    n = len(b)
    matvec = _as_matvec(A, backend)
    dinv = 1.0 / np.asarray(diag) if diag is not None else np.ones(n)
    if not np.all(np.isfinite(dinv)):
        raise ReproError("preconditioner diagonal contains zeros")
    maxiter = maxiter if maxiter is not None else 10 * n
    x = np.zeros(n) if x0 is None else np.array(x0, dtype=np.float64)
    r = b - (matvec(x) if x.any() else np.zeros(n))
    z = dinv * r
    p = z.copy()
    rz = float(r @ z)
    bnorm = float(np.linalg.norm(b)) or 1.0
    residuals = [float(np.linalg.norm(r))]
    converged = residuals[-1] <= tol * bnorm
    it = 0
    while not converged and it < maxiter:
        q = matvec(p)
        pq = float(p @ q)
        if pq <= 0:
            raise ReproError("matrix is not positive definite (pᵀAp <= 0)")
        alpha = rz / pq
        x += alpha * p
        r -= alpha * q
        z = dinv * r
        rz_new = float(r @ z)
        beta = rz_new / rz
        rz = rz_new
        p = z + beta * p
        it += 1
        residuals.append(float(np.linalg.norm(r)))
        converged = residuals[-1] <= tol * bnorm
    return CGResult(x, it, residuals, converged)


# ----------------------------------------------------------------------
# parallel CG
# ----------------------------------------------------------------------
def _rank_cg(strategy, blocal, dlocal, niter, tol, coalesce=True):
    """SPMD rank program: inspector phase, then ``niter`` PCG iterations.

    Global dot products are allreduces over local partial sums; the
    residual history is identical on all ranks.  With ``coalesce`` the
    independent scalar reductions of each stage ride one array allreduce
    (one α charge instead of two or three); the machine folds arrays
    elementwise in the same rank order it folds scalars, so the sums —
    and hence the iterates — are bitwise identical either way.  The p·q
    reduction cannot join them: α depends on it before r (and thus the
    next pair) exists.
    """
    yield ("phase", "inspector")
    yield from strategy.setup()
    yield ("phase", "executor")
    nloc = len(blocal)
    dinv = 1.0 / dlocal if len(dlocal) else dlocal
    x = np.zeros(nloc)
    r = blocal.copy()
    z = dinv * r
    p = z.copy()
    if coalesce:
        rz, b2, rr = (
            yield (
                "allreduce",
                np.array([float(r @ z), float(blocal @ blocal), float(r @ r)]),
            )
        )
        rz, b2 = float(rz), float(b2)
    else:
        rz = yield ("allreduce", float(r @ z))
        b2 = yield ("allreduce", float(blocal @ blocal))
        rr = yield ("allreduce", float(r @ r))
    bnorm = np.sqrt(b2) or 1.0
    residuals = [float(np.sqrt(rr))]
    it = 0
    converged = residuals[-1] <= tol * bnorm
    while it < niter and not converged:
        q = yield from strategy.step(p)
        pq = yield ("allreduce", float(p @ q))
        alpha = rz / pq
        x += alpha * p
        r -= alpha * q
        z = dinv * r
        if coalesce:
            rz_new, rr = (
                yield ("allreduce", np.array([float(r @ z), float(r @ r)]))
            )
            rz_new = float(rz_new)
        else:
            rz_new = yield ("allreduce", float(r @ z))
            rr = yield ("allreduce", float(r @ r))
        beta = rz_new / rz
        rz = rz_new
        p = z + beta * p
        it += 1
        residuals.append(float(np.sqrt(rr)))
        converged = residuals[-1] <= tol * bnorm
    return x, it, residuals, converged


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
    if not isinstance(A, Format) or len(A.shape) != 2 or A.shape[0] != A.shape[1]:
        raise ReproError(f"parallel CG needs a square matrix Format, got {type(A).__name__} {getattr(A, 'shape', '')}")
    b = np.asarray(b, dtype=np.float64)
    n = A.shape[0]
    if b.shape != (n,):
        raise ReproError(f"right-hand side has shape {b.shape}, matrix has {n} rows")
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
    if not np.all(diag):
        raise ReproError("preconditioner diagonal contains zeros")
    bprime = np.empty(n)
    bprime[perm] = b
    owned = [dist.owned_by(p) for p in range(nprocs)]

    def make(p):
        strategy = make_spmv_setup(variant, p, dist, data[p], opts)
        return _rank_cg(
            strategy, bprime[owned[p]], diag[owned[p]], niter, tol, coalesce=coalesce
        )

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
