"""Jacobi iteration: x ← D⁻¹(b − (A − D)x).

A second consumer of the compiled SpMV, and the building block of the
paper's "diagonal preconditioning".
"""

from __future__ import annotations

import numpy as np

from repro.errors import ReproError
from repro.formats.base import Format
from repro.kernels.spmv import bound_spmv

__all__ = ["jacobi"]


def jacobi(
    A: Format,
    b,
    tol: float = 1e-8,
    maxiter: int = 1000,
    omega: float = 1.0,
    backend: str | None = None,
):
    """(Weighted) Jacobi solve; returns (x, iterations, final_residual).

    Requires a nonzero diagonal; convergence needs the usual spectral
    condition (diagonal dominance suffices).  ``backend`` selects the
    executor backend the SpMV compiles through.
    """
    b = np.asarray(b, dtype=np.float64)
    diag = A.to_coo().diagonal()
    if np.any(diag == 0):
        raise ReproError("Jacobi requires a nonzero diagonal")
    dinv = 1.0 / diag
    x = np.zeros_like(b)
    matvec = bound_spmv(A, backend=backend)  # compile + bind once per solve
    bnorm = float(np.linalg.norm(b)) or 1.0
    res = float("inf")
    for it in range(1, maxiter + 1):
        r = b - matvec(x)
        res = float(np.linalg.norm(r))
        if res <= tol * bnorm:
            return x, it - 1, res
        x = x + omega * dinv * r
    return x, maxiter, res
