"""Jacobi iteration: x ← D⁻¹(b − (A − D)x).

A second consumer of the compiled SpMV, and the building block of the
paper's "diagonal preconditioning".
"""

from __future__ import annotations

import numpy as np

from repro.errors import ReproError
from repro.formats.base import Format
from repro.kernels.spmv import bound_spmv
from repro.solvers.cg import check_system

__all__ = ["jacobi"]


def jacobi(
    A: Format,
    b,
    tol: float = 1e-8,
    maxiter: int = 1000,
    omega: float = 1.0,
):
    """(Weighted) Jacobi solve; returns (x, iterations, final_residual).

    Requires a square matrix Format with a nonzero diagonal; convergence
    needs the usual spectral condition (diagonal dominance suffices).
    """
    b = check_system(A, b, solver="Jacobi")
    diag = A.to_coo().diagonal()
    if np.any(diag == 0):
        raise ReproError("Jacobi requires a nonzero diagonal")
    dinv = 1.0 / diag
    x = np.zeros_like(b)
    matvec = bound_spmv(A)  # compile + bind once per solve
    bnorm = float(np.linalg.norm(b)) or 1.0
    res = float("inf")
    for it in range(1, maxiter + 1):
        r = b - matvec(x)
        res = float(np.linalg.norm(r))
        if res <= tol * bnorm:
            return x, it - 1, res
        x = x + omega * dinv * r
    return x, maxiter, res
