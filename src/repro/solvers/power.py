"""Power iteration for the dominant eigenpair (compiled-SpMV consumer)."""

from __future__ import annotations

import numpy as np

from repro.formats.base import Format
from repro.kernels.spmv import bound_spmv

__all__ = ["power_iteration"]


def power_iteration(A: Format, tol: float = 1e-10, maxiter: int = 2000, rng=None):
    """Dominant eigenvalue/eigenvector of a square matrix.

    Returns (eigenvalue, eigenvector, iterations).  Deterministic given
    ``rng``.
    """
    n = A.shape[0]
    r = np.random.default_rng(rng)
    v = r.standard_normal(n)
    v /= np.linalg.norm(v)
    lam = 0.0
    matvec = bound_spmv(A)  # compile + bind once per solve
    for it in range(1, maxiter + 1):
        w = matvec(v)
        norm = np.linalg.norm(w)
        if norm == 0:
            return 0.0, v, it
        v_new = w / norm
        lam_new = float(v_new @ matvec(v_new))
        if abs(lam_new - lam) <= tol * max(1.0, abs(lam_new)):
            return lam_new, v_new, it
        lam, v = lam_new, v_new
    return lam, v, maxiter
