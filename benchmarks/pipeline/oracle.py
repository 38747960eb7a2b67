"""Independent references, computed from the raw triplets.

Nothing here touches ``repro``: results of the code under test are
compared with plain numpy (and scipy.sparse where it is installed) so a
bug shared by a kernel and ``repro.compiler.reference`` cannot hide.
"""

from __future__ import annotations

import numpy as np

try:
    import scipy.sparse as _sp
except ImportError:  # the oracle then falls back to numpy scatter-adds
    _sp = None

__all__ = ["matvec", "matvec_t", "true_residual", "pcg_fixed", "HAVE_SCIPY"]

HAVE_SCIPY = _sp is not None


def matvec(t, x: np.ndarray) -> np.ndarray:
    """y = A·x from the triplets of ``t``."""
    if _sp is not None:
        return _sp.csr_matrix((t.val, (t.row, t.col)), shape=(t.n, t.n)) @ x
    return np.bincount(t.row, weights=t.val * x[t.col], minlength=t.n)


def matvec_t(t, x: np.ndarray) -> np.ndarray:
    """y = Aᵀ·x from the triplets of ``t``."""
    return np.bincount(t.col, weights=t.val * x[t.row], minlength=t.n)


def true_residual(t, x: np.ndarray, b: np.ndarray) -> float:
    """‖b − A·x‖ / ‖b‖, recomputed from the triplets."""
    return float(np.linalg.norm(b - matvec(t, x)) / np.linalg.norm(b))


def pcg_fixed(t, b: np.ndarray, iterations: int) -> np.ndarray:
    """Plain Jacobi-preconditioned CG, exactly ``iterations`` steps."""
    diag = np.zeros(t.n)
    on = t.row == t.col
    diag[t.row[on]] = t.val[on]
    dinv = 1.0 / diag
    x = np.zeros(t.n)
    r = b.copy()
    z = dinv * r
    p = z.copy()
    rz = float(r @ z)
    for _ in range(iterations):
        q = matvec(t, p)
        alpha = rz / float(p @ q)
        x += alpha * p
        r -= alpha * q
        z = dinv * r
        rz_new = float(r @ z)
        p = z + (rz_new / rz) * p
        rz = rz_new
    return x
