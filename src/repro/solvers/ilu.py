"""ILU(0)/IC(0) incomplete factorization and sparse triangular solves.

The paper closes with "we are currently investigating how our techniques
can be used in the automatic generation of high-performance codes for such
operations as matrix factorizations (full and incomplete) and triangular
linear system solution" (Sec. 6).  Factorization and triangular solves
carry loop dependences, so they sit outside the DOANY compiler; here they
are *library* routines over the CRS format — the preconditioner side of
the iterative solvers the compiler serves.

* :func:`ilu0` — incomplete LU with zero fill-in: L and U share A's
  sparsity pattern (IKJ Gaussian elimination restricted to stored
  entries),
* :func:`solve_lower` / :func:`solve_upper` — sparse triangular solves,
* :func:`ilu_preconditioned_cg` — PCG with the ILU(0) preconditioner
  (equivalent to IC(0) preconditioning for SPD inputs).
"""

from __future__ import annotations

import numpy as np

from repro.errors import ReproError
from repro.formats.base import Format
from repro.formats.crs import CRSMatrix
from repro.kernels.spmv import bound_spmv
from repro.solvers.cg import CGResult, check_system, solve_local

__all__ = ["ilu0", "solve_lower", "solve_upper", "ilu_preconditioned_cg"]


def ilu0(A: CRSMatrix) -> tuple[CRSMatrix, CRSMatrix]:
    """ILU(0): A ≈ L·U with no fill beyond A's pattern.

    Returns (L, U): L unit-lower-triangular (unit diagonal stored), U
    upper triangular.  Raises on a zero pivot (shift the matrix or use a
    different preconditioner).
    """
    n = A.shape[0]
    if A.shape[0] != A.shape[1]:
        raise ReproError("ILU(0) requires a square matrix")
    # working copy of the values, IKJ variant over the fixed pattern
    rowptr, colind = A.rowptr, A.colind
    vals = A.vals.copy()
    diag_pos = np.empty(n, dtype=np.int64)
    for i in range(n):
        cols, _ = A.row_slice(i)
        k = np.searchsorted(cols, i)
        if k >= len(cols) or cols[k] != i:
            raise ReproError(f"ILU(0) needs a stored diagonal; row {i} has none")
        diag_pos[i] = rowptr[i] + k

    for i in range(1, n):
        s, e = int(rowptr[i]), int(rowptr[i + 1])
        row_cols = colind[s:e]
        # eliminate entries left of the diagonal
        for p in range(s, e):
            k = int(colind[p])
            if k >= i:
                break
            piv = vals[diag_pos[k]]
            if piv == 0.0:
                raise ReproError(f"zero pivot at row {k} during ILU(0)")
            lik = vals[p] / piv
            vals[p] = lik
            # subtract lik * U[k, j] for j in the intersection of patterns
            ks, ke = int(diag_pos[k]) + 1, int(rowptr[k + 1])
            if ks >= ke:
                continue
            u_cols = colind[ks:ke]
            # positions of u_cols inside row i's pattern (no fill-in)
            pos = s + np.searchsorted(row_cols, u_cols)
            ok = (pos < e) & (colind[np.minimum(pos, e - 1)] == u_cols)
            vals[pos[ok]] -= lik * vals[ks:ke][ok]
        if vals[diag_pos[i]] == 0.0:
            raise ReproError(f"zero pivot at row {i} during ILU(0)")

    # split into L (unit diagonal) and U
    lr, lc, lv = [], [], []
    ur, uc, uv = [], [], []
    for i in range(n):
        s, e = int(rowptr[i]), int(rowptr[i + 1])
        for p in range(s, e):
            j = int(colind[p])
            if j < i:
                lr.append(i), lc.append(j), lv.append(vals[p])
            else:
                ur.append(i), uc.append(j), uv.append(vals[p])
        lr.append(i), lc.append(i), lv.append(1.0)
    from repro.formats.coo import COOMatrix

    L = CRSMatrix.from_coo(COOMatrix.from_entries((n, n), lr, lc, lv))
    U = CRSMatrix.from_coo(COOMatrix.from_entries((n, n), ur, uc, uv))
    return L, U


def solve_lower(L: CRSMatrix, b: np.ndarray, unit_diagonal: bool = True) -> np.ndarray:
    """Forward substitution L·x = b (L lower triangular, rows sorted)."""
    n = L.shape[0]
    x = np.array(b, dtype=np.float64)
    for i in range(n):
        cols, vals = L.row_slice(i)
        below = cols < i
        if below.any():
            x[i] -= vals[below] @ x[cols[below]]
        if not unit_diagonal:
            d = vals[cols == i]
            if len(d) != 1 or d[0] == 0.0:
                raise ReproError(f"missing/zero diagonal in lower solve at row {i}")
            x[i] /= d[0]
    return x


def solve_upper(U: CRSMatrix, b: np.ndarray) -> np.ndarray:
    """Backward substitution U·x = b (U upper triangular, stored diagonal)."""
    n = U.shape[0]
    x = np.array(b, dtype=np.float64)
    for i in range(n - 1, -1, -1):
        cols, vals = U.row_slice(i)
        above = cols > i
        if above.any():
            x[i] -= vals[above] @ x[cols[above]]
        d = vals[cols == i]
        if len(d) != 1 or d[0] == 0.0:
            raise ReproError(f"missing/zero diagonal in upper solve at row {i}")
        x[i] /= d[0]
    return x


def ilu_preconditioned_cg(
    A: Format, b: np.ndarray, tol: float = 1e-8, maxiter: int | None = None
) -> CGResult:
    """PCG with M = (L·U)⁻¹ from ILU(0): :func:`~repro.solvers.cg.cg`'s
    driver with the two triangular solves as the preconditioner.

    ``A`` is any square matrix Format (factored as CRS).  For SPD inputs
    ILU(0) coincides with IC(0) up to scaling, so CG's theory applies.
    """
    b = check_system(A, b, solver="ILU-preconditioned CG")
    A = A if isinstance(A, CRSMatrix) else CRSMatrix.from_coo(A.to_coo())
    L, U = ilu0(A)
    return solve_local(
        bound_spmv(A), lambda r: solve_upper(U, solve_lower(L, r)), b, tol, maxiter
    )
