"""Compiled sparse matrix-vector products."""

from __future__ import annotations

import numpy as np

from repro.compiler import compile_kernel
from repro.formats.base import Format
from repro.formats.blocksolve import BlockSolveMatrix
from repro.formats.dense import DenseVector
from repro.observability import metrics as _metrics
from repro.observability.trace import span

__all__ = ["spmv", "bound_spmv", "spmv_transpose", "SPMV_SRC", "SPMV_T_SRC"]

#: The paper's running example, verbatim (Sec. 2).
SPMV_SRC = "for i in 0:n { for j in 0:m { Y[i] += A[i,j] * X[j] } }"
SPMV_T_SRC = "for i in 0:n { for j in 0:m { Y[j] += A[i,j] * X[i] } }"


def spmv(
    A: Format,
    x,
    y=None,
    vectorize: bool | None = None,
    backend: str | None = None,
) -> np.ndarray:
    """y (+)= A·x for any matrix format.

    ``x`` is a dense 1-D array (or DenseVector); pass ``y`` to accumulate
    in place, otherwise a zero vector is allocated.  ``backend`` selects
    the executor backend (``"vectorized"`` default / ``"interpreted"``);
    BlockSolve matrices dispatch to the hand-written library kernel
    regardless (the format is composite; see paper Sec. 3.3).
    """
    xv = x.vals if isinstance(x, DenseVector) else np.asarray(x, dtype=np.float64)
    if isinstance(A, BlockSolveMatrix):
        # hand-written library path: count the 2·nnz flops it performs
        with span(
            "kernels.spmv", format="BlockSolveMatrix", backend="library", flops=2.0 * A.nnz
        ):
            out = A.matvec(xv)
        _metrics.record("kernel.flops", 2.0 * A.nnz)
        _metrics.record("kernel.nnz_touched", A.nnz)
        _metrics.record("kernel.rows_visited", A.shape[0])
        if y is None:
            return out
        yv = y.vals if isinstance(y, DenseVector) else y
        yv += out
        return yv
    yv = np.zeros(A.shape[0]) if y is None else (y.vals if isinstance(y, DenseVector) else y)
    X, Y = DenseVector(xv), DenseVector(yv)
    k = compile_kernel(
        SPMV_SRC, {"A": A, "X": X, "Y": Y}, vectorize=vectorize, backend=backend
    )
    with span("kernels.spmv", format=type(A).__name__, backend=k.backend, nnz=A.nnz):
        k(A=A, X=X, Y=Y)
    return Y.vals


def bound_spmv(A: Format, backend: str | None = None):
    """Compile and bind ``y = A·x`` once; returns ``matvec(x) -> y``.

    The inspector/executor form of :func:`spmv` for iterative solvers: the
    kernel is compiled and its ``prepare`` run here, so each ``matvec``
    call is one generated ``run`` plus two vector copies.  Results are
    bitwise those of ``spmv(A, x)``.  ``A``'s values may change between
    calls, its structure may not (see ``CompiledKernel.bind``); the
    returned callable is not re-entrant across threads."""
    if isinstance(A, BlockSolveMatrix):
        return lambda x: spmv(A, x)
    X, Y = DenseVector(np.zeros(A.shape[1])), DenseVector.zeros(A.shape[0])
    k = compile_kernel(SPMV_SRC, {"A": A, "X": X, "Y": Y}, backend=backend)
    run = k.bind(A=A, X=X, Y=Y)
    attrs = dict(format=type(A).__name__, backend=k.backend, nnz=A.nnz)

    def matvec(x) -> np.ndarray:
        X.vals[:] = x.vals if isinstance(x, DenseVector) else x
        Y.vals[:] = 0.0
        with span("kernels.spmv", **attrs):
            run()
        return Y.vals.copy()

    return matvec


def spmv_transpose(
    A: Format,
    x,
    y=None,
    vectorize: bool | None = None,
    backend: str | None = None,
) -> np.ndarray:
    """y (+)= Aᵀ·x for any matrix format (no transposed copy is built —
    the planner simply schedules the other projection of the same query)."""
    xv = x.vals if isinstance(x, DenseVector) else np.asarray(x, dtype=np.float64)
    if isinstance(A, BlockSolveMatrix):
        # composite: transpose through the exchange format (rarely needed)
        from repro.formats.crs import CRSMatrix

        return spmv(CRSMatrix.from_coo(A.to_coo().transpose()), xv, y, vectorize, backend)
    yv = np.zeros(A.shape[1]) if y is None else (y.vals if isinstance(y, DenseVector) else y)
    X, Y = DenseVector(xv), DenseVector(yv)
    k = compile_kernel(
        SPMV_T_SRC, {"A": A, "X": X, "Y": Y}, vectorize=vectorize, backend=backend
    )
    with span(
        "kernels.spmv_transpose", format=type(A).__name__, backend=k.backend, nnz=A.nnz
    ):
        k(A=A, X=X, Y=Y)
    return Y.vals
