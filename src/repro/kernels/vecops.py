"""Compiled vector kernels (axpy, dot, scale).

These exist to demonstrate that the "sparse BLAS" layer really is produced
by the one compiler — including operations on sparse *vectors* — not to
beat numpy on dense data.  Every operation accepts ``backend=`` to select
the executor backend (``"vectorized"`` default / ``"interpreted"``).
"""

from __future__ import annotations

import numpy as np

from repro.compiler import compile_kernel
from repro.formats.base import Format
from repro.formats.dense import DenseVector

__all__ = ["axpy", "dot", "scale", "AXPY_SRC", "DOT_SRC", "SCALE_SRC"]

AXPY_SRC = "for i in 0:n { Y[i] += alpha * X[i] }"
DOT_SRC = "for i in 0:n { s += X[i] * Y[i] }"
SCALE_SRC = "for i in 0:n { Y[i] = alpha * X[i] }"


def _vec(x) -> Format:
    return x if isinstance(x, Format) else DenseVector(np.asarray(x, dtype=np.float64))


def axpy(alpha: float, x, y, backend: str | None = None) -> np.ndarray:
    """y += alpha · x.  ``x`` may be sparse (compressed vector) or dense."""
    X = _vec(x)
    Y = _vec(y)
    k = compile_kernel(AXPY_SRC, {"X": X, "Y": Y}, backend=backend)
    k(X=X, Y=Y, alpha=float(alpha))
    return Y.vals


def dot(x, y, backend: str | None = None) -> float:
    """xᵀ·y; either side may be a sparse vector (the sparse one drives)."""
    X = _vec(x)
    Y = _vec(y)
    return compile_kernel(DOT_SRC, {"X": X, "Y": Y}, backend=backend)(X=X, Y=Y)["s"]


def scale(alpha: float, x, backend: str | None = None) -> np.ndarray:
    """x *= alpha, in place, via a compiled kernel."""
    X = _vec(x)
    Y = DenseVector(np.array(X.to_dense(), dtype=np.float64))
    k = compile_kernel(SCALE_SRC, {"X": X, "Y": Y}, backend=backend)
    k(X=X, Y=Y, alpha=float(alpha))
    return Y.vals
