"""Compiled sparse × dense (skinny) matrix product."""

from __future__ import annotations

import numpy as np

from repro.compiler import compile_kernel
from repro.formats.base import Format
from repro.formats.dense import DenseMatrix
from repro.observability.trace import span

__all__ = ["spmm", "SPMM_SRC"]

SPMM_SRC = (
    "for i in 0:n { for j in 0:m { for k in 0:p { "
    "C[i,k] += A[i,j] * B[j,k] } } }"
)


def spmm(A: Format, B, C=None) -> np.ndarray:
    """C (+)= A·B where A is sparse (any format) and B dense.

    This is "the product of a sparse matrix and a skinny dense matrix" the
    paper names as a core iterative-solver operation (Sec. 6).  B may also
    be another sparse format: the planner chains drivers (SpGEMM into a
    dense result).
    """
    Bf = B if isinstance(B, Format) else DenseMatrix(np.asarray(B, dtype=np.float64))
    cv = np.zeros((A.shape[0], Bf.shape[1])) if C is None else C
    Cf = DenseMatrix(cv) if not isinstance(cv, DenseMatrix) else cv
    k = compile_kernel(SPMM_SRC, {"A": A, "B": Bf, "C": Cf})
    with span("kernels.spmm", format=type(A).__name__, nnz=A.nnz, width=Bf.shape[1]):
        k(A=A, B=Bf, C=Cf)
    return Cf.vals
