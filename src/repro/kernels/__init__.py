"""The "extensible sparse BLAS": user-facing kernels produced by the compiler.

The paper argues the compiler "provid[es] an extensible set of sparse BLAS
codes": instead of 36 hand-written versions of every operation for every
format pair, each operation is one dense loop nest compiled on demand
against whatever formats the data happens to be in.  This package wraps the
common operations:

* :func:`~repro.kernels.spmv.spmv` — y (+)= A·x,
* :func:`~repro.kernels.spmv.bound_spmv` — compile + bind once, then
  ``matvec(x)`` per iteration (what the solvers use),
* :func:`~repro.kernels.spmv.spmv_transpose` — y (+)= Aᵀ·x,
* :func:`~repro.kernels.spmm.spmm` — C (+)= A·B with B a skinny dense
  matrix (the paper's "product of a sparse matrix and a skinny dense
  matrix", Sec. 6),
* :func:`~repro.kernels.vecops.axpy` / :func:`~repro.kernels.vecops.dot` —
  compiled vector kernels (mostly demonstration; the solvers use numpy
  directly for vector arithmetic, as a real code would).

Every function accepts any matrix :class:`~repro.formats.base.Format`;
kernels are compiled once per (operation, format class) and cached.
"""

from repro.kernels.spmv import bound_spmv, spmv, spmv_transpose
from repro.kernels.spmm import spmm
from repro.kernels.vecops import axpy, dot, scale

__all__ = ["spmv", "bound_spmv", "spmv_transpose", "spmm", "axpy", "dot", "scale"]
