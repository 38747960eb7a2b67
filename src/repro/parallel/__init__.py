"""Parallel sparse code generation (paper Section 3).

Distributed arrays are distributed relations defined by the fragmentation
equation (Eq. 15); distributed loop execution is distributed query
evaluation: localize the iteration relation under owner-computes (Eq. 16),
exploit collocation (aligned joins need no communication, Eq. 19–20), and
turn the remaining global references into inspector queries (Eq. 21–22).

A *specification* is a list of product statements
(:class:`~repro.parallel.fragment.Term`), each declaring how its columns
address x — nothing declared (paper Eq. 23, ``global``) or the
local/non-local split (Eq. 24, ``mixed``) — plus a distribution relation.
One inspector/executor, :class:`~repro.parallel.spmd_spmv.SpmdSpMV`, runs
any of them; the seven variants the evaluation compares (row fragments or
BlockSolve structures, compiled or the hand-written library kernels,
replicated or Chaos-translated ownership) are rows of
:data:`~repro.parallel.spmd_spmv.SPMV_VARIANTS`.
"""

from repro.parallel.fragment import RowFragment, Term, partition_rows
from repro.parallel.spmd_spmv import SPMV_VARIANTS, SpmdSpMV, make_spmv_setup

__all__ = [
    "RowFragment",
    "Term",
    "partition_rows",
    "SPMV_VARIANTS",
    "SpmdSpMV",
    "make_spmv_setup",
]
