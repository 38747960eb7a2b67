"""Fragmentation: distributed relations as unions of local fragments.

The fragmentation equation (paper Eq. 15)

    R(a) = ⋃_p π_a ( IND(a, p, a') ⋈ R^(p)(a') )

says a distributed array is the union of per-processor fragments joined
with the index-translation relation.  :func:`partition_rows` materializes
the row-partitioned fragments of a matrix: rows are renumbered to local
offsets (the a' of the equation); columns keep *global* numbering.  How
column references are localized is what a *specification* says: a list of
product statements :class:`Term`, each declaring how its columns read x
(paper Eq. 23 declares nothing, Eq. 24 declares the local/non-local
split).  A fragment offers both as term lists; the executor that runs them
is :class:`~repro.parallel.spmd_spmv.SpmdSpMV`.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.distribution.base import Distribution
from repro.errors import DistributionError, InspectorError
from repro.formats.coo import COOMatrix, segment_indices, segment_ptr
from repro.formats.crs import CRSMatrix

__all__ = ["Term", "RowFragment", "partition_rows"]


@dataclass(frozen=True)
class Term:
    """One product statement ``y^(p) += A · x`` of an SPMD specification.

    ``reads`` declares how ``A``'s column indices address x:

    * ``"local"``  — local x offsets; needs no communication, so the
      statement runs inside the exchange window (Eq. 24's ``local:``),
    * ``"ghost"``  — global indices *declared non-local*: the inspector
      translates them and the matrix is renumbered once to ghost slots,
    * ``"global"`` — global indices with nothing declared (Eq. 23): the
      inspector translates every one and the executor reads x through
      the problem-size global-to-ghost map on every access.
    """

    A: object  # any matrix format with column_support() / remap_columns()
    reads: str

    def __post_init__(self):
        if self.reads not in ("local", "ghost", "global"):
            raise InspectorError(f"unknown x addressing {self.reads!r} in a Term")


@dataclass
class RowFragment:
    """Processor p's fragment A^(p): local rows × global columns."""

    rank: int
    dist: Distribution
    matrix: COOMatrix  # canonical, shape (nlocal, nglobal_cols), rows local, cols global
    rows_global: np.ndarray  # local row offset -> global row index
    rowptr: np.ndarray  # the matrix's row segments, from the partition's row counts
    #: A[g, g] of each owned row g, in local order: a row's owner also owns
    #: its column, so the partition pass finds the whole diagonal
    diagonal: np.ndarray

    @property
    def nlocal(self) -> int:
        return len(self.rows_global)

    def used_columns(self) -> np.ndarray:
        """π_j σ_NZ(A^(p)) — the Used set of paper Eq. 21 (sorted, unique)."""
        return self.matrix.column_support()

    def global_terms(self) -> list[Term]:
        """Eq. 23: one fully global product."""
        m = self.matrix
        return [Term(CRSMatrix(m.shape, self.rowptr, m.col, m.vals), "global")]

    def mixed_terms(self) -> list[Term]:
        """Eq. 24: the product split by column ownership — decided from my
        own index list alone, so it holds under a distributed IND too.
        Both statements are born CRS, their row pointers counted from the
        few ghost entries."""
        m, n = self.matrix, self.nlocal
        col_local = np.full(m.shape[1], -1, dtype=np.int64)
        col_local[self.rows_global] = np.arange(n)
        cols = col_local[m.col]
        mine = cols >= 0
        ghost = np.flatnonzero(~mine)
        ghost_ptr = segment_ptr(np.bincount(m.row[ghost], minlength=n))
        cols, vals = cols[mine], m.vals[mine]
        if np.any(np.diff(self.rows_global) < 0):  # local offsets out of global order
            order = np.lexsort((cols, m.row[mine]))
            cols, vals = cols[order], vals[order]
        return [
            Term(CRSMatrix((n, max(1, n)), self.rowptr - ghost_ptr, cols, vals), "local"),
            Term(CRSMatrix(m.shape, ghost_ptr, m.col[ghost], m.vals[ghost]), "ghost"),
        ]


def partition_rows(coo: COOMatrix, dist: Distribution) -> list[RowFragment]:
    """Split a matrix row-wise per the distribution (owner-computes on y).

    Returns one fragment per processor; together they reconstruct the
    global matrix through the fragmentation equation.
    """
    if dist.nglobal != coo.shape[0]:
        raise DistributionError(
            f"distribution covers {dist.nglobal} rows, matrix has {coo.shape[0]}"
        )
    coo = coo.canonicalized()
    # Entries of one row are adjacent, so the fragments are whole-row
    # segments gathered in (owner, local offset) order: one pass over the
    # entries, then one split at the rank boundaries.
    owned = [dist.owned_by(p) for p in range(dist.nprocs)]
    rowptr = np.searchsorted(coo.row, np.arange(coo.shape[0] + 1))
    on = np.flatnonzero(coo.row == coo.col)  # at most one per row: canonical
    diagonal = np.zeros(coo.shape[0])
    diagonal[coo.row[on]] = coo.vals[on]
    rows = np.concatenate(owned)
    cnt = np.diff(rowptr)[rows]
    src = segment_indices(rowptr[rows], cnt)
    local = np.repeat(np.concatenate([np.arange(len(m)) for m in owned]), cnt)
    col, vals = coo.col[src], coo.vals[src]
    rowptrs = segment_ptr(cnt)
    firsts = segment_ptr([len(m) for m in owned])  # each rank's first row in `rows`
    fragments = []
    for p, mine in enumerate(owned):
        ptr = rowptrs[firsts[p] : firsts[p + 1] + 1]
        lo, hi = ptr[0], ptr[-1]
        matrix = COOMatrix((len(mine), coo.shape[1]), local[lo:hi], col[lo:hi], vals[lo:hi], canonical=True)
        fragments.append(RowFragment(p, dist, matrix, mine, ptr - lo, diagonal[mine]))
    return fragments
