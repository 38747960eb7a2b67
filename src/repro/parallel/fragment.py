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
    matrix: COOMatrix  # shape (nlocal, nglobal_cols), rows local, cols global
    rows_global: np.ndarray  # local row offset -> global row index

    @property
    def nlocal(self) -> int:
        return len(self.rows_global)

    def used_columns(self) -> np.ndarray:
        """π_j σ_NZ(A^(p)) — the Used set of paper Eq. 21 (sorted, unique)."""
        return self.matrix.column_support()

    def global_terms(self) -> list[Term]:
        """Eq. 23: one fully global product."""
        return [Term(self.matrix, "global")]

    def mixed_terms(self) -> list[Term]:
        """Eq. 24: the product split by column ownership — decided from my
        own index list alone, so it holds under a distributed IND too."""
        m = self.matrix
        col_local = np.full(m.shape[1], -1, dtype=np.int64)
        col_local[self.rows_global] = np.arange(self.nlocal)
        cols = col_local[m.col]
        mine = cols >= 0
        local = COOMatrix(
            (self.nlocal, max(1, self.nlocal)), m.row[mine], cols[mine], m.vals[mine]
        )
        rest = COOMatrix(m.shape, m.row[~mine], m.col[~mine], m.vals[~mine])
        return [Term(local, "local"), Term(rest, "ghost")]


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
    counts = coo.row_counts()
    rowptr = np.cumsum(counts) - counts
    rows = np.concatenate(owned)
    cnt = counts[rows]
    src = segment_indices(rowptr[rows], cnt)
    local = np.repeat(np.concatenate([np.arange(len(m)) for m in owned]), cnt)
    col, vals = coo.col[src], coo.vals[src]
    bounds = segment_ptr(cnt)[segment_ptr([len(m) for m in owned])]
    return [
        RowFragment(
            p,
            dist,
            COOMatrix(
                (len(mine), coo.shape[1]),
                local[bounds[p] : bounds[p + 1]],
                col[bounds[p] : bounds[p + 1]],
                vals[bounds[p] : bounds[p + 1]],
                canonical=True,
            ),
            mine,
        )
        for p, mine in enumerate(owned)
    ]
