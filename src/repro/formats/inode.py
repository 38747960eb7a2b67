"""I-node storage (paper Fig. 2(c)): rows with identical column structure
share one column list; their values form a small dense block.

Storage, for ``T`` i-nodes:

* ``rows``, ``inodeptr`` — the row ids of each i-node (segment t is
  ``rows[inodeptr[t] : inodeptr[t+1]]``),
* ``cols``, ``colptr`` — the shared column list of each i-node,
* ``vals``, ``voff`` — per-i-node dense blocks (row-major, shape
  ``nrows_t × ncols_t``), concatenated flat.

A dense-block format (:mod:`repro.formats.blocks`): the access hierarchy
and the shape-batched library :meth:`matvec` — one batched product per
block shape, the dense-block advantage that makes BlockSolve win on
multi-dof FEM matrices in Table 1 — come from that shared description.
"""

from __future__ import annotations

import numpy as np

from repro.errors import FormatError
from repro.formats.base import check_shape, index_array
from repro.formats.blocks import Axis, BlockFormat, BlockLayout, block_of
from repro.formats.coo import COOMatrix, segment_indices, segment_ptr
from repro.graphs.inodes import find_inodes

__all__ = ["InodeMatrix"]


class InodeMatrix(BlockFormat):
    """Matrix stored as i-node dense blocks."""

    format_name = "Inode"
    layout = BlockLayout("ninodes", Axis("inodeptr", index="rows"), Axis("colptr", index="cols"))
    padded = False  # every stored value is an entry, explicit zeros included

    def __init__(self, shape, rows, inodeptr, cols, colptr, vals, voff):
        self._shape = check_shape(shape, 2)
        self.rows, self.inodeptr, self.cols, self.colptr = map(index_array, (rows, inodeptr, cols, colptr))
        self.vals, self.voff = np.asarray(vals, dtype=np.float64), index_array(voff)
        T = len(self.inodeptr) - 1
        if len(self.colptr) != T + 1 or len(self.voff) != T + 1:
            raise FormatError("inodeptr/colptr/voff length mismatch")
        nr = np.diff(self.inodeptr)
        nc = np.diff(self.colptr)
        if np.any(np.diff(self.voff) != nr * nc):
            raise FormatError("voff inconsistent with block shapes")
        if self.voff[-1] != len(self.vals) if T else len(self.vals) != 0:
            raise FormatError("vals length inconsistent with voff")

    @property
    def ninodes(self) -> int:
        return len(self.inodeptr) - 1

    @classmethod
    def from_coo(cls, coo: COOMatrix) -> "InodeMatrix":
        """Detect i-nodes (identical row patterns) and pack dense blocks.

        Rows with no stored entries form no i-node (they contribute no
        blocks); stored zeros inside a block are explicit.
        """
        coo = coo.canonicalized()
        from repro.formats.crs import CRSMatrix

        crs = CRSMatrix.from_coo(coo)
        ptr, width = crs.rowptr, np.diff(crs.rowptr)
        gptr, rows = find_inodes(ptr, crs.colind)
        first = rows[gptr[:-1]]
        live = width[first] > 0  # the empty rows' group holds no block
        first, nr = first[live], np.diff(gptr)[live]
        rows = rows[width[rows] > 0]
        nc = width[first]
        # an i-node's rows share one pattern: its row-major block is their
        # CRS rows one after another
        return cls(
            coo.shape,
            rows,
            segment_ptr(nr),
            crs.colind[segment_indices(ptr[first], nc)],
            segment_ptr(nc),
            crs.vals[segment_indices(ptr[rows], width[rows])],
            segment_ptr(nr * nc),
        )

    def split_by_columns(self, keep_mask: np.ndarray) -> tuple["InodeMatrix", "InodeMatrix"]:
        """Split into (A_kept, A_rest) by a boolean column predicate.

        Each i-node's column list is partitioned by ``keep_mask``; the
        blocks are sliced accordingly.  This is how BlockSolve separates
        the off-diagonal sparse part into the portion touching *local*
        columns of x and the portion touching *non-local* columns
        (A_SL / A_SNL in the paper, Sec. 3.3).
        """
        keep_mask = np.asarray(keep_mask, dtype=bool)
        if len(keep_mask) != self._shape[1]:
            raise FormatError("mask length must equal ncols")
        nr = np.diff(self.inodeptr)
        inode_of_col = block_of(self.colptr)
        col_of = self._value_positions()[1]

        def build(sel) -> "InodeMatrix":
            """The i-nodes with a selected column, cut down to the stored
            columns ``sel`` marks (their rows stay whole)."""
            kept = np.bincount(inode_of_col[sel], minlength=self.ninodes)
            live = kept > 0
            return InodeMatrix(
                self._shape,
                self.rows[segment_indices(self.inodeptr[:-1][live], nr[live])],
                segment_ptr(nr[live]),
                self.cols[sel],
                segment_ptr(kept[live]),
                self.vals[sel[col_of]],
                segment_ptr(nr[live] * kept[live]),
            )

        keep = keep_mask[self.cols]
        return build(keep), build(~keep)

    def column_support(self) -> np.ndarray:
        """Sorted unique column indices referenced by any i-node."""
        return np.flatnonzero(np.bincount(self.cols, minlength=self._shape[1]))

    def select_rows(self, keep_mask: np.ndarray, row_map: np.ndarray, new_nrows: int) -> "InodeMatrix":
        """Restrict to rows with ``keep_mask`` true, renumbered by
        ``row_map`` (new local offsets).  I-nodes whose rows straddle the
        predicate are split implicitly (kept rows stay one i-node — their
        shared column list is untouched).  Used to carve each processor's
        off-diagonal fragment out of the global i-node structure."""
        keep_mask = np.asarray(keep_mask, dtype=bool)
        row_map = np.asarray(row_map, dtype=np.int64)
        nc = np.diff(self.colptr)
        inode_of_row = block_of(self.inodeptr)
        keep = keep_mask[self.rows]  # per stored row
        kept = np.bincount(inode_of_row[keep], minlength=self.ninodes)
        live = kept > 0
        # a stored row's values: nc of them, from its offset in its block
        width = nc[inode_of_row]
        vstart = self.voff[:-1][inode_of_row] + (
            np.arange(len(self.rows)) - self.inodeptr[:-1][inode_of_row]
        ) * width
        return InodeMatrix(
            (new_nrows, self._shape[1]),
            row_map[self.rows[keep]],
            segment_ptr(kept[live]),
            self.cols[segment_indices(self.colptr[:-1][live], nc[live])],
            segment_ptr(nc[live]),
            self.vals[segment_indices(vstart[keep], width[keep])],
            segment_ptr(kept[live] * nc[live]),
        )

    def remap_columns(self, col_map: np.ndarray, new_ncols: int) -> "InodeMatrix":
        """Renumber column indices through ``col_map`` (e.g. global →
        local x offsets, or global → ghost slots)."""
        col_map = np.asarray(col_map, dtype=np.int64)
        cols = col_map[self.cols]
        if len(cols) and (cols.min() < 0 or cols.max() >= new_ncols):
            raise FormatError("column remap out of range")
        return InodeMatrix(
            (self._shape[0], new_ncols),
            self.rows,
            self.inodeptr,
            cols,
            self.colptr,
            self.vals,
            self.voff,
        )
