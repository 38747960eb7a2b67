"""I-node storage (paper Fig. 2(c)): rows with identical column structure
share one column list; their values form a small dense block.

Storage, for ``T`` i-nodes:

* ``rows``, ``inodeptr`` — the row ids of each i-node (segment t is
  ``rows[inodeptr[t] : inodeptr[t+1]]``),
* ``cols``, ``colptr`` — the shared column list of each i-node,
* ``vals``, ``voff`` — per-i-node dense blocks (row-major, shape
  ``nrows_t × ncols_t``), concatenated flat.

The hand-written :meth:`matvec` batches i-nodes of equal block shape into
3-D tensors and uses one einsum per shape — the dense-block advantage that
makes BlockSolve win on multi-dof FEM matrices in Table 1.
"""

from __future__ import annotations

from typing import Mapping

import numpy as np

from repro.errors import FormatError
from repro.formats.base import AccessLevel, Emitter, Format, check_shape
from repro.formats.coo import COOMatrix, segment_indices, segment_ptr
from repro.graphs.inodes import find_inodes

__all__ = ["InodeMatrix"]


class _InodeOuterLevel(AccessLevel):
    """Enumerate i-nodes (internal index; binds no loop axis)."""

    binds = ()
    searchable = False
    dense = False

    def __init__(self, owner: "InodeMatrix"):
        self._owner = owner

    def avg_fanout(self) -> float:
        return float(max(1, self._owner.ninodes))

    def emit_enumerate(self, g: Emitter, prefix: str, parent_pos, axis_vars: Mapping[int, str]) -> str:
        t = g.fresh("t")
        g.open(f"for {t} in range({prefix}_ninodes):")
        return t


class _InodeRowLevel(AccessLevel):
    """Rows of one i-node.  The returned position is a *format-internal*
    compound (``"base:cs:nc"`` variable names) that only the sibling
    column level interprets — positions are opaque to the compiler."""

    binds = (0,)
    searchable = False
    sorted_enum = True
    dense = False

    def __init__(self, owner: "InodeMatrix"):
        self._owner = owner

    def avg_fanout(self) -> float:
        t = max(1, self._owner.ninodes)
        return max(1.0, len(self._owner.rows) / t)

    def emit_enumerate(self, g: Emitter, prefix: str, parent_pos, axis_vars: Mapping[int, str]) -> str:
        t = parent_pos
        cs, nc = g.fresh("cs"), g.fresh("nc")
        g.emit(f"{cs} = {prefix}_colptr[{t}]")
        g.emit(f"{nc} = {prefix}_colptr[{t} + 1] - {cs}")
        r = g.fresh("r")
        g.open(f"for {r} in range({prefix}_inodeptr[{t}], {prefix}_inodeptr[{t} + 1]):")
        if 0 in axis_vars:
            g.emit(f"{axis_vars[0]} = {prefix}_rows[{r}]")
        base = g.fresh("base")
        g.emit(f"{base} = {prefix}_voff[{t}] + ({r} - {prefix}_inodeptr[{t}]) * {nc}")
        return f"{base}:{cs}:{nc}"


class _InodeColLevel(AccessLevel):
    """The shared column list of one i-node row (position from the row
    level is the compound ``base:cs:nc``)."""

    binds = (1,)
    searchable = False
    sorted_enum = True
    dense = False

    def __init__(self, owner: "InodeMatrix"):
        self._owner = owner

    def avg_fanout(self) -> float:
        t = max(1, self._owner.ninodes)
        return max(1.0, len(self._owner.cols) / t)

    def emit_enumerate(self, g: Emitter, prefix: str, parent_pos, axis_vars: Mapping[int, str]) -> str:
        base, cs, nc = parent_pos.split(":")
        c = g.fresh("c")
        g.open(f"for {c} in range({cs}, {cs} + {nc}):")
        if 1 in axis_vars:
            g.emit(f"{axis_vars[1]} = {prefix}_cols[{c}]")
        return f"{base} + ({c} - {cs})"

    def vector_view(self, prefix: str, parent_pos):
        parts = parent_pos.split(":") if parent_pos else []
        if len(parts) != 3:  # availability probe with a placeholder parent
            parts = [parent_pos or "0"] * 3
        base, cs, nc = parts
        return {
            "slice": (cs, f"{cs} + {nc}"),
            "index": {1: ("gather", f"{prefix}_cols[{{s}}:{{e}}]")},
            "unique_axes": frozenset({1}),
        }


class InodeMatrix(Format):
    """Matrix stored as i-node dense blocks."""

    format_name = "Inode"

    def __init__(self, shape, rows, inodeptr, cols, colptr, vals, voff):
        self._shape = check_shape(shape, 2)
        self.rows = np.asarray(rows, dtype=np.int64)
        self.inodeptr = np.asarray(inodeptr, dtype=np.int64)
        self.cols = np.asarray(cols, dtype=np.int64)
        self.colptr = np.asarray(colptr, dtype=np.int64)
        self.vals = np.asarray(vals, dtype=np.float64)
        self.voff = np.asarray(voff, dtype=np.int64)
        T = len(self.inodeptr) - 1
        if len(self.colptr) != T + 1 or len(self.voff) != T + 1:
            raise FormatError("inodeptr/colptr/voff length mismatch")
        nr = np.diff(self.inodeptr)
        nc = np.diff(self.colptr)
        if np.any(np.diff(self.voff) != nr * nc):
            raise FormatError("voff inconsistent with block shapes")
        if self.voff[-1] != len(self.vals) if T else len(self.vals) != 0:
            raise FormatError("vals length inconsistent with voff")
        self._batch_cache = None

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
        nrows = coo.shape[0]
        patterns = [tuple(crs.row_slice(i)[0].tolist()) for i in range(nrows)]
        groups = [
            g for g in find_inodes(patterns) if patterns[g[0]]  # drop empty rows
        ]
        rows, inodeptr = [], [0]
        cols, colptr = [], [0]
        vals_parts, voff = [], [0]
        for g in groups:
            pat = patterns[g[0]]
            rows.extend(g)
            inodeptr.append(len(rows))
            cols.extend(pat)
            colptr.append(len(cols))
            block = np.stack([crs.row_slice(i)[1] for i in g])
            vals_parts.append(block.ravel())
            voff.append(voff[-1] + block.size)
        vals = np.concatenate(vals_parts) if vals_parts else np.empty(0)
        return cls(
            coo.shape,
            np.asarray(rows, dtype=np.int64),
            np.asarray(inodeptr, dtype=np.int64),
            np.asarray(cols, dtype=np.int64),
            np.asarray(colptr, dtype=np.int64),
            vals,
            np.asarray(voff, dtype=np.int64),
        )

    def _value_cols(self) -> tuple[np.ndarray, np.ndarray]:
        """``(width, col_of)``: the value count of every stored row, and per
        stored value (blocks are row-major, so values run i-node by i-node,
        row by row) the position of its column in ``cols``."""
        nr = np.diff(self.inodeptr)
        width = np.repeat(np.diff(self.colptr), nr)
        return width, segment_indices(np.repeat(self.colptr[:-1], nr), width)

    def to_coo(self) -> COOMatrix:
        width, col_of = self._value_cols()
        return COOMatrix.from_entries(
            self._shape, np.repeat(self.rows, width), self.cols[col_of], self.vals
        )

    @property
    def shape(self):
        return self._shape

    @property
    def nnz(self) -> int:
        return len(self.vals)

    def levels(self):
        return (_InodeOuterLevel(self), _InodeRowLevel(self), _InodeColLevel(self))

    def inner_vector_view(self, prefix, parent_pos):
        view = _InodeColLevel(self).vector_view(prefix, parent_pos)
        base = (parent_pos or "0").split(":")[0]
        view["vals"] = f"{prefix}_vals[{base} : {base} + ({{e}} - {{s}})]"
        return view

    def inner_block_view(self, prefix):
        return {
            "nrows": f"np.diff({prefix}_inodeptr)",
            "ncols": f"np.diff({prefix}_colptr)",
            "rows": (f"{prefix}_inodeptr", f"{prefix}_rows"),
            "cols": (f"{prefix}_colptr", f"{prefix}_cols"),
            "voff": f"{prefix}_voff",
            "vals": f"{prefix}_vals",
        }

    def storage(self, prefix: str):
        return {
            f"{prefix}_rows": self.rows,
            f"{prefix}_inodeptr": self.inodeptr,
            f"{prefix}_cols": self.cols,
            f"{prefix}_colptr": self.colptr,
            f"{prefix}_vals": self.vals,
            f"{prefix}_voff": self.voff,
            f"{prefix}_ninodes": self.ninodes,
            f"{prefix}_n0": self._shape[0],
            f"{prefix}_n1": self._shape[1],
        }

    def emit_load(self, g, prefix, axis_vars, pos):
        return f"{prefix}_vals[{pos}]"

    # ------------------------------------------------------------------
    # hand-written library kernels (the BlockSolve baseline)
    # ------------------------------------------------------------------
    def _batches(self):
        """Group i-nodes by block shape; cache stacked tensors per shape."""
        if self._batch_cache is None:
            nr = np.diff(self.inodeptr)
            nc = np.diff(self.colptr)
            batches = []
            for r, c in np.unique(np.stack([nr, nc], axis=1), axis=0):
                ts = np.flatnonzero((nr == r) & (nc == c))
                V = self.vals[self.voff[ts][:, None] + np.arange(r * c)].reshape(len(ts), r, c)
                R = self.rows[self.inodeptr[ts][:, None] + np.arange(r)]
                C = self.cols[self.colptr[ts][:, None] + np.arange(c)]
                batches.append((V, R, C))
            self._batch_cache = batches
        return self._batch_cache

    def matvec(self, x: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
        """y (+)= A·x using shape-batched dense block products."""
        x = np.asarray(x)
        y = out if out is not None else np.zeros(self._shape[0])
        for V, R, C in self._batches():
            yb = np.einsum("tij,tj->ti", V, x[C])
            np.add.at(y, R, yb)
        return y

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
        nc = np.diff(self.colptr)
        inode_of_col = np.repeat(np.arange(self.ninodes), nc)
        col_of = self._value_cols()[1]

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
        return np.unique(self.cols)

    def select_rows(self, keep_mask: np.ndarray, row_map: np.ndarray, new_nrows: int) -> "InodeMatrix":
        """Restrict to rows with ``keep_mask`` true, renumbered by
        ``row_map`` (new local offsets).  I-nodes whose rows straddle the
        predicate are split implicitly (kept rows stay one i-node — their
        shared column list is untouched).  Used to carve each processor's
        off-diagonal fragment out of the global i-node structure."""
        keep_mask = np.asarray(keep_mask, dtype=bool)
        row_map = np.asarray(row_map, dtype=np.int64)
        nr = np.diff(self.inodeptr)
        nc = np.diff(self.colptr)
        inode_of_row = np.repeat(np.arange(self.ninodes), nr)
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
