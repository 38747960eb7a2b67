"""Coordinate (COO) format — the exchange format and Table 1's "Coordinate".

A matrix is stored as three parallel arrays: row indices, column indices and
values.  The *canonical* form is sorted row-major with duplicate coordinates
summed; all other formats convert to and from canonical COO.

Access hierarchy: a single level binding both axes at once,

    (I, J) -> V

enumerable in row-major sorted order (when canonical) and searchable by
binary search over the (row, col) key.
"""

from __future__ import annotations

from typing import Mapping

import numpy as np

from repro.errors import FormatError
from repro.formats.base import AccessLevel, Emitter, Format, check_shape

__all__ = ["COOMatrix", "CoordinateLevel", "segment_indices", "segment_ptr"]


def segment_ptr(lengths) -> np.ndarray:
    """Segment pointer array (leading 0, running totals) of ``lengths``."""
    return np.concatenate(([0], np.cumsum(lengths, dtype=np.int64)))


def segment_indices(starts, lengths) -> np.ndarray:
    """Indices of the concatenated ranges ``starts[k] : starts[k] + lengths[k]``
    — the gather index that copies variable-length segments in one pass."""
    lengths = np.asarray(lengths, dtype=np.int64)
    ends = np.cumsum(lengths)
    return np.repeat(np.asarray(starts, dtype=np.int64) - (ends - lengths), lengths) + np.arange(
        ends[-1] if len(ends) else 0
    )


class CoordinateLevel(AccessLevel):
    """The (I, J) level of COO: one flat enumeration over all entries."""

    binds = (0, 1)
    dense = False
    search_cost = 8.0  # binary search

    def __init__(self, owner: "COOMatrix"):
        self._owner = owner
        self.sorted_enum = self.searchable = owner.canonical

    def avg_fanout(self) -> float:
        return float(self._owner.nnz)

    def emit_enumerate(self, g: Emitter, prefix: str, parent_pos, axis_vars: Mapping[int, str]) -> str:
        p = g.fresh("p")
        g.open(f"for {p} in range({prefix}_nnz):")
        if 0 in axis_vars:
            g.emit(f"{axis_vars[0]} = {prefix}_row[{p}]")
        if 1 in axis_vars:
            g.emit(f"{axis_vars[1]} = {prefix}_col[{p}]")
        return p

    def emit_search(self, g: Emitter, prefix: str, parent_pos, axis_exprs: Mapping[int, str]) -> str:
        if not self._owner.canonical:
            raise FormatError("non-canonical COO is not searchable")
        keys = [(f"{prefix}_row[{{}}]", axis_exprs[0]), (f"{prefix}_col[{{}}]", axis_exprs[1])]
        return g.search("0", f"{prefix}_nnz", keys)


class COOMatrix(Format):
    """Coordinate-format sparse matrix.

    Parameters
    ----------
    shape:
        ``(nrows, ncols)``.
    row, col, vals:
        Parallel entry arrays.  Pass ``canonical=True`` only if the entries
        are already row-major sorted with unique coordinates; use
        :meth:`from_entries` to canonicalize arbitrary triples.
    """

    format_name = "Coordinate"

    def __init__(self, shape, row, col, vals, canonical: bool = False):
        self._shape = check_shape(shape, 2)
        # contiguous (np.nonzero hands back strided views): the native run reads flat arrays
        self.row = np.ascontiguousarray(row, dtype=np.int64)
        self.col = np.ascontiguousarray(col, dtype=np.int64)
        self.vals = np.ascontiguousarray(vals, dtype=np.float64)
        self.canonical = bool(canonical)
        self.validate()

    def validate(self) -> None:
        if not (len(self.row) == len(self.col) == len(self.vals)):
            raise FormatError("row/col/vals length mismatch")
        if len(self.row) and (
            self.row.min(initial=0) < 0
            or self.col.min(initial=0) < 0
            or self.row.max(initial=-1) >= self._shape[0]
            or self.col.max(initial=-1) >= self._shape[1]
        ):
            raise FormatError(f"coordinates fall outside shape {self._shape}")

    # ------------------------------------------------------------------
    # constructors
    # ------------------------------------------------------------------
    @classmethod
    def from_entries(cls, shape, row, col, vals) -> "COOMatrix":
        """Canonicalize arbitrary (row, col, val) triples: sort row-major
        and sum duplicates.  Entries that sum to exactly zero are kept as
        explicit (structural) zeros — formats must preserve structure.
        Triples that are already canonical are wrapped, not copied (as the
        constructor would)."""
        row = np.asarray(row, dtype=np.int64)
        col = np.asarray(col, dtype=np.int64)
        vals = np.asarray(vals, dtype=np.float64)
        if len(row) == 0:
            return cls(shape, row, col, vals, canonical=True)
        # already canonical (strictly increasing row-major — compared
        # pairwise, a fused row*ncols+col key could overflow): the sort is
        # the identity and no coordinate repeats, so the arrays pass through
        if ((row[1:] > row[:-1]) | ((row[1:] == row[:-1]) & (col[1:] > col[:-1]))).all():
            return cls(shape, row, col, vals, canonical=True)
        order = np.lexsort((col, row))
        row, col, vals = row[order], col[order], vals[order]
        # segment boundaries where the coordinate changes
        new = np.empty(len(row), dtype=bool)
        new[0] = True
        new[1:] = (row[1:] != row[:-1]) | (col[1:] != col[:-1])
        idx = np.flatnonzero(new)
        summed = np.add.reduceat(vals, idx)
        return cls(shape, row[idx], col[idx], summed, canonical=True)

    @classmethod
    def from_dense(cls, dense) -> "COOMatrix":
        dense = np.asarray(dense, dtype=np.float64)
        if dense.ndim != 2:
            raise FormatError("from_dense expects a 2-D array")
        r, c = np.nonzero(dense)
        return cls(dense.shape, r, c, dense[r, c], canonical=True)

    @classmethod
    def from_coo(cls, coo: "COOMatrix") -> "COOMatrix":
        return coo.canonicalized()

    @classmethod
    def identity(cls, n: int) -> "COOMatrix":
        idx = np.arange(n, dtype=np.int64)
        return cls((n, n), idx, idx, np.ones(n), canonical=True)

    @classmethod
    def random(
        cls, nrows: int, ncols: int, density: float, rng=None, symmetric: bool = False
    ) -> "COOMatrix":
        """A random matrix with roughly ``density * nrows * ncols`` entries."""
        rng = np.random.default_rng(rng)
        nnz = max(0, int(round(density * nrows * ncols)))
        r = rng.integers(0, nrows, size=nnz)
        c = rng.integers(0, ncols, size=nnz)
        v = rng.standard_normal(nnz)
        m = cls.from_entries((nrows, ncols), r, c, v)
        if symmetric:
            if nrows != ncols:
                raise FormatError("symmetric random matrix must be square")
            t = m.transpose()
            m = cls.from_entries(
                (nrows, ncols),
                np.concatenate([m.row, t.row]),
                np.concatenate([m.col, t.col]),
                np.concatenate([m.vals, t.vals]) * 0.5,
            )
        return m

    # ------------------------------------------------------------------
    # Format interface
    # ------------------------------------------------------------------
    @property
    def shape(self):
        return self._shape

    @property
    def nnz(self) -> int:
        return len(self.vals)

    def levels(self):
        return (CoordinateLevel(self),)

    def spec(self) -> tuple:
        # canonical decides whether the level is sorted and searchable
        return (type(self).__qualname__, self.canonical)

    def storage(self, prefix: str):
        return {
            f"{prefix}_row": self.row,
            f"{prefix}_col": self.col,
            f"{prefix}_vals": self.vals,
            f"{prefix}_nnz": self.nnz,
        }

    def emit_load(self, g, prefix, axis_vars, pos):
        return f"{prefix}_vals[{pos}]"

    # ------------------------------------------------------------------
    # data operations
    # ------------------------------------------------------------------
    def canonicalized(self) -> "COOMatrix":
        if self.canonical:
            return self
        return COOMatrix.from_entries(self._shape, self.row, self.col, self.vals)

    def to_coo(self) -> "COOMatrix":
        return self.canonicalized()

    def to_dense(self) -> np.ndarray:
        out = np.zeros(self._shape)
        np.add.at(out, (self.row, self.col), self.vals)
        return out

    def transpose(self) -> "COOMatrix":
        m = COOMatrix((self._shape[1], self._shape[0]), self.col, self.row, self.vals)
        return m.canonicalized()

    def prune(self, tol: float = 0.0) -> "COOMatrix":
        """Drop stored entries with |value| <= tol."""
        keep = np.abs(self.vals) > tol
        return COOMatrix(
            self._shape, self.row[keep], self.col[keep], self.vals[keep], self.canonical
        )

    def row_counts(self) -> np.ndarray:
        """Number of stored entries in each row."""
        return np.bincount(self.row, minlength=self._shape[0]).astype(np.int64)

    def col_counts(self) -> np.ndarray:
        return np.bincount(self.col, minlength=self._shape[1]).astype(np.int64)

    def diagonal(self) -> np.ndarray:
        """The main diagonal as a dense vector."""
        on = self.row == self.col
        # an empty bincount is int64 whatever its weights
        return np.bincount(self.row[on], self.vals[on], min(self._shape)).astype(np.float64, copy=False)

    def window_entries(self, r0: int, c0: int, h: int, w: int) -> np.ndarray:
        """Ascending positions of the entries in rows ``r0:r0+h`` and
        columns ``c0:c0+w``.  Canonical only: a ``searchsorted`` slice of
        the sorted rows, then a column test inside the slice."""
        if not self.canonical:
            raise FormatError("window_entries requires canonical COO")
        lo, hi = np.searchsorted(self.row, (r0, r0 + h))
        c = self.col[lo:hi]
        return lo + np.flatnonzero((c >= c0) & (c < c0 + w))

    def column_support(self) -> np.ndarray:
        """Sorted unique column indices of the stored entries, by a count, not a sort."""
        return np.flatnonzero(np.bincount(self.col, minlength=self._shape[1]))

    def remap_columns(self, col_map: np.ndarray, new_ncols: int) -> "COOMatrix":
        """Renumber column indices through ``col_map`` (e.g. global →
        local x offsets, or global → ghost slots)."""
        cols = np.asarray(col_map, dtype=np.int64)[self.col]
        return COOMatrix((self._shape[0], new_ncols), self.row, cols, self.vals)

    def select_rows(self, rows) -> "COOMatrix":
        """Sub-matrix of the given global rows, *renumbered* 0..len(rows)-1
        (columns keep global numbering).  ``rows`` need not be sorted."""
        rows = np.asarray(rows, dtype=np.int64)
        lookup = -np.ones(self._shape[0], dtype=np.int64)
        lookup[rows] = np.arange(len(rows))
        keep = lookup[self.row] >= 0
        return COOMatrix.from_entries(
            (len(rows), self._shape[1]),
            lookup[self.row[keep]],
            self.col[keep],
            self.vals[keep],
        )

    def permuted(self, row_perm=None, col_perm=None) -> "COOMatrix":
        """Apply permutations: new_index = perm[old_index] for each axis."""
        r = self.row if row_perm is None else np.asarray(row_perm, dtype=np.int64)[self.row]
        c = self.col if col_perm is None else np.asarray(col_perm, dtype=np.int64)[self.col]
        return COOMatrix.from_entries(self._shape, r, c, self.vals)

    def __eq__(self, other):
        if not isinstance(other, COOMatrix):
            return NotImplemented
        a, b = self.canonicalized(), other.canonicalized()
        return (
            a.shape == b.shape
            and np.array_equal(a.row, b.row)
            and np.array_equal(a.col, b.col)
            and np.allclose(a.vals, b.vals)
        )

    def __hash__(self):
        raise TypeError("COOMatrix is unhashable")
