"""Compressed Row Storage (CRS/CSR) — Table 1's "CRS".

Hierarchy: ``I -> (J, V)`` — a dense row level above a compressed column
level.  Rows are stored as segments ``rowptr[i] : rowptr[i+1]`` of the
``colind``/``vals`` arrays, column indices sorted within each row.
"""

from __future__ import annotations

import numpy as np

from repro.formats.compressed import Compressed, DenseAxis, LevelFormat

__all__ = ["CRSMatrix"]


class CRSMatrix(LevelFormat):
    """Compressed Row Storage: ``CRSMatrix(shape, rowptr, colind, vals)``
    with ``nrows + 1`` segment pointers and, per row, sorted column
    indices and their values."""

    format_name = "CRS"
    LEVELS = (DenseAxis(0), Compressed(1, "rowptr", "colind"))

    def column_support(self) -> np.ndarray:
        """Sorted unique column indices of the stored entries, by a count, not a sort."""
        return np.flatnonzero(np.bincount(self.colind, minlength=self._shape[1]))

    def remap_columns(self, col_map: np.ndarray, new_ncols: int) -> "CRSMatrix":
        """Renumber column indices through ``col_map`` (global → ghost
        slots, say).  The map must increase over the stored columns, so
        every row stays sorted; the constructor checks that it does."""
        return CRSMatrix((self._shape[0], new_ncols), self.rowptr, np.asarray(col_map)[self.colind], self.vals)

    # ------------------------------------------------------------------
    # hand-written reference operations (baseline / oracle use only)
    # ------------------------------------------------------------------
    def matvec(self, x: np.ndarray) -> np.ndarray:
        """Hand-vectorized y = A·x, used as an oracle in tests."""
        x = np.asarray(x)
        prod = self.vals * x[self.colind]
        out = np.zeros(self._shape[0])
        counts = np.diff(self.rowptr)
        nonempty = np.flatnonzero(counts)
        if len(nonempty):
            out[nonempty] = np.add.reduceat(prod, self.rowptr[nonempty])
        return out

    def row_slice(self, i: int) -> tuple[np.ndarray, np.ndarray]:
        """(column indices, values) of row i."""
        s, e = self.rowptr[i], self.rowptr[i + 1]
        return self.colind[s:e], self.vals[s:e]
