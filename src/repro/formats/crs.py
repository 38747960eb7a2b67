"""Compressed Row Storage (CRS/CSR) — Table 1's "CRS".

Hierarchy: ``I -> (J, V)`` — a dense row level above a compressed column
level.  Rows are stored as segments ``rowptr[i] : rowptr[i+1]`` of the
``colind``/``vals`` arrays, column indices sorted within each row.
"""

from __future__ import annotations

import numpy as np

from repro.errors import FormatError
from repro.formats.base import Format, check_segments, check_shape
from repro.formats.compressed import CompressedLevel
from repro.formats.coo import COOMatrix
from repro.formats.dense import DenseAxisLevel

__all__ = ["CRSMatrix"]


class CRSMatrix(Format):
    """Compressed Row Storage.

    Parameters
    ----------
    shape:
        ``(nrows, ncols)``.
    rowptr:
        ``nrows + 1`` monotone segment pointers.
    colind, vals:
        Column indices (sorted within each row) and values, both of length
        ``rowptr[-1]``.
    """

    format_name = "CRS"

    def __init__(self, shape, rowptr, colind, vals):
        self._shape = check_shape(shape, 2)
        self.rowptr = np.asarray(rowptr, dtype=np.int64)
        self.colind = np.asarray(colind, dtype=np.int64)
        self.vals = np.asarray(vals, dtype=np.float64)
        self.validate()

    def validate(self) -> None:
        if len(self.rowptr) != self._shape[0] + 1:
            raise FormatError(
                f"rowptr length {len(self.rowptr)} != nrows+1 = {self._shape[0] + 1}"
            )
        if self.rowptr[0] != 0 or self.rowptr[-1] != len(self.vals):
            raise FormatError("rowptr must start at 0 and end at nnz")
        if len(self.colind) != len(self.vals):
            raise FormatError("colind/vals length mismatch")
        check_segments(self.rowptr, self.colind, self._shape[1], "colind")

    @classmethod
    def from_coo(cls, coo: COOMatrix) -> "CRSMatrix":
        coo = coo.canonicalized()
        nrows = coo.shape[0]
        rowptr = np.zeros(nrows + 1, dtype=np.int64)
        np.cumsum(np.bincount(coo.row, minlength=nrows), out=rowptr[1:])
        # canonical COO is already row-major with sorted columns per row
        return cls(coo.shape, rowptr, coo.col.copy(), coo.vals.copy())

    def to_coo(self) -> COOMatrix:
        row = np.repeat(np.arange(self._shape[0]), np.diff(self.rowptr))
        return COOMatrix(self._shape, row, self.colind, self.vals, canonical=True)

    @property
    def shape(self):
        return self._shape

    @property
    def nnz(self) -> int:
        return len(self.vals)

    def levels(self):
        n = max(1, self._shape[0])
        return (
            DenseAxisLevel(0, self._shape[0]),
            CompressedLevel(1, "rowptr", "colind", fanout=self.nnz / n),
        )

    def storage(self, prefix: str):
        return {
            f"{prefix}_rowptr": self.rowptr,
            f"{prefix}_colind": self.colind,
            f"{prefix}_vals": self.vals,
            f"{prefix}_n0": self._shape[0],
            f"{prefix}_n1": self._shape[1],
        }

    def emit_load(self, g, prefix, axis_vars, pos):
        return f"{prefix}_vals[{pos}]"

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
