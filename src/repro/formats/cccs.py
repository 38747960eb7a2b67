"""Compressed Compressed Column Storage (CCCS) — paper Fig. 1(c).

When a matrix has many empty columns, CCS wastes COLP slots on them; CCCS
adds another level of indirection, the COLIND array, compressing the column
dimension as well.  Hierarchy: a *compressed* column level (only stored
columns are enumerated) above a compressed row level.
"""

from __future__ import annotations

import numpy as np

from repro.errors import FormatError
from repro.formats.base import Format, check_segments, check_shape
from repro.formats.compressed import CompressedLevel, CompressedOuterLevel
from repro.formats.coo import COOMatrix

__all__ = ["CCCSMatrix"]


class CCCSMatrix(Format):
    """Compressed Compressed Column Storage.

    Parameters
    ----------
    shape:
        ``(nrows, ncols)``.
    colind:
        Sorted global indices of the stored (nonempty) columns.
    colp:
        ``len(colind) + 1`` segment pointers into rowind/vals.
    rowind, vals:
        Row indices (sorted per column) and values.
    """

    format_name = "CCCS"

    def __init__(self, shape, colind, colp, rowind, vals):
        self._shape = check_shape(shape, 2)
        self.colind = np.asarray(colind, dtype=np.int64)
        self.colp = np.asarray(colp, dtype=np.int64)
        self.rowind = np.asarray(rowind, dtype=np.int64)
        self.vals = np.asarray(vals, dtype=np.float64)
        self.validate()

    def validate(self) -> None:
        if len(self.colp) != len(self.colind) + 1:
            raise FormatError("colp length must be len(colind) + 1")
        if self.colp[0] != 0 or self.colp[-1] != len(self.vals):
            raise FormatError("colp must start at 0 and end at nnz")
        if len(self.rowind) != len(self.vals):
            raise FormatError("rowind/vals length mismatch")
        # the stored columns form one segment, each column's rows another
        check_segments(np.array([0, len(self.colind)]), self.colind, self._shape[1], "colind")
        check_segments(self.colp, self.rowind, self._shape[0], "rowind")

    @classmethod
    def from_coo(cls, coo: COOMatrix) -> "CCCSMatrix":
        coo = coo.canonicalized()
        order = np.lexsort((coo.row, coo.col))
        col_sorted = coo.col[order]
        stored, counts = np.unique(col_sorted, return_counts=True)
        colp = np.zeros(len(stored) + 1, dtype=np.int64)
        np.cumsum(counts, out=colp[1:])
        return cls(coo.shape, stored, colp, coo.row[order], coo.vals[order])

    def to_coo(self) -> COOMatrix:
        col = np.repeat(self.colind, np.diff(self.colp))
        return COOMatrix.from_entries(self._shape, self.rowind, col, self.vals)

    @property
    def shape(self):
        return self._shape

    @property
    def nnz(self) -> int:
        return len(self.vals)

    @property
    def ncols_stored(self) -> int:
        return len(self.colind)

    def levels(self):
        k = max(1, self.ncols_stored)
        return (
            CompressedOuterLevel(1, "colind", "ncols_stored", fanout=self.ncols_stored),
            CompressedLevel(0, "colp", "rowind", fanout=self.nnz / k),
        )

    def storage(self, prefix: str):
        return {
            f"{prefix}_colind": self.colind,
            f"{prefix}_ncols_stored": self.ncols_stored,
            f"{prefix}_colp": self.colp,
            f"{prefix}_rowind": self.rowind,
            f"{prefix}_vals": self.vals,
            f"{prefix}_n0": self._shape[0],
            f"{prefix}_n1": self._shape[1],
        }

    def emit_load(self, g, prefix, axis_vars, pos):
        return f"{prefix}_vals[{pos}]"
