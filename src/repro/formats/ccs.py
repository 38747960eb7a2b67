"""Compressed Column Storage (CCS) — the running example of paper Fig. 1(b).

Hierarchy: ``J -> (I, V)`` — a dense column level above a compressed row
level.  Column j's row indices live in ``ROWIND[COLP[j] : COLP[j+1]]`` and
its values in ``VALS`` at the same positions, exactly the paper's arrays.
"""

from __future__ import annotations

import numpy as np

from repro.errors import FormatError
from repro.formats.base import Format, check_segments, check_shape
from repro.formats.compressed import CompressedLevel
from repro.formats.coo import COOMatrix
from repro.formats.dense import DenseAxisLevel

__all__ = ["CCSMatrix"]


class CCSMatrix(Format):
    """Compressed Column Storage, with the paper's array names.

    Parameters
    ----------
    shape:
        ``(nrows, ncols)``.
    colp:
        ``ncols + 1`` monotone segment pointers (the paper's COLP).
    rowind, vals:
        Row indices (sorted within each column) and values (ROWIND, VALS).
    """

    format_name = "CCS"

    def __init__(self, shape, colp, rowind, vals):
        self._shape = check_shape(shape, 2)
        self.colp = np.asarray(colp, dtype=np.int64)
        self.rowind = np.asarray(rowind, dtype=np.int64)
        self.vals = np.asarray(vals, dtype=np.float64)
        self.validate()

    def validate(self) -> None:
        if len(self.colp) != self._shape[1] + 1:
            raise FormatError(
                f"colp length {len(self.colp)} != ncols+1 = {self._shape[1] + 1}"
            )
        if self.colp[0] != 0 or self.colp[-1] != len(self.vals):
            raise FormatError("colp must start at 0 and end at nnz")
        if len(self.rowind) != len(self.vals):
            raise FormatError("rowind/vals length mismatch")
        check_segments(self.colp, self.rowind, self._shape[0], "rowind")

    @classmethod
    def from_coo(cls, coo: COOMatrix) -> "CCSMatrix":
        coo = coo.canonicalized()
        ncols = coo.shape[1]
        order = np.lexsort((coo.row, coo.col))  # column-major
        colp = np.zeros(ncols + 1, dtype=np.int64)
        np.cumsum(np.bincount(coo.col, minlength=ncols), out=colp[1:])
        return cls(coo.shape, colp, coo.row[order], coo.vals[order])

    def to_coo(self) -> COOMatrix:
        col = np.repeat(np.arange(self._shape[1]), np.diff(self.colp))
        return COOMatrix.from_entries(self._shape, self.rowind, col, self.vals)

    @property
    def shape(self):
        return self._shape

    @property
    def nnz(self) -> int:
        return len(self.vals)

    def levels(self):
        m = max(1, self._shape[1])
        return (
            DenseAxisLevel(1, self._shape[1]),
            CompressedLevel(0, "colp", "rowind", fanout=self.nnz / m),
        )

    def storage(self, prefix: str):
        return {
            f"{prefix}_colp": self.colp,
            f"{prefix}_rowind": self.rowind,
            f"{prefix}_vals": self.vals,
            f"{prefix}_n0": self._shape[0],
            f"{prefix}_n1": self._shape[1],
        }

    def emit_load(self, g, prefix, axis_vars, pos):
        return f"{prefix}_vals[{pos}]"
