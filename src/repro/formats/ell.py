"""ITPACK / ELLPACK format — Table 1's "ITPACK" (refs [12, 17] in the paper).

Every row stores up to K entries in two n×K 2-D arrays (column indices and
values); K is the maximum row length.  Rows shorter than K are padded, and a
``rowlen`` array records each row's true length so enumeration never visits
padding.  The format shines when row lengths are uniform (regular stencils)
and wastes memory when one row is much longer than the rest.

Hierarchy: dense rows, then the packed entry level of each row.
"""

from __future__ import annotations

from typing import Mapping

import numpy as np

from repro.errors import FormatError
from repro.formats.base import AccessLevel, Emitter, Format, check_shape
from repro.formats.coo import COOMatrix
from repro.formats.dense import DenseAxisLevel

__all__ = ["ELLMatrix", "EllEntryLevel"]


class EllEntryLevel(AccessLevel):
    """Entries of one ELL row: ``k in [0, rowlen[i])``; column sorted."""

    searchable = True
    sorted_enum = True
    dense = False
    search_cost = 8.0

    def __init__(self, owner: "ELLMatrix"):
        self.binds = (1,)
        self._owner = owner

    def avg_fanout(self) -> float:
        n = max(1, self._owner.shape[0])
        return self._owner.nnz / n

    def emit_enumerate(self, g: Emitter, prefix: str, parent_pos, axis_vars: Mapping[int, str]) -> str:
        k = g.fresh("k")
        g.open(f"for {k} in range({prefix}_rowlen[{parent_pos}]):")
        g.emit(f"{axis_vars[1]} = {prefix}_colind2d[{parent_pos}, {k}]")
        return f"{parent_pos}, {k}"

    def emit_search(self, g: Emitter, prefix: str, parent_pos, axis_exprs: Mapping[int, str]) -> str:
        k = g.fresh("k")
        g.emit(f"{k} = {prefix}_find_col({parent_pos}, {axis_exprs[1]})")
        g.open(f"if {k} < 0:")
        g.emit("continue")
        g.close()
        return f"{parent_pos}, {k}"


class ELLMatrix(Format):
    """ITPACK/ELLPACK storage.

    Parameters
    ----------
    shape:
        ``(nrows, ncols)``.
    colind2d, vals2d:
        n×K index and value arrays; row i's valid entries are the first
        ``rowlen[i]`` positions, column-sorted; padding columns are 0 with
        value 0 (never enumerated).
    rowlen:
        True length of each row.
    """

    format_name = "ITPACK"
    value_keys = ("vals2d",)

    def __init__(self, shape, colind2d, vals2d, rowlen):
        self._shape = check_shape(shape, 2)
        self.colind2d = np.ascontiguousarray(colind2d, dtype=np.int64)
        self.vals2d = np.ascontiguousarray(vals2d, dtype=np.float64)
        self.rowlen = np.asarray(rowlen, dtype=np.int64)
        if self.colind2d.shape != self.vals2d.shape:
            raise FormatError("colind2d/vals2d shape mismatch")
        if self.colind2d.ndim != 2 or self.colind2d.shape[0] != self._shape[0]:
            raise FormatError("ELL arrays must be (nrows, K)")
        if len(self.rowlen) != self._shape[0]:
            raise FormatError("rowlen length must equal nrows")
        if len(self.rowlen) and self.rowlen.max(initial=0) > self.colind2d.shape[1]:
            raise FormatError("rowlen exceeds K")

    @property
    def K(self) -> int:
        """The padded row width (max row length)."""
        return self.colind2d.shape[1]

    @classmethod
    def from_coo(cls, coo: COOMatrix) -> "ELLMatrix":
        coo = coo.canonicalized()
        n = coo.shape[0]
        counts = coo.row_counts()
        K = int(counts.max(initial=0))
        colind2d = np.zeros((n, K), dtype=np.int64)
        vals2d = np.zeros((n, K), dtype=np.float64)
        # canonical COO is row-major sorted: position within row
        offset = np.arange(coo.nnz, dtype=np.int64)
        rowstart = np.zeros(n + 1, dtype=np.int64)
        np.cumsum(counts, out=rowstart[1:])
        within = offset - rowstart[coo.row]
        colind2d[coo.row, within] = coo.col
        vals2d[coo.row, within] = coo.vals
        return cls(coo.shape, colind2d, vals2d, counts)

    def to_coo(self) -> COOMatrix:
        n, K = self.colind2d.shape
        k = np.arange(K)
        mask = k[None, :] < self.rowlen[:, None]
        r, c = np.nonzero(mask)
        return COOMatrix.from_entries(
            self._shape, r, self.colind2d[r, c], self.vals2d[r, c]
        )

    @property
    def shape(self):
        return self._shape

    @property
    def nnz(self) -> int:
        return int(self.rowlen.sum())

    def levels(self):
        return (DenseAxisLevel(0, self._shape[0]), EllEntryLevel(self))

    def storage(self, prefix: str):
        return {
            f"{prefix}_colind2d": self.colind2d,
            f"{prefix}_vals2d": self.vals2d,
            f"{prefix}_rowlen": self.rowlen,
            f"{prefix}_n0": self._shape[0],
            f"{prefix}_n1": self._shape[1],
            f"{prefix}_find_col": self._find,
        }

    def emit_load(self, g, prefix, axis_vars, pos):
        return f"{prefix}_vals2d[{pos}]"

    def inner_vector_view(self, prefix, parent_pos):
        return {
            "slice": ("0", f"{prefix}_rowlen[{parent_pos}]"),
            "index": {1: ("gather", f"{prefix}_colind2d[{parent_pos}][{{s}}:{{e}}]")},
            "vals": f"{prefix}_vals2d[{parent_pos}][{{s}}:{{e}}]",
            "unique_axes": frozenset({1}),  # columns unique within a row
        }

    def segmented_view(self, prefix: str):
        # zero padding makes the full 2-D product exact: padded entries
        # contribute vals2d == 0
        return {
            "kind": "dense2d",
            "index": {1: f"{prefix}_colind2d"},
            "vals": f"{prefix}_vals2d",
            "outer_axis": 0,
        }

    def _find(self, i: int, j: int) -> int:
        m = int(self.rowlen[i])
        k = int(np.searchsorted(self.colind2d[i, :m], j, side="left"))
        if k < m and self.colind2d[i, k] == j:
            return k
        return -1
