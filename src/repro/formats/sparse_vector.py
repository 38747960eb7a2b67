"""Compressed sparse vector.

Stores the nonzero positions (sorted) and their values.  Used as the sparse
``x`` in the paper's opening example (``y = A·x`` with both A and x sparse),
where the planner must *search* x or merge it against A's column
enumeration instead of a dense O(1) lookup.
"""

from __future__ import annotations

from typing import Mapping

import numpy as np

from repro.errors import FormatError
from repro.formats.base import Emitter, Format, check_shape
from repro.formats.compressed import CompressedOuterLevel

__all__ = ["SparseVector", "SparseVectorLevel"]


class SparseVectorLevel(CompressedOuterLevel):
    """The single level of a compressed vector: ``{prefix}_nnz`` sorted
    stored indices ``{prefix}_ind``, enumerated, searched or merged."""

    mergeable = True

    def __init__(self, owner: "SparseVector"):
        super().__init__(0, "ind", "nnz", fanout=owner.nnz)

    def emit_merge(self, g: Emitter, prefix: str, parent_pos, key_expr: str, cursor: str) -> str:
        g.open(f"while {cursor} < {prefix}_nnz and {prefix}_ind[{cursor}] < {key_expr}:")
        g.emit(f"{cursor} += 1")
        g.close()
        g.open(f"if {cursor} >= {prefix}_nnz:")
        g.emit("break")
        g.close()
        g.open(f"if {prefix}_ind[{cursor}] != {key_expr}:")
        g.emit("continue")
        g.close()
        return cursor


class SparseVector(Format):
    """A compressed 1-D vector: sorted indices + values."""

    format_name = "SparseVector"

    def __init__(self, n, ind, vals):
        self._shape = check_shape((n,), 1)
        self.ind = np.asarray(ind, dtype=np.int64)
        self.vals = np.asarray(vals, dtype=np.float64)
        self.validate()

    def validate(self) -> None:
        if len(self.ind) != len(self.vals):
            raise FormatError("ind/vals length mismatch")
        if len(self.ind):
            if np.any(np.diff(self.ind) <= 0):
                raise FormatError("indices must be strictly increasing")
            if self.ind[0] < 0 or self.ind[-1] >= self._shape[0]:
                raise FormatError("index out of bounds")

    @classmethod
    def from_dense(cls, dense) -> "SparseVector":
        dense = np.asarray(dense, dtype=np.float64)
        if dense.ndim != 1:
            raise FormatError("from_dense expects a 1-D array")
        idx = np.flatnonzero(dense)
        return cls(len(dense), idx, dense[idx])

    @classmethod
    def from_entries(cls, n, ind, vals) -> "SparseVector":
        """Canonicalize possibly-unsorted, possibly-duplicated entries."""
        ind = np.asarray(ind, dtype=np.int64)
        vals = np.asarray(vals, dtype=np.float64)
        if len(ind) == 0:
            return cls(n, ind, vals)
        order = np.argsort(ind, kind="stable")
        ind, vals = ind[order], vals[order]
        new = np.empty(len(ind), dtype=bool)
        new[0] = True
        new[1:] = ind[1:] != ind[:-1]
        pos = np.flatnonzero(new)
        return cls(n, ind[pos], np.add.reduceat(vals, pos))

    def to_dense(self) -> np.ndarray:
        out = np.zeros(self._shape[0])
        out[self.ind] = self.vals
        return out

    @property
    def shape(self):
        return self._shape

    @property
    def nnz(self) -> int:
        return len(self.vals)

    def levels(self):
        return (SparseVectorLevel(self),)

    def storage(self, prefix: str):
        return {
            f"{prefix}_ind": self.ind,
            f"{prefix}_vals": self.vals,
            f"{prefix}_nnz": self.nnz,
            f"{prefix}_n0": self._shape[0],
        }

    def emit_load(self, g, prefix, axis_vars, pos):
        return f"{prefix}_vals[{pos}]"
