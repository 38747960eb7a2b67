"""Compressed sparse vector.

Stores the nonzero positions (sorted) and their values.  Used as the sparse
``x`` in the paper's opening example (``y = A·x`` with both A and x sparse),
where the planner must *search* x or merge it against A's column
enumeration instead of a dense O(1) lookup.
"""

from __future__ import annotations

import numpy as np

from repro.errors import FormatError
from repro.formats.base import Emitter, index_array
from repro.formats.compressed import CompressedOuterLevel, LevelFormat, Stored

__all__ = ["SparseVector", "SparseVectorLevel"]


class SparseVectorLevel(CompressedOuterLevel):
    """The single level of a compressed vector: ``{prefix}_nnz`` sorted
    stored indices ``{prefix}_ind``, enumerated, searched or merged."""

    mergeable = True

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


class SparseVector(LevelFormat):
    """A compressed 1-D vector: ``SparseVector(n, ind, vals)``, sorted
    indices + values."""

    format_name = "SparseVector"
    LEVELS = (Stored(0, "ind", "nnz", SparseVectorLevel),)

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
        ind = index_array(ind)
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
