"""Diagonal storage — Table 1's "Diagonal" (Appendix A of the paper).

A variant of banded/skyline storage re-oriented along diagonals: an
arbitrary set of diagonals ``d = j - i`` is stored, and within each diagonal
only the run between its first and last structural nonzero (interior zeros
are stored explicitly, as in Skyline storage [George & Liu]).

Storage arrays, for ``ndiag`` stored diagonals:

* ``offsets`` — sorted diagonal offsets (j - i),
* ``dptr``    — ``ndiag + 1`` segment pointers into ``vals``,
* ``first``   — the first stored row of each diagonal,
* ``vals``    — the runs, concatenated.

Hierarchy: an internal level over stored diagonals (binds no loop axis),
then a run level binding *both* axes affinely (i = first + offset-in-run,
j = i + d) — the format whose enumeration order is neither row- nor
column-major, exercising the planner's handling of index maps.
"""

from __future__ import annotations

from typing import Mapping

import numpy as np

from repro.errors import FormatError
from repro.formats.base import AccessLevel, Emitter, Format, check_shape
from repro.formats.coo import COOMatrix, segment_indices, segment_ptr

__all__ = ["DiagonalMatrix", "DiagOuterLevel", "DiagRunLevel"]


class DiagOuterLevel(AccessLevel):
    """Enumerate stored diagonals.  Binds no loop axis (internal index)."""

    binds = ()
    searchable = False
    sorted_enum = True
    dense = False

    def __init__(self, owner: "DiagonalMatrix"):
        self._owner = owner

    def avg_fanout(self) -> float:
        return float(max(1, len(self._owner.offsets)))

    def emit_enumerate(self, g: Emitter, prefix: str, parent_pos, axis_vars: Mapping[int, str]) -> str:
        t = g.fresh("t")
        g.open(f"for {t} in range({prefix}_ndiag):")
        return t


class DiagRunLevel(AccessLevel):
    """Entries of one stored diagonal: i runs over the stored row range,
    j = i + offset.  Binds both axes."""

    binds = (0, 1)
    searchable = True
    sorted_enum = True  # i strictly increasing within a diagonal
    dense = False
    search_cost = 8.0

    def __init__(self, owner: "DiagonalMatrix"):
        self._owner = owner

    def avg_fanout(self) -> float:
        nd = max(1, len(self._owner.offsets))
        return self._owner.stored_count / nd

    def emit_enumerate(self, g: Emitter, prefix: str, parent_pos, axis_vars: Mapping[int, str]) -> str:
        p = g.fresh("p")
        g.open(f"for {p} in range({prefix}_dptr[{parent_pos}], {prefix}_dptr[{parent_pos} + 1]):")
        i_expr = f"{prefix}_first[{parent_pos}] + ({p} - {prefix}_dptr[{parent_pos}])"
        if 0 in axis_vars:
            g.emit(f"{axis_vars[0]} = {i_expr}")
            if 1 in axis_vars:
                g.emit(f"{axis_vars[1]} = {axis_vars[0]} + {prefix}_offsets[{parent_pos}]")
        elif 1 in axis_vars:
            g.emit(f"{axis_vars[1]} = {i_expr} + {prefix}_offsets[{parent_pos}]")
        return p

    def emit_search(self, g: Emitter, prefix: str, parent_pos, axis_exprs: Mapping[int, str]) -> str:
        # search *within* the parent diagonal: (i, j) lies on diagonal t iff
        # j - i equals its offset and i falls inside the stored run.  The
        # search must be parent-relative — the planner always enumerates the
        # internal diagonal level first, so a full-key find here would hit
        # the same entry once per diagonal and reductions would over-count.
        t = parent_pos
        g.open(f"if {axis_exprs[1]} - ({axis_exprs[0]}) != {prefix}_offsets[{t}]:")
        g.emit("continue")
        g.close()
        p = g.fresh("p")
        g.emit(f"{p} = {prefix}_dptr[{t}] + (({axis_exprs[0]}) - {prefix}_first[{t}])")
        g.open(f"if {p} < {prefix}_dptr[{t}] or {p} >= {prefix}_dptr[{t} + 1]:")
        g.emit("continue")
        g.close()
        return p


class DiagonalMatrix(Format):
    """Diagonal (skyline-by-diagonal) storage."""

    format_name = "Diagonal"

    def __init__(self, shape, offsets, dptr, first, vals):
        self._shape = check_shape(shape, 2)
        self.offsets = np.asarray(offsets, dtype=np.int64)
        self.dptr = np.asarray(dptr, dtype=np.int64)
        self.first = np.asarray(first, dtype=np.int64)
        self.vals = np.asarray(vals, dtype=np.float64)
        if len(self.dptr) != len(self.offsets) + 1:
            raise FormatError("dptr length must be ndiag + 1")
        if len(self.first) != len(self.offsets):
            raise FormatError("first length must equal ndiag")
        if len(self.offsets) > 1 and np.any(np.diff(self.offsets) <= 0):
            raise FormatError("offsets must be strictly increasing")
        if self.dptr[0] != 0 or self.dptr[-1] != len(self.vals):
            raise FormatError("dptr must start at 0 and end at len(vals)")
        lo = self.first
        hi = lo + np.diff(self.dptr)  # each run covers rows lo..hi-1, columns + offset
        (n0, n1), off = self._shape, self.offsets
        if ((hi < lo) | (lo < 0) | (hi > n0) | (lo + off < 0) | (hi + off > n1)).any():
            raise FormatError(f"a diagonal run leaves shape {self._shape}")

    @property
    def ndiag(self) -> int:
        return len(self.offsets)

    @property
    def stored_count(self) -> int:
        """Stored entries including explicit interior zeros."""
        return len(self.vals)

    @classmethod
    def from_coo(cls, coo: COOMatrix) -> "DiagonalMatrix":
        coo = coo.canonicalized()
        n, m = coo.shape
        # offset + n - 1 keys an (n + m)-long table: each diagonal's row span
        key = coo.col - coo.row + (n - 1)
        lo, hi = np.full(n + m, n), np.full(n + m, -1)
        np.minimum.at(lo, key, coo.row)
        np.maximum.at(hi, key, coo.row)
        (present,) = np.nonzero(hi >= 0)
        first = lo[present]
        dptr = segment_ptr(hi[present] - first + 1)
        base = np.zeros(n + m, dtype=np.int64)
        base[present] = dptr[:-1] - first
        key = base[key]
        key += coo.row
        vals = np.zeros(dptr[-1])
        vals[key] = coo.vals
        return cls(coo.shape, present - (n - 1), dptr, first, vals)

    def to_coo(self) -> COOMatrix:
        runs = np.diff(self.dptr)
        rows = segment_indices(self.first, runs)
        cols = rows + np.repeat(self.offsets, runs)
        # explicit interior zeros are a storage artifact, not structure
        return COOMatrix.from_entries(self._shape, rows, cols, self.vals).prune(0.0)

    @property
    def shape(self):
        return self._shape

    @property
    def nnz(self) -> int:
        return int(np.count_nonzero(self.vals))

    def levels(self):
        return (DiagOuterLevel(self), DiagRunLevel(self))

    def storage(self, prefix: str):
        return {
            f"{prefix}_offsets": self.offsets,
            f"{prefix}_dptr": self.dptr,
            f"{prefix}_first": self.first,
            f"{prefix}_vals": self.vals,
            f"{prefix}_ndiag": self.ndiag,
            f"{prefix}_n0": self._shape[0],
            f"{prefix}_n1": self._shape[1],
        }

    def emit_load(self, g, prefix, axis_vars, pos):
        return f"{prefix}_vals[{pos}]"

    def inner_vector_view(self, prefix, parent_pos):
        t = parent_pos
        return {
            "slice": (f"{prefix}_dptr[{t}]", f"{prefix}_dptr[{t} + 1]"),
            "index": {
                0: ("affine", f"{prefix}_first[{t}]"),
                1: ("affine", f"{prefix}_first[{t}] + {prefix}_offsets[{t}]"),
            },
            "vals": f"{prefix}_vals[{{s}}:{{e}}]",
        }
