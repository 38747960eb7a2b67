"""Jagged Diagonal (JDIAG) storage — Table 1's "JDiag" (Saad [18]).

Rows are permuted by decreasing row length; the d-th *jagged diagonal*
collects the d-th stored entry of every (permuted) row that has one, giving
long contiguous vectors even when row lengths vary — the classic format for
vector machines.

This format embeds an index translation (paper Sec. 2.2): the stored row
position r is a *permuted* index, and the view exposes the original row
``i = PERM(r)``.  The access methods hide the translation, exactly the
"relations are views of the data structures" discipline.

Storage arrays:

* ``perm``   — permuted position -> original row index,
* ``jdptr``  — ``njd + 1`` pointers into jdcol/jdval,
* ``jdcol``, ``jdval`` — the jagged diagonals, concatenated.
"""

from __future__ import annotations

from typing import Mapping

import numpy as np

from repro.errors import FormatError
from repro.formats.base import AccessLevel, Emitter, Format, check_shape, is_permutation
from repro.formats.coo import COOMatrix, segment_indices, segment_ptr

__all__ = ["JaggedDiagonalMatrix", "JDOuterLevel", "JDRunLevel"]


class JDOuterLevel(AccessLevel):
    """Enumerate jagged diagonals (internal index; binds no loop axis)."""

    binds = ()
    searchable = False
    sorted_enum = True
    dense = False

    def __init__(self, owner: "JaggedDiagonalMatrix"):
        self._owner = owner

    def avg_fanout(self) -> float:
        return float(max(1, self._owner.njd))

    def emit_enumerate(self, g: Emitter, prefix: str, parent_pos, axis_vars: Mapping[int, str]) -> str:
        d = g.fresh("d")
        g.open(f"for {d} in range({prefix}_njd):")
        return d


class JDRunLevel(AccessLevel):
    """Entries of one jagged diagonal: permuted rows 0..len_d-1."""

    binds = (0, 1)
    searchable = False  # enumeration-only, like the real JDIAG kernels
    sorted_enum = False  # i follows the permutation: unsorted
    dense = False

    def __init__(self, owner: "JaggedDiagonalMatrix"):
        self._owner = owner

    def avg_fanout(self) -> float:
        nd = max(1, self._owner.njd)
        return self._owner.nnz / nd

    def emit_enumerate(self, g: Emitter, prefix: str, parent_pos, axis_vars: Mapping[int, str]) -> str:
        p = g.fresh("p")
        g.open(f"for {p} in range({prefix}_jdptr[{parent_pos}], {prefix}_jdptr[{parent_pos} + 1]):")
        if 0 in axis_vars:
            g.emit(f"{axis_vars[0]} = {prefix}_perm[{p} - {prefix}_jdptr[{parent_pos}]]")
        if 1 in axis_vars:
            g.emit(f"{axis_vars[1]} = {prefix}_jdcol[{p}]")
        return p


class JaggedDiagonalMatrix(Format):
    """Jagged Diagonal storage."""

    format_name = "JDiag"
    value_keys = ("jdval",)

    def __init__(self, shape, perm, jdptr, jdcol, jdval):
        self._shape = check_shape(shape, 2)
        self.perm = np.asarray(perm, dtype=np.int64)
        self.jdptr = np.asarray(jdptr, dtype=np.int64)
        self.jdcol = np.asarray(jdcol, dtype=np.int64)
        self.jdval = np.asarray(jdval, dtype=np.float64)
        if len(self.perm) != self._shape[0]:
            raise FormatError("perm must have one entry per row")
        if not is_permutation(self.perm):
            raise FormatError("perm is not a permutation of the rows")
        if len(self.jdptr) == 0 or self.jdptr[0] != 0 or self.jdptr[-1] != len(self.jdval):
            raise FormatError("jdptr must start at 0 and end at nnz")
        lens = np.diff(self.jdptr)
        if len(lens) and (lens[-1] < 0 or lens[0] > len(self.perm) or (lens[1:] > lens[:-1]).any()):
            raise FormatError("jagged diagonal lengths must be non-increasing, in [0, nrows]")
        if len(self.jdcol) != len(self.jdval):
            raise FormatError("jdcol/jdval length mismatch")
        if len(self.jdcol) and (self.jdcol.min() < 0 or self.jdcol.max() >= self._shape[1]):
            raise FormatError(f"jdcol out of bounds for shape {self._shape}")

    @property
    def njd(self) -> int:
        return len(self.jdptr) - 1

    @classmethod
    def from_coo(cls, coo: COOMatrix) -> "JaggedDiagonalMatrix":
        coo = coo.canonicalized()
        counts = coo.row_counts()
        perm = np.argsort(-counts, kind="stable").astype(np.int64)
        # lens[d] rows, the prefix perm[:lens[d]], are longer than d; slot k
        # of diagonal d holds entry d of row perm[k]
        lens = len(counts) - np.cumsum(np.bincount(counts))[:-1]
        pos = segment_indices(np.zeros_like(lens), lens)
        pos = segment_ptr(counts)[perm][pos]
        pos += np.repeat(np.arange(len(lens)), lens)
        return cls(coo.shape, perm, segment_ptr(lens), coo.col[pos], coo.vals[pos])

    def to_coo(self) -> COOMatrix:
        lens = np.diff(self.jdptr)
        rows = self.perm[segment_indices(np.zeros_like(lens), lens)]
        return COOMatrix.from_entries(self._shape, rows, self.jdcol, self.jdval)

    @property
    def shape(self):
        return self._shape

    @property
    def nnz(self) -> int:
        return len(self.jdval)

    def levels(self):
        return (JDOuterLevel(self), JDRunLevel(self))

    def storage(self, prefix: str):
        return {
            f"{prefix}_perm": self.perm,
            f"{prefix}_jdptr": self.jdptr,
            f"{prefix}_jdcol": self.jdcol,
            f"{prefix}_jdval": self.jdval,
            f"{prefix}_njd": self.njd,
            f"{prefix}_n0": self._shape[0],
            f"{prefix}_n1": self._shape[1],
        }

    def emit_load(self, g, prefix, axis_vars, pos):
        return f"{prefix}_jdval[{pos}]"

    def inner_vector_view(self, prefix, parent_pos):
        d = parent_pos
        return {
            "slice": (f"{prefix}_jdptr[{d}]", f"{prefix}_jdptr[{d} + 1]"),
            "index": {
                0: ("prefix", f"{prefix}_perm"),
                1: ("gather", f"{prefix}_jdcol[{{s}}:{{e}}]"),
            },
            "vals": f"{prefix}_jdval[{{s}}:{{e}}]",
            # each row occurs at most once per jagged diagonal
            "unique_axes": frozenset({0}),
        }
