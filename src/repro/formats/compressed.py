"""Compressed formats as level lists: the levels and the one base they share.

A *compressed* level stores, for each parent position ``q``, a contiguous
segment ``ptr[q] : ptr[q+1]`` of an index array.  This is the classic
"pointer + index" building block of sparse formats; the paper's CCS
description ``J -> (I, V)`` is a dense column level above a compressed row
level.

A :class:`LevelFormat` is that description and nothing else: CRS is
``LEVELS = (DenseAxis(0), Compressed(1, "rowptr", "colind"))``.  From the
list the base derives the constructor, ``validate``, ``from_coo`` /
``to_coo``, ``levels()``, ``storage()`` and ``emit_load`` (Chou et al.'s
level formats, restricted to the levels that exist here).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping

import numpy as np

from repro.errors import FormatError
from repro.formats.base import AccessLevel, Emitter, Format, check_segments, check_shape, index_array, index_width
from repro.formats.coo import COOMatrix
from repro.formats.dense import DenseAxisLevel

__all__ = ["Compressed", "CompressedLevel", "CompressedOuterLevel", "DenseAxis", "LevelFormat", "Stored"]


class CompressedLevel(AccessLevel):
    """Inner compressed level: segment of ``idx`` under each parent position.

    Parameters
    ----------
    axis:
        The matrix axis this level binds.
    ptr_name, idx_name:
        Storage-array suffixes (``"rowptr"``/``"colind"`` for CRS).  The
        owning format's ``storage()`` must provide ``{prefix}_{ptr_name}``
        and ``{prefix}_{idx_name}``.
    fanout:
        Average segment length (cost model).
    sorted_within:
        Indices within each segment are increasing (enables binary search
        and merge joins).
    """

    searchable = True
    dense = False

    def __init__(self, axis: int, ptr_name: str, idx_name: str, fanout: float, sorted_within: bool = True):
        self.binds = (axis,)
        self.axis = axis
        self.ptr_name = ptr_name
        self.idx_name = idx_name
        self._fanout = float(fanout)
        self.sorted_enum = bool(sorted_within)
        self.searchable = bool(sorted_within)
        self.search_cost = 8.0

    def avg_fanout(self) -> float:
        return self._fanout

    def emit_enumerate(self, g: Emitter, prefix: str, parent_pos, axis_vars: Mapping[int, str]) -> str:
        if parent_pos is None:
            raise FormatError("compressed level needs a parent position")
        p = g.fresh("p")
        ptr = f"{prefix}_{self.ptr_name}"
        g.open(f"for {p} in range({ptr}[{parent_pos}], {ptr}[{parent_pos} + 1]):")
        g.emit(f"{axis_vars[self.axis]} = {prefix}_{self.idx_name}[{p}]")
        return p

    def emit_search(self, g: Emitter, prefix: str, parent_pos, axis_exprs: Mapping[int, str]) -> str:
        if not self.searchable:
            raise FormatError("unsorted compressed level is not searchable")
        ptr = f"{prefix}_{self.ptr_name}"
        key = (f"{prefix}_{self.idx_name}[{{}}]", axis_exprs[self.axis])
        return g.search(f"{ptr}[{parent_pos}]", f"{ptr}[{parent_pos} + 1]", [key])


class CompressedOuterLevel(AccessLevel):
    """Outermost compressed level: enumerate only the *stored* indices of an
    axis (e.g. CCCS's COLIND array of nonempty columns).

    Storage contract: ``{prefix}_{idx_name}`` (the stored indices, sorted)
    and ``{prefix}_{count_name}`` (how many).
    """

    searchable = True
    sorted_enum = True
    dense = False
    search_cost = 8.0

    def __init__(self, axis: int, idx_name: str, count_name: str, fanout: float):
        self.binds = (axis,)
        self.axis = axis
        self.idx_name = idx_name
        self.count_name = count_name
        self._fanout = float(fanout)

    def avg_fanout(self) -> float:
        return self._fanout

    def emit_enumerate(self, g: Emitter, prefix: str, parent_pos, axis_vars: Mapping[int, str]) -> str:
        p = g.fresh("q")
        g.open(f"for {p} in range({prefix}_{self.count_name}):")
        g.emit(f"{axis_vars[self.axis]} = {prefix}_{self.idx_name}[{p}]")
        return p

    def emit_search(self, g: Emitter, prefix: str, parent_pos, axis_exprs: Mapping[int, str]) -> str:
        key = (f"{prefix}_{self.idx_name}[{{}}]", axis_exprs[self.axis])
        return g.search("0", f"{prefix}_{self.count_name}", [key])


# The records of a LEVELS list.  Each names its index arrays (``arrays``,
# in constructor order), checks them under the level above's ``parent``
# positions and builds its AccessLevel.  DenseAxis and Stored are outermost.
@dataclass(frozen=True)
class DenseAxis:
    """Every index ``0 .. extent-1`` of ``axis``; no arrays."""

    axis: int
    arrays = ()

    def check(self, fmt, parent: int) -> None:
        pass

    def level(self, fmt, parent: int) -> AccessLevel:
        return DenseAxisLevel(self.axis, fmt.shape[self.axis])


@dataclass(frozen=True)
class Stored:
    """The sorted stored indices ``idx`` of ``axis``, and the storage scalar
    ``count`` of them; ``kind`` is the AccessLevel class that reads them."""

    axis: int
    idx: str
    count: str
    kind: type = CompressedOuterLevel
    arrays = property(lambda self: (self.idx,))

    def check(self, fmt, parent: int) -> None:
        idx = getattr(fmt, self.idx)  # the stored indices are one segment
        check_segments(np.array([0, len(idx)]), idx, fmt.shape[self.axis], self.idx)

    def level(self, fmt, parent: int) -> AccessLevel:
        return self.kind(self.axis, self.idx, self.count, fanout=len(getattr(fmt, self.idx)))


@dataclass(frozen=True)
class Compressed:
    """Under parent position ``q``, the sorted segment ``ptr[q] : ptr[q+1]``
    of ``idx``."""

    axis: int
    ptr: str
    idx: str
    arrays = property(lambda self: (self.ptr, self.idx))

    def check(self, fmt, parent: int) -> None:
        ptr, idx = getattr(fmt, self.ptr), getattr(fmt, self.idx)
        if len(ptr) != parent + 1:
            raise FormatError(f"{self.ptr} length {len(ptr)} != {parent} parent positions + 1")
        if ptr[0] != 0 or ptr[-1] != len(idx):
            raise FormatError(f"{self.ptr} must start at 0 and end at len({self.idx}) = {len(idx)}")
        check_segments(ptr, idx, fmt.shape[self.axis], self.idx)

    def level(self, fmt, parent: int) -> AccessLevel:
        return CompressedLevel(self.axis, self.ptr, self.idx, fanout=len(getattr(fmt, self.idx)) / max(1, parent))


class LevelFormat(Format):
    """A format that is its ``LEVELS`` list, outermost first, one level per
    axis.  The constructor takes ``(shape, *level arrays, vals)``: each
    record's ``arrays`` in level order, then the values."""

    LEVELS: tuple = ()

    def __init_subclass__(cls, **kwargs):
        super().__init_subclass__(**kwargs)
        cls.ARRAYS = tuple(a for rec in cls.LEVELS for a in rec.arrays) + ("vals",)

    def __init__(self, shape, *arrays):
        if len(arrays) != len(self.ARRAYS):
            raise TypeError(f"{type(self).__name__}(shape, {', '.join(self.ARRAYS)}): got {len(arrays)} arrays")
        self._shape = check_shape(shape if np.iterable(shape) else (shape,), len(self.LEVELS))
        self.vals = np.asarray(arrays[-1], dtype=np.float64)
        width = index_width(self._shape, len(self.vals))
        for name, arr in zip(self.ARRAYS, arrays[:-1]):
            setattr(self, name, index_array(arr, width))
        self.validate()

    def _positions(self, rec) -> int:
        """How many positions ``rec`` has: its index array's length, or a
        dense axis's extent."""
        return len(getattr(self, rec.arrays[-1])) if rec.arrays else self._shape[rec.axis]

    def validate(self) -> None:
        parent = 1
        for rec in self.LEVELS:
            rec.check(self, parent)
            parent = self._positions(rec)
        if len(self.vals) != parent:
            raise FormatError(f"vals length {len(self.vals)} != {parent} stored positions")

    def levels(self):
        out, parent = [], 1
        for rec in self.LEVELS:
            out.append(rec.level(self, parent))
            parent = self._positions(rec)
        return tuple(out)

    def storage(self, prefix: str):
        out = {f"{prefix}_{a}": getattr(self, a) for a in self.ARRAYS}
        out.update({f"{prefix}_{r.count}": self._positions(r) for r in self.LEVELS if isinstance(r, Stored)})
        out.update({f"{prefix}_n{a}": n for a, n in enumerate(self._shape)})
        return out

    def emit_load(self, g, prefix, axis_vars, pos):
        return f"{prefix}_vals[{pos}]"

    @property
    def shape(self):
        return self._shape

    @property
    def nnz(self) -> int:
        return len(self.vals)

    # ------------------------------------------------------------------
    # COO conversion: an outer DenseAxis or Stored level over a Compressed one
    # ------------------------------------------------------------------
    @classmethod
    def _outer_inner(cls):
        if len(cls.LEVELS) != 2:
            raise FormatError(f"{cls.__name__} is not a matrix format: it has no COO form")
        return cls.LEVELS

    @classmethod
    def from_coo(cls, coo: COOMatrix) -> "LevelFormat":
        outer, inner = cls._outer_inner()
        coo = coo.canonicalized()
        width = index_width(coo.shape, coo.nnz)
        keys, entries = (coo.row, coo.col)[outer.axis], (coo.row, coo.col)[inner.axis]
        if outer.axis == 0:  # canonical COO is already row-major with sorted columns per row
            idx, vals = entries.astype(width), coo.vals.copy()
        else:
            order = np.lexsort((entries, keys))
            idx, vals = entries[order].astype(width, copy=False), coo.vals[order]
        counts, head = np.bincount(keys, minlength=coo.shape[outer.axis]), ()
        if outer.arrays:  # the sorted stored outer indices, by a count
            head = (np.flatnonzero(counts),)
            counts = counts[head[0]]
        ptr = np.zeros(len(counts) + 1, dtype=width)
        np.cumsum(counts, out=ptr[1:])
        return cls(coo.shape, *head, ptr, idx, vals)

    def to_coo(self) -> COOMatrix:
        outer, inner = self._outer_inner()
        keys = getattr(self, outer.idx) if outer.arrays else np.arange(self._shape[outer.axis])
        coords = [None, None]
        coords[outer.axis] = np.repeat(keys, np.diff(getattr(self, inner.ptr)))
        coords[inner.axis] = getattr(self, inner.idx)
        if outer.axis == 0:
            return COOMatrix(self._shape, *coords, self.vals, canonical=True)
        return COOMatrix.from_entries(self._shape, *coords, self.vals)
