"""Reusable compressed access levels shared by CRS/CCS/CCCS and friends.

A *compressed* level stores, for each parent position ``q``, a contiguous
segment ``ptr[q] : ptr[q+1]`` of an index array.  This is the classic
"pointer + index" building block of sparse formats; the paper's CCS
description ``J -> (I, V)`` is a dense column level above a compressed row
level.
"""

from __future__ import annotations

from typing import Mapping

from repro.errors import FormatError
from repro.formats.base import AccessLevel, Emitter

__all__ = ["CompressedLevel", "CompressedOuterLevel"]


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
