"""A vector viewed through an index-translation relation (paper Sec. 2.2).

``TranslatedVector`` presents a *global* index space while storing values
in a compact local buffer: every access goes through ``map`` —
``x[j] == vals[map[j]]``.  This is exactly the data structure the paper's
*naive* (fully global) executor ends up with: "redundant global-to-local
translation ... introduces an extra level of indirection in the final code
even for the local references to x".  Compiled kernels gathering from a
TranslatedVector pay one extra gather per element — the measured ~10%
executor penalty of the Bernoulli (naive) column in Table 2.
"""

from __future__ import annotations

from typing import Mapping

import numpy as np

from repro.errors import FormatError
from repro.formats.base import AccessLevel, Emitter, Format, check_shape

__all__ = ["TranslatedVector"]


class _TranslatedAxisLevel(AccessLevel):
    """Dense global axis whose positions go through the translation map."""

    enumerable = True
    searchable = True
    sorted_enum = True
    dense = True
    search_cost = 2.0  # one extra indirection vs a direct dense axis

    def __init__(self, extent: int):
        self.binds = (0,)
        self.extent = int(extent)

    def avg_fanout(self) -> float:
        return float(self.extent)

    def emit_enumerate(self, g: Emitter, prefix: str, parent_pos, axis_vars: Mapping[int, str]) -> str:
        v = axis_vars[0]
        g.open(f"for {v} in range({prefix}_n0):")
        return v

    def emit_search(self, g: Emitter, prefix: str, parent_pos, axis_exprs: Mapping[int, str]) -> str:
        return axis_exprs[0]


class TranslatedVector(Format):
    """A dense global vector stored compactly behind a translation map.

    Parameters
    ----------
    nglobal:
        Extent of the global index space the view presents.
    vals:
        The compact value buffer (e.g. a ghost buffer).
    index_map:
        ``nglobal``-long array mapping global index -> buffer slot.
    """

    format_name = "TranslatedVector"
    writable = False
    structurally_dense = True

    def __init__(self, nglobal: int, vals, index_map):
        self._shape = check_shape((nglobal,), 1)
        self.vals = np.ascontiguousarray(vals, dtype=np.float64)
        self.map = np.ascontiguousarray(index_map, dtype=np.int64)
        self.validate()

    def validate(self) -> None:
        if self.vals.ndim != 1 or self.map.ndim != 1:
            raise FormatError("TranslatedVector expects 1-D vals and map")
        if len(self.map) != self._shape[0]:
            raise FormatError("index map must cover the global extent")
        if len(self.map) and len(self.vals) and (
            self.map.min() < 0 or self.map.max() >= len(self.vals)
        ):
            raise FormatError("index map points outside the value buffer")

    @property
    def shape(self):
        return self._shape

    @property
    def nnz(self) -> int:
        return int(np.count_nonzero(self.vals[self.map])) if len(self.map) else 0

    def levels(self):
        return (_TranslatedAxisLevel(self._shape[0]),)

    def storage(self, prefix: str):
        return {
            f"{prefix}_vals": self.vals,
            f"{prefix}_map": self.map,
            f"{prefix}_n0": self._shape[0],
        }

    def emit_load(self, g, prefix, axis_vars, pos):
        return f"{prefix}_vals[{prefix}_map[{axis_vars[0]}]]"

    def emit_load_vec(self, prefix, axis_exprs):
        # the extra level of indirection, in vector form
        return f"{prefix}_vals[{prefix}_map[{axis_exprs[0]}]]"

    def to_dense(self) -> np.ndarray:
        return self.vals[self.map]
