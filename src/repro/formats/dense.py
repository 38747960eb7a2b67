"""Dense matrix and vector "formats".

Dense containers participate in the same access-method protocol as the
sparse formats — they are simply relations whose every index is present
(``structurally_dense``), enumerable in sorted order and searchable in O(1).
They are the only *writable* formats: compiled kernels store or accumulate
into dense outputs (the paper's y vector in y = A·x).
"""

from __future__ import annotations

from typing import Mapping

import numpy as np

from repro.errors import FormatError
from repro.formats.base import AccessLevel, Emitter, Format, check_shape

__all__ = ["DenseAxisLevel", "DenseMatrix", "DenseVector"]


def _emit_combine(g: Emitter, target: str, value_expr: str, op: str) -> None:
    """Combine a value into a scalar storage slot with a reduction op
    (``"="``: store it)."""
    if op == "=":
        g.emit(f"{target} = {value_expr}")
    elif op == "+":
        g.emit(f"{target} += {value_expr}")
    elif op == "*":
        g.emit(f"{target} *= {value_expr}")
    elif op in ("min", "max"):
        g.emit(f"{target} = {op}({target}, {value_expr})")
    else:
        raise FormatError(f"unknown reduction operator {op!r}")


class DenseAxisLevel(AccessLevel):
    """One dense axis: enumerate 0..extent-1; search is the identity."""

    enumerable = True
    searchable = True
    sorted_enum = True
    dense = True
    search_cost = 1.0

    def __init__(self, axis: int, extent: int):
        self.binds = (axis,)
        self.axis = axis
        self.extent = int(extent)

    def avg_fanout(self) -> float:
        return float(self.extent)

    def emit_enumerate(self, g: Emitter, prefix: str, parent_pos, axis_vars: Mapping[int, str]) -> str:
        v = axis_vars[self.axis]
        g.open(f"for {v} in range({prefix}_n{self.axis}):")
        return v

    def emit_search(self, g: Emitter, prefix: str, parent_pos, axis_exprs: Mapping[int, str]) -> str:
        # every index is present: the position *is* the index
        return axis_exprs[self.axis]


class DenseMatrix(Format):
    """A dense 2-D array wrapped in the format protocol."""

    format_name = "Dense"
    writable = True
    structurally_dense = True

    def __init__(self, vals):
        self.vals = np.ascontiguousarray(vals, dtype=np.float64)
        if self.vals.ndim != 2:
            raise FormatError("DenseMatrix expects a 2-D array")

    @classmethod
    def zeros(cls, nrows: int, ncols: int) -> "DenseMatrix":
        return cls(np.zeros((nrows, ncols)))

    @classmethod
    def from_coo(cls, coo) -> "DenseMatrix":
        return cls(coo.to_dense())

    def to_coo(self):
        from repro.formats.coo import COOMatrix

        return COOMatrix.from_dense(self.vals)

    def to_dense(self) -> np.ndarray:
        return self.vals

    @property
    def shape(self):
        return self.vals.shape

    @property
    def nnz(self) -> int:
        return int(np.count_nonzero(self.vals))

    def levels(self):
        return (
            DenseAxisLevel(0, self.vals.shape[0]),
            DenseAxisLevel(1, self.vals.shape[1]),
        )

    def storage(self, prefix: str):
        return {
            f"{prefix}_vals": self.vals,
            f"{prefix}_n0": self.vals.shape[0],
            f"{prefix}_n1": self.vals.shape[1],
        }

    def emit_load(self, g, prefix, axis_vars, pos):
        return f"{prefix}_vals[{axis_vars[0]}, {axis_vars[1]}]"

    def emit_store(self, g, prefix, axis_vars, pos, value_expr):
        g.emit(f"{prefix}_vals[{axis_vars[0]}, {axis_vars[1]}] = {value_expr}")

    def emit_accumulate(self, g, prefix, axis_vars, pos, value_expr, op="+"):
        _emit_combine(
            g, f"{prefix}_vals[{axis_vars[0]}, {axis_vars[1]}]", value_expr, op
        )


class DenseVector(Format):
    """A dense 1-D array wrapped in the format protocol."""

    format_name = "DenseVector"
    writable = True
    structurally_dense = True

    def __init__(self, vals):
        self.vals = np.ascontiguousarray(vals, dtype=np.float64)
        if self.vals.ndim != 1:
            raise FormatError("DenseVector expects a 1-D array")

    @classmethod
    def zeros(cls, n: int) -> "DenseVector":
        return cls(np.zeros(n))

    @property
    def shape(self):
        return self.vals.shape

    @property
    def nnz(self) -> int:
        return int(np.count_nonzero(self.vals))

    def levels(self):
        return (DenseAxisLevel(0, self.vals.shape[0]),)

    def storage(self, prefix: str):
        return {f"{prefix}_vals": self.vals, f"{prefix}_n0": self.vals.shape[0]}

    def emit_load(self, g, prefix, axis_vars, pos):
        return f"{prefix}_vals[{axis_vars[0]}]"

    def emit_store(self, g, prefix, axis_vars, pos, value_expr):
        g.emit(f"{prefix}_vals[{axis_vars[0]}] = {value_expr}")

    def emit_accumulate(self, g, prefix, axis_vars, pos, value_expr, op="+"):
        _emit_combine(g, f"{prefix}_vals[{axis_vars[0]}]", value_expr, op)

    def to_dense(self) -> np.ndarray:
        return self.vals

    def to_coo(self):
        raise FormatError("DenseVector is 1-D; no COO matrix form")
