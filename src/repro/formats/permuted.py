"""Permuted matrix views (paper Sec. 2.2, Eq. 6).

"Suppose rows of the matrix in our example have been permuted using P.
Then we can view A as a relation of ⟨i', j, a⟩ tuples and the query for
sparse matrix-vector product is σ_P( I ⋈ X ⋈ Y ⋈ P(i,i') ⋈ A(i',j,a) )."

:class:`PermutedMatrix` realizes the join with the permutation relation
*inside the access methods*: the stored matrix is indexed by permuted
indices, and the view translates on the fly —

* enumeration yields stored indices and maps them back through IPERM,
* searches map the requested view index through PERM first,
* vectorized views wrap the stored index arrays in an IPERM gather.

The wrapper composes with ANY position-based sparse format and needs no
compiler changes — the second extensibility demonstration (the first is
``examples/custom_format.py``).
"""

from __future__ import annotations

from typing import Mapping

import numpy as np

from repro.errors import FormatError
from repro.formats.base import AccessLevel, Emitter, Format
from repro.formats.coo import COOMatrix
from repro.formats.permutation import Permutation

__all__ = ["PermutedMatrix"]


class _PermutedLevel(AccessLevel):
    """Wraps a base level, translating permuted axes through PERM/IPERM."""

    def __init__(self, inner: AccessLevel, permuted_axes: frozenset[int]):
        self._inner = inner
        self._permuted = permuted_axes
        self.binds = inner.binds
        self.enumerable = inner.enumerable
        self.searchable = inner.searchable
        self.dense = inner.dense
        self.search_cost = inner.search_cost + 1.0
        # translation destroys sortedness on permuted axes
        self.sorted_enum = inner.sorted_enum and not (
            set(inner.binds) & permuted_axes
        )
        self.mergeable = False

    def avg_fanout(self) -> float:
        return self._inner.avg_fanout()

    def emit_enumerate(self, g: Emitter, prefix: str, parent_pos, axis_vars: Mapping[int, str]) -> str:
        inner_vars: dict[int, str] = {}
        translate: list[tuple[int, str, str]] = []
        for a, v in axis_vars.items():
            if a in self._permuted:
                tmp = g.fresh(f"st_{v}")
                inner_vars[a] = tmp
                translate.append((a, tmp, v))
            else:
                inner_vars[a] = v
        pos = self._inner.emit_enumerate(g, prefix, parent_pos, inner_vars)
        for a, tmp, v in translate:
            g.emit(f"{v} = {prefix}_iperm{a}[{tmp}]")
        return pos

    def emit_search(self, g: Emitter, prefix: str, parent_pos, axis_exprs: Mapping[int, str]) -> str:
        inner_exprs = {
            a: (f"{prefix}_perm{a}[{e}]" if a in self._permuted else e)
            for a, e in axis_exprs.items()
        }
        return self._inner.emit_search(g, prefix, parent_pos, inner_exprs)


class PermutedMatrix(Format):
    """A sparse matrix viewed through row/column permutations.

    ``view[i, j] == stored[row_perm(i), col_perm(j)]``.  The base format
    must load values by *position* (every sparse format here does; dense
    formats are excluded — permute those with numpy directly).
    """

    format_name = "Permuted"

    def __init__(self, base: Format, row_perm: Permutation | None = None, col_perm: Permutation | None = None):
        if base.structurally_dense:
            raise FormatError("PermutedMatrix wraps sparse (position-based) formats")
        if base.ndim != 2:
            raise FormatError("PermutedMatrix wraps matrices")
        if row_perm is not None and len(row_perm) != base.shape[0]:
            raise FormatError("row permutation size mismatch")
        if col_perm is not None and len(col_perm) != base.shape[1]:
            raise FormatError("column permutation size mismatch")
        self.base = base
        self.perms: dict[int, Permutation] = {}
        if row_perm is not None:
            self.perms[0] = row_perm
        if col_perm is not None:
            self.perms[1] = col_perm
        self._axes = frozenset(self.perms)
        self.value_keys = base.value_keys
        # the generated code depends on the wrapped format AND on which
        # axes go through PERM/IPERM — two views differing in either must
        # not share a cached kernel
        self._spec = (type(self).__qualname__, base.spec(), tuple(sorted(self._axes)))

    @classmethod
    def build(cls, base_cls, coo: COOMatrix, row_perm: Permutation | None = None, col_perm: Permutation | None = None):
        """Store ``coo`` (given in VIEW coordinates) permuted, wrapped in
        the view that recovers the original indexing."""
        stored = coo.permuted(
            row_perm.perm if row_perm else None,
            col_perm.perm if col_perm else None,
        )
        return cls(base_cls.from_coo(stored), row_perm, col_perm)

    # ------------------------------------------------------------------
    @property
    def shape(self):
        return self.base.shape

    @property
    def nnz(self) -> int:
        return self.base.nnz

    def levels(self):
        return tuple(
            _PermutedLevel(lv, self._axes & set(lv.binds)) if (self._axes & set(lv.binds)) else lv
            for lv in self.base.levels()
        )

    def spec(self) -> tuple:
        return self._spec

    def storage(self, prefix: str):
        out = dict(self.base.storage(prefix))
        for a, p in self.perms.items():
            out[f"{prefix}_perm{a}"] = p.perm
            out[f"{prefix}_iperm{a}"] = p.iperm
        return out

    def emit_load(self, g, prefix, axis_vars, pos):
        # position-based load: axis variables are irrelevant to the base
        return self.base.emit_load(g, prefix, {}, pos)

    def inner_vector_view(self, prefix, parent_pos):
        view = self.base.inner_vector_view(prefix, parent_pos)
        if view is None:
            return None
        out = dict(view)
        index = dict(view.get("index", {}))
        unique = set(view.get("unique_axes", frozenset()))
        for a in list(index):
            if a in self._axes:
                kind, payload = index[a]
                if kind == "affine":
                    payload = f"np.arange({payload}, {payload} + ({{e}} - {{s}}))"
                elif kind == "prefix":
                    payload = f"{payload}[:({{e}} - {{s}})]"
                index[a] = ("gather", f"{prefix}_iperm{a}[{payload}]")
                # a bijection preserves duplicate-freedom
        out["index"] = index
        out["unique_axes"] = frozenset(unique)
        return out

    def to_coo(self) -> COOMatrix:
        stored = self.base.to_coo()
        return stored.permuted(
            self.perms[0].iperm if 0 in self.perms else None,
            self.perms[1].iperm if 1 in self.perms else None,
        )

    def to_dense(self) -> np.ndarray:
        return self.to_coo().to_dense()
