"""Dense-block storage: one matrix stored as a list of small dense blocks.

I-nodes (paper Fig. 2(c)), BlockSolve's clique blocks (Fig. 2(b)) and the
dense windows of a hybrid plan store the same thing: block ``t`` is
``nrows[t] × ncols[t]``, its values lie row-major at
``vals[voff[t] : voff[t+1]]``.  They differ only in *where* a block's rows
and columns are, and each format says that once, as a :class:`BlockLayout`:
per axis, the block's start and extent — read as matrix indices, or as
positions into an index list (i-node rows and columns).

:class:`BlockFormat` derives everything else from that description:

* one access hierarchy ``blocks → rows → columns`` for the compiler,
* the whole format's block view
  (:meth:`~repro.formats.base.Format.inner_block_view`),
* ``storage()``, ``nnz``, ``to_coo()``,
* :meth:`BlockFormat.matvec`, the hand-written library product.  It runs
  the block-GEMV lowering's plan — :func:`block_groups`, blocks grouped by
  shape — and caches that grouping (indices), never values.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Mapping

import numpy as np

from repro.formats.base import AccessLevel, Emitter, Format
from repro.formats.coo import COOMatrix, segment_indices

__all__ = ["Axis", "BlockLayout", "BlockFormat", "block_groups", "block_of"]

#: a dense block of at least this many values gets its own BLAS gemv: one
#: Python-level trip per block (~5 µs) then costs less than copying the
#: block's values into a batch (~0.7 ns each) would
_GEMV_BLOCK = 4096
#: blocks averaging fewer values than this print the scalar nest (run as C),
#: not ``block-gemv``: the measured per-value curves cross between 13² and 14²
_SMALL_BLOCK = 196


def block_of(ptr) -> np.ndarray:
    """The block of every index of ``[0, ptr[-1])`` under the partition ``ptr``."""
    ptr = np.asarray(ptr, dtype=np.int64)
    return np.repeat(np.arange(len(ptr) - 1), np.diff(ptr))


def block_groups(nrows, ncols, voff, rstart, ridx, cstart, cidx):
    """Group a format's dense blocks by shape: the runtime support of the
    block-GEMV lowering (called from the generated ``prepare``) and of
    :meth:`BlockFormat.matvec`.

    Block ``t`` is ``nrows[t] × ncols[t]``, stored row-major from
    ``voff[t]``; its rows are ``rstart[t] + arange(nrows[t])``, looked up
    through ``ridx`` unless that is None (likewise columns).  Blocks of one
    shape ``(r, c)`` form one batch of ``T``; a block of ``_GEMV_BLOCK``
    values or more is a batch of its own.  Zero-area blocks carry no work.
    Returns per batch the tuple ``(R, C, V, shape, add_at)`` that a product
    consumes as ``vals[V].reshape(shape)``, ``x[C]`` and a scatter into
    ``y[R]``:

    * ``R`` ``(T, r)`` and ``C`` ``(T, c)`` — row and column gather tensors,
    * ``V`` — a slice of the value array when the batch's blocks are
      adjacent in storage (a view, no copy), else a ``(T, r*c)`` gather index,
    * ``shape`` — ``(T, r, c)``; a one-block batch drops the leading axis
      (``(r, c)``, 1-D ``R``/``C``): its product is one gemv on a view,
    * ``add_at`` — some row occurs twice in ``R``: the scatter must
      accumulate (``np.add.at``), not ``+=``.

    Indices only — never a copy of values."""
    nrows, ncols, voff = np.asarray(nrows), np.asarray(ncols), np.asarray(voff)
    live = np.flatnonzero((nrows > 0) & (ncols > 0))
    key = nrows[live] * (ncols.max(initial=0) + 1) + ncols[live]
    order = np.argsort(key, kind="stable")
    cuts = np.flatnonzero(np.diff(key[order])) + 1
    groups = []
    for same in np.split(live[order], cuts) if len(live) else ():
        r, c = int(nrows[same[0]]), int(ncols[same[0]])
        for ts in same[:, None] if r * c >= _GEMV_BLOCK else [same]:
            R = rstart[ts][:, None] + np.arange(r)
            C = cstart[ts][:, None] + np.arange(c)
            R = R if ridx is None else ridx[R]
            C = C if cidx is None else cidx[C]
            v0 = voff[ts]
            if (np.diff(v0) == r * c).all():
                V = slice(int(v0[0]), int(v0[0]) + len(ts) * r * c)
            else:
                V = v0[:, None] + np.arange(r * c)
            flat = np.sort(R, axis=None)
            add_at = bool((flat[1:] == flat[:-1]).any())
            if len(ts) == 1:
                groups.append((R[0], C[0], V, (r, c), add_at))
            else:
                groups.append((R, C, V, (len(ts), r, c), add_at))
    return groups


@dataclass(frozen=True)
class Axis:
    """Where one axis of every block lies.  Fields name attributes of the
    format (and so its ``storage()`` keys).

    Block ``t`` covers the positions ``start[t] + arange(extent[t])`` of
    this axis — matrix indices themselves, or positions into the ``index``
    list when one is named.  Without ``extent``, ``start`` is a pointer
    array and the extents are its differences."""

    start: str
    extent: str | None = None
    index: str | None = None

    def arrays(self, fmt: "BlockFormat"):
        """``(start, extents, index or None)`` of ``fmt``, one start and
        extent per block."""
        start = getattr(fmt, self.start)
        extents = np.diff(start) if self.extent is None else getattr(fmt, self.extent)
        return start[: len(extents)], extents, self.index and getattr(fmt, self.index)

    def extents_expr(self, prefix: str) -> str:
        return f"{prefix}_{self.extent}" if self.extent else f"np.diff({prefix}_{self.start})"

    def emit_span(self, g: Emitter, prefix: str, t: str, names: tuple[str, str]):
        """Bind block ``t``'s start and extent to fresh variables."""
        s, n = (g.fresh(b) for b in names)
        g.emit(f"{s} = {prefix}_{self.start}[{t}]")
        end = f"{prefix}_{self.start}[{t} + 1] - {s}"
        g.emit(f"{n} = {prefix}_{self.extent}[{t}]" if self.extent else f"{n} = {end}")
        return s, n

    def at(self, prefix: str, pos: str) -> str:
        """The matrix index at position ``pos`` of this axis."""
        return f"{prefix}_{self.index}[{pos}]" if self.index else pos


@dataclass(frozen=True)
class BlockLayout:
    """A dense-block format's description: ``count`` names the number of
    blocks; ``rows`` and ``cols`` place them."""

    count: str
    rows: Axis
    cols: Axis


def _mean_extent(extents) -> float:
    return max(1.0, float(np.mean(extents))) if len(extents) else 1.0


class _BlockLevel(AccessLevel):
    """Enumerate the blocks (internal index; binds no axis).  Every level
    enumerates in order and cannot search."""

    binds = ()

    def __init__(self, owner: "BlockFormat"):
        self._owner = owner

    def avg_fanout(self) -> float:
        return float(max(1, getattr(self._owner, self._owner.layout.count)))

    def emit_enumerate(self, g: Emitter, prefix: str, parent_pos, axis_vars: Mapping[int, str]) -> str:
        t = g.fresh("t")
        g.open(f"for {t} in range({prefix}_{self._owner.layout.count}):")
        return t


class _RowLevel(_BlockLevel):
    """Rows of one block.  The position it returns is the compound
    ``"base:cs:nc"`` — the row's offset in ``vals``, the block's column
    start and width — which only the column level reads."""

    binds = (0,)

    def avg_fanout(self) -> float:
        return _mean_extent(self._owner.layout.rows.arrays(self._owner)[1])

    def emit_enumerate(self, g: Emitter, prefix: str, parent_pos, axis_vars: Mapping[int, str]) -> str:
        t, layout = parent_pos, self._owner.layout
        cs, nc = layout.cols.emit_span(g, prefix, t, ("cs", "nc"))
        rs, nr = layout.rows.emit_span(g, prefix, t, ("rs", "nr"))
        r = g.fresh("r")
        g.open(f"for {r} in range({rs}, {rs} + {nr}):")
        if 0 in axis_vars:
            g.emit(f"{axis_vars[0]} = {layout.rows.at(prefix, r)}")
        base = g.fresh("base")
        g.emit(f"{base} = {prefix}_voff[{t}] + ({r} - {rs}) * {nc}")
        return f"{base}:{cs}:{nc}"


class _ColLevel(_BlockLevel):
    """Columns of one block row."""

    binds = (1,)

    def avg_fanout(self) -> float:
        return _mean_extent(self._owner.layout.cols.arrays(self._owner)[1])

    def emit_enumerate(self, g: Emitter, prefix: str, parent_pos, axis_vars: Mapping[int, str]) -> str:
        base, cs, nc = parent_pos.split(":")
        c = g.fresh("c")
        g.open(f"for {c} in range({cs}, {cs} + {nc}):")
        if 1 in axis_vars:
            g.emit(f"{axis_vars[1]} = {self._owner.layout.cols.at(prefix, c)}")
        return f"{base} + ({c} - {cs})"


class BlockFormat(Format):
    """Base of the dense-block formats.  A subclass sets :attr:`layout`,
    stores ``_shape``, ``vals``, ``voff`` and the arrays the layout names,
    and validates them in its constructor."""

    layout: BlockLayout
    #: blocks are padded with zeros: a stored zero is no entry
    padded: bool = True

    @property
    def shape(self):
        return self._shape

    @property
    def nnz(self) -> int:
        return int(np.count_nonzero(self.vals)) if self.padded else len(self.vals)

    @property
    def stored_count(self) -> int:
        return len(self.vals)

    def levels(self):
        return (_BlockLevel(self), _RowLevel(self), _ColLevel(self))

    def storage(self, prefix: str):
        rows, cols = self.layout.rows, self.layout.cols
        fields = (rows.index, rows.start, rows.extent, cols.index, cols.start, cols.extent)
        names = dict.fromkeys(f for f in fields if f)  # ordered, no repeats
        names.update(dict.fromkeys(("vals", "voff", self.layout.count)))
        return {
            **{f"{prefix}_{f}": getattr(self, f) for f in names},
            f"{prefix}_n0": self._shape[0],
            f"{prefix}_n1": self._shape[1],
        }

    def emit_load(self, g, prefix, axis_vars, pos):
        return f"{prefix}_vals[{pos}]"

    @property
    def small_blocks(self) -> bool:
        """The blocks average under ``_SMALL_BLOCK`` values: no block view."""
        return len(self.vals) < _SMALL_BLOCK * getattr(self, self.layout.count)

    def spec(self) -> tuple:
        return (type(self).__qualname__, self.small_blocks)  # it picks the print

    def inner_block_view(self, prefix):
        if self.small_blocks:
            return None
        rows, cols = self.layout.rows, self.layout.cols
        return {
            "nrows": rows.extents_expr(prefix),
            "ncols": cols.extents_expr(prefix),
            "rows": (f"{prefix}_{rows.start}", rows.index and f"{prefix}_{rows.index}"),
            "cols": (f"{prefix}_{cols.start}", cols.index and f"{prefix}_{cols.index}"),
            "voff": f"{prefix}_voff",
            "vals": f"{prefix}_vals",
        }

    def _value_positions(self) -> tuple[np.ndarray, np.ndarray]:
        """Per stored value, its position on the row axis and on the column
        axis (before any index-list lookup): values run block by block,
        row by row."""
        (rs, nr, _), (cs, nc, _) = self.layout.rows.arrays(self), self.layout.cols.arrays(self)
        width = np.repeat(nc, nr)  # per stored row
        return np.repeat(segment_indices(rs, nr), width), segment_indices(np.repeat(cs, nr), width)

    def to_coo(self) -> COOMatrix:
        (row, col), keep = self._value_positions(), self.vals != 0 if self.padded else slice(None)
        (_, _, ri), (_, _, ci) = self.layout.rows.arrays(self), self.layout.cols.arrays(self)
        row, col = row if ri is None else ri[row], col if ci is None else ci[col]
        return COOMatrix.from_entries(self._shape, row[keep], col[keep], self.vals[keep])

    @cached_property
    def groups(self) -> list:
        """:func:`block_groups` of this format's blocks (structure: built
        once per instance)."""
        (rs, nr, ri), (cs, nc, ci) = self.layout.rows.arrays(self), self.layout.cols.arrays(self)
        return block_groups(nr, nc, self.voff, rs, ri, cs, ci)

    def matvec(self, x: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
        """y (+)= A·x: per group of same-shape blocks one batched dense
        product and one scatter — the block-GEMV lowering's plan, reading
        ``vals`` afresh at every call."""
        x = np.asarray(x)
        y = out if out is not None else np.zeros(self._shape[0])
        for R, C, V, shape, add_at in self.groups:
            yb = np.einsum("...ij,...j->...i", self.vals[V].reshape(shape), x[C])
            if add_at:
                np.add.at(y, R, yb)
            else:
                y[R] += yb
        return y
