"""Dense rectangular windows at arbitrary offsets (region specialization).

:class:`BlockDiagonalMatrix` stores dense *diagonal* blocks: block b covers
rows and columns ``blockptr[b]:blockptr[b+1]``, so blocks must tile the
whole index range.  The region specializer (``repro.compiler.specialize``)
instead peels dense *windows* out of a hybrid matrix — a planted 600-wide
block at an arbitrary offset, say — and needs a format that stores a small
set of disjoint dense rectangles anywhere in the matrix, with everything
outside the windows owned by some other region.

Block b covers rows ``r0[b] : r0[b]+bh[b]`` and columns
``c0[b] : c0[b]+bw[b]`` and stores the full dense window row-major in
``vals[voff[b] : voff[b+1]]``.  Windows must be pairwise disjoint so the
block-GEMV lowering's scatter stays a plain ``+=`` (rows unique within a
block; across blocks the sub-kernels of a hybrid plan run sequentially).
"""

from __future__ import annotations

from typing import Mapping, Sequence

import numpy as np

from repro.errors import FormatError
from repro.formats.base import AccessLevel, Emitter, Format, check_shape
from repro.formats.coo import COOMatrix

__all__ = ["DenseBlocksMatrix"]


class _WindowOuterLevel(AccessLevel):
    binds = ()
    searchable = False
    dense = False

    def __init__(self, owner: "DenseBlocksMatrix"):
        self._owner = owner

    def avg_fanout(self) -> float:
        return float(max(1, self._owner.nblocks))

    def emit_enumerate(self, g: Emitter, prefix: str, parent_pos, axis_vars: Mapping[int, str]) -> str:
        b = g.fresh("b")
        g.open(f"for {b} in range({prefix}_nblocks):")
        return b


class _WindowRowLevel(AccessLevel):
    """Rows of one dense window.  Returns the compound position
    ``"base:b"`` interpreted only by the sibling column level."""

    binds = (0,)
    searchable = False
    sorted_enum = True
    dense = False

    def __init__(self, owner: "DenseBlocksMatrix"):
        self._owner = owner

    def avg_fanout(self) -> float:
        o = self._owner
        return max(1.0, float(np.mean(o.bh)) if o.nblocks else 1.0)

    def emit_enumerate(self, g: Emitter, prefix: str, parent_pos, axis_vars: Mapping[int, str]) -> str:
        b = parent_pos
        h, w = g.fresh("h"), g.fresh("w")
        g.emit(f"{h} = {prefix}_bh[{b}]")
        g.emit(f"{w} = {prefix}_bw[{b}]")
        rr = g.fresh("rr")
        g.open(f"for {rr} in range({h}):")
        if 0 in axis_vars:
            g.emit(f"{axis_vars[0]} = {prefix}_r0[{b}] + {rr}")
        base = g.fresh("base")
        g.emit(f"{base} = {prefix}_voff[{b}] + {rr} * {w}")
        return f"{base}:{b}"


class _WindowColLevel(AccessLevel):
    """Columns of one window row: the contiguous range [c0[b], c0[b]+bw[b])."""

    binds = (1,)
    searchable = False
    sorted_enum = True
    dense = False

    def __init__(self, owner: "DenseBlocksMatrix"):
        self._owner = owner

    def avg_fanout(self) -> float:
        o = self._owner
        return max(1.0, float(np.mean(o.bw)) if o.nblocks else 1.0)

    def emit_enumerate(self, g: Emitter, prefix: str, parent_pos, axis_vars: Mapping[int, str]) -> str:
        base, b = _split_pos(parent_pos)
        cc = g.fresh("cc")
        g.open(f"for {cc} in range({prefix}_bw[{b}]):")
        if 1 in axis_vars:
            g.emit(f"{axis_vars[1]} = {prefix}_c0[{b}] + {cc}")
        return f"{base} + {cc}"

    def vector_view(self, prefix: str, parent_pos):
        base, b = _split_pos(parent_pos)
        return {
            "slice": ("0", f"{prefix}_bw[{b}]"),
            "index": {1: ("affine", f"{prefix}_c0[{b}]")},
            "unique_axes": frozenset({1}),
        }


def _split_pos(parent_pos: str | None) -> tuple[str, str]:
    parts = (parent_pos or "0").split(":")
    if len(parts) != 2:  # availability probe with a placeholder parent
        parts = [parts[0]] * 2
    return parts[0], parts[1]


class DenseBlocksMatrix(Format):
    """Disjoint dense rectangular windows.

    Parameters
    ----------
    shape:
        Full matrix shape (the windows need not cover it).
    r0, c0, bh, bw:
        Per-block window origin and extent: block b covers rows
        ``r0[b] : r0[b]+bh[b]`` and columns ``c0[b] : c0[b]+bw[b]``.
    vals, voff:
        Flat row-major window values; block b occupies
        ``vals[voff[b] : voff[b+1]]`` with ``voff[b+1]-voff[b] == bh[b]*bw[b]``.
    """

    format_name = "DenseBlocks"

    def __init__(self, shape, r0, c0, bh, bw, vals, voff):
        self._shape = check_shape(shape, 2)
        self.r0 = np.asarray(r0, dtype=np.int64)
        self.c0 = np.asarray(c0, dtype=np.int64)
        self.bh = np.asarray(bh, dtype=np.int64)
        self.bw = np.asarray(bw, dtype=np.int64)
        self.vals = np.asarray(vals, dtype=np.float64)
        self.voff = np.asarray(voff, dtype=np.int64)
        nb = len(self.r0)
        if not (len(self.c0) == len(self.bh) == len(self.bw) == nb):
            raise FormatError("r0/c0/bh/bw must have equal lengths")
        if np.any(self.bh <= 0) or np.any(self.bw <= 0):
            raise FormatError("windows must be non-empty")
        if np.any(self.r0 < 0) or np.any(self.c0 < 0):
            raise FormatError("window origins must be nonnegative")
        if np.any(self.r0 + self.bh > self._shape[0]) or np.any(
            self.c0 + self.bw > self._shape[1]
        ):
            raise FormatError("window exceeds the matrix shape")
        if len(self.voff) != nb + 1 or self.voff[0] != 0 or np.any(
            np.diff(self.voff) != self.bh * self.bw
        ):
            raise FormatError("voff inconsistent with window extents")
        if len(self.vals) != self.voff[-1]:
            raise FormatError("vals length inconsistent with voff")
        for a in range(nb):
            for b in range(a + 1, nb):
                row_overlap = (self.r0[a] < self.r0[b] + self.bh[b]) and (
                    self.r0[b] < self.r0[a] + self.bh[a]
                )
                col_overlap = (self.c0[a] < self.c0[b] + self.bw[b]) and (
                    self.c0[b] < self.c0[a] + self.bw[a]
                )
                if row_overlap and col_overlap:
                    raise FormatError(
                        f"windows {a} and {b} overlap; dense windows must be "
                        "pairwise disjoint"
                    )

    @property
    def nblocks(self) -> int:
        return len(self.r0)

    @property
    def stored_count(self) -> int:
        return len(self.vals)

    @classmethod
    def from_coo_windows(cls, coo: COOMatrix, windows) -> "DenseBlocksMatrix":
        """Materialize the given ``(r0, c0, h, w)`` windows of ``coo``.

        Entries of ``coo`` outside every window are ignored (callers split
        the matrix into regions first); missing entries inside a window are
        stored as explicit zeros.
        """
        coo = coo.canonicalized()  # duplicates must SUM, not last-write-win
        r0s, c0s, bhs, bws, parts, voff = [], [], [], [], [], [0]
        for win in windows:
            r0, c0, h, w = (int(v) for v in win)
            if h <= 0 or w <= 0:
                raise FormatError("windows must be non-empty")
            blk = np.zeros((h, w))
            keep = (
                (coo.row >= r0)
                & (coo.row < r0 + h)
                & (coo.col >= c0)
                & (coo.col < c0 + w)
            )
            blk[coo.row[keep] - r0, coo.col[keep] - c0] = coo.vals[keep]
            r0s.append(r0)
            c0s.append(c0)
            bhs.append(h)
            bws.append(w)
            parts.append(blk.ravel())
            voff.append(voff[-1] + h * w)
        vals = np.concatenate(parts) if parts else np.empty(0)
        return cls(coo.shape, r0s, c0s, bhs, bws, vals, voff)

    @classmethod
    def from_coo(cls, coo: COOMatrix) -> "DenseBlocksMatrix":
        """Treat the whole matrix as one dense window (degenerate case).

        An empty-extent matrix gets zero windows (a zero-area window is
        invalid).
        """
        nr, nc = coo.shape
        wins = [] if nr == 0 or nc == 0 else [(0, 0, nr, nc)]
        return cls.from_coo_windows(coo, wins)

    def to_coo(self) -> COOMatrix:
        r_parts, c_parts, v_parts = [], [], []
        for b in range(self.nblocks):
            h, w = int(self.bh[b]), int(self.bw[b])
            blk = self.vals[self.voff[b] : self.voff[b + 1]].reshape(h, w)
            rr, cc = np.nonzero(blk)
            r_parts.append(rr + self.r0[b])
            c_parts.append(cc + self.c0[b])
            v_parts.append(blk[rr, cc])
        if not r_parts:
            return COOMatrix(self._shape, [], [], [])
        return COOMatrix.from_entries(
            self._shape,
            np.concatenate(r_parts),
            np.concatenate(c_parts),
            np.concatenate(v_parts),
        )

    @property
    def shape(self):
        return self._shape

    @property
    def nnz(self) -> int:
        return int(np.count_nonzero(self.vals))

    def levels(self):
        return (
            _WindowOuterLevel(self),
            _WindowRowLevel(self),
            _WindowColLevel(self),
        )

    def inner_vector_view(self, prefix, parent_pos):
        view = _WindowColLevel(self).vector_view(prefix, parent_pos)
        base = _split_pos(parent_pos)[0]
        view["vals"] = f"{prefix}_vals[{base} : {base} + ({{e}} - {{s}})]"
        return view

    def inner_block_view(self, prefix):
        return {
            "nrows": f"{prefix}_bh",
            "ncols": f"{prefix}_bw",
            "rows": (f"{prefix}_r0", None),
            "cols": (f"{prefix}_c0", None),
            "voff": f"{prefix}_voff",
            "vals": f"{prefix}_vals",
        }

    def storage(self, prefix: str):
        return {
            f"{prefix}_r0": self.r0,
            f"{prefix}_c0": self.c0,
            f"{prefix}_bh": self.bh,
            f"{prefix}_bw": self.bw,
            f"{prefix}_vals": self.vals,
            f"{prefix}_voff": self.voff,
            f"{prefix}_nblocks": self.nblocks,
            f"{prefix}_n0": self._shape[0],
            f"{prefix}_n1": self._shape[1],
        }

    def emit_load(self, g, prefix, axis_vars, pos):
        return f"{prefix}_vals[{pos}]"
