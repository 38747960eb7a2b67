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
block; the other regions of a hybrid plan are later units of the same
kernel, which run after this one).  A dense-block format
(:mod:`repro.formats.blocks`).
"""

from __future__ import annotations

import numpy as np

from repro.errors import FormatError
from repro.formats.base import check_shape, index_array
from repro.formats.blocks import Axis, BlockFormat, BlockLayout
from repro.formats.coo import COOMatrix, segment_ptr

__all__ = ["DenseBlocksMatrix"]


class DenseBlocksMatrix(BlockFormat):
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
    layout = BlockLayout("nblocks", Axis("r0", "bh"), Axis("c0", "bw"))

    def __init__(self, shape, r0, c0, bh, bw, vals, voff):
        self._shape = check_shape(shape, 2)
        self.r0, self.c0, self.bh, self.bw, self.voff = map(index_array, (r0, c0, bh, bw, voff))
        self.vals = np.asarray(vals, dtype=np.float64)
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
        a, b = np.triu_indices(nb, 1)  # every pair, in (a, b) order
        r1, c1 = self.r0 + self.bh, self.c0 + self.bw
        hit = np.flatnonzero(
            (self.r0[a] < r1[b]) & (self.r0[b] < r1[a]) & (self.c0[a] < c1[b]) & (self.c0[b] < c1[a])
        )
        if len(hit):
            raise FormatError(
                f"windows {a[hit[0]]} and {b[hit[0]]} overlap; dense windows must be "
                "pairwise disjoint"
            )

    @property
    def nblocks(self) -> int:
        return len(self.r0)

    @classmethod
    def from_coo_windows(cls, coo: COOMatrix, windows) -> "DenseBlocksMatrix":
        """Materialize the given ``(r0, c0, h, w)`` windows of ``coo``.

        Entries of ``coo`` outside every window are ignored (callers split
        the matrix into regions first); missing entries inside a window are
        stored as explicit zeros.
        """
        coo = coo.canonicalized()  # duplicates must SUM, not last-write-win
        r0, c0, h, w = np.asarray(list(windows), dtype=np.int64).reshape(-1, 4).T.copy()
        if np.any(h <= 0) or np.any(w <= 0):
            raise FormatError("windows must be non-empty")
        voff = segment_ptr(h * w)
        vals = np.zeros(voff[-1])
        for b in range(len(r0)):
            k = coo.window_entries(r0[b], c0[b], h[b], w[b])
            vals[voff[b] + (coo.row[k] - r0[b]) * w[b] + coo.col[k] - c0[b]] = coo.vals[k]
        return cls(coo.shape, r0, c0, h, w, vals, voff)

    @classmethod
    def from_coo(cls, coo: COOMatrix) -> "DenseBlocksMatrix":
        """Treat the whole matrix as one dense window (degenerate case).

        An empty-extent matrix gets zero windows (a zero-area window is
        invalid).
        """
        nr, nc = coo.shape
        wins = [] if nr == 0 or nc == 0 else [(0, 0, nr, nc)]
        return cls.from_coo_windows(coo, wins)
