"""Block-diagonal storage: the dense clique blocks of BlockSolve
(the black triangles along the diagonal in paper Fig. 2(b)).

The index range [0, n) is partitioned into contiguous blocks; block b
covers rows *and* columns ``blockptr[b] : blockptr[b+1]`` and stores a full
dense square block.  After BlockSolve's color/clique reordering every
clique's rows are contiguous, so its diagonal coupling is exactly such a
block.  A dense-block format (:mod:`repro.formats.blocks`).
"""

from __future__ import annotations

import numpy as np

from repro.errors import FormatError
from repro.formats.base import check_shape, index_array
from repro.formats.blocks import Axis, BlockFormat, BlockLayout, block_of
from repro.formats.coo import COOMatrix, segment_ptr

__all__ = ["BlockDiagonalMatrix"]


class BlockDiagonalMatrix(BlockFormat):
    """Contiguous dense diagonal blocks.

    Parameters
    ----------
    n:
        Matrix dimension (square).
    blockptr:
        ``nblocks + 1`` partition of [0, n) into contiguous ranges.
    vals, voff:
        Flat row-major block values; block b occupies
        ``vals[voff[b] : voff[b+1]]`` with ``voff[b+1]-voff[b] == w_b**2``.
    """

    format_name = "BlockDiag"
    layout = BlockLayout("nblocks", Axis("blockptr"), Axis("blockptr"))

    def __init__(self, n, blockptr, vals, voff):
        self._shape = check_shape((n, n), 2)
        self.blockptr, self.voff = index_array(blockptr), index_array(voff)
        self.vals = np.asarray(vals, dtype=np.float64)
        if self.blockptr[0] != 0 or self.blockptr[-1] != n:
            raise FormatError("blockptr must partition [0, n)")
        if np.any(np.diff(self.blockptr) <= 0):
            raise FormatError("blocks must be non-empty and increasing")
        w = np.diff(self.blockptr)
        if len(self.voff) != len(w) + 1 or np.any(np.diff(self.voff) != w * w):
            raise FormatError("voff inconsistent with block widths")
        if len(self.vals) != self.voff[-1]:
            raise FormatError("vals length inconsistent with voff")

    @property
    def nblocks(self) -> int:
        return len(self.blockptr) - 1

    @classmethod
    def from_coo_blocks(cls, coo: COOMatrix, blockptr) -> "BlockDiagonalMatrix":
        """Extract the diagonal blocks of ``coo`` given the partition.

        Off-block entries of ``coo`` are ignored (callers split the matrix
        first); within-block missing entries are stored as explicit zeros.
        """
        blockptr = index_array(blockptr)
        n = coo.shape[0]
        if coo.shape[0] != coo.shape[1]:
            raise FormatError(
                f"BlockDiag requires a square matrix, got {coo.shape[0]}x"
                f"{coo.shape[1]}; diagonal blocks cover rows and columns "
                "with the same index range"
            )
        if blockptr.ndim != 1 or not len(blockptr) or blockptr[0] != 0 or blockptr[-1] != n or np.any(np.diff(blockptr) <= 0):
            raise FormatError("blockptr must be a 1-D partition of [0, n): from 0 to n, strictly increasing")
        # keep an entry if its row and column fall in the same block
        coo = coo.canonicalized()  # duplicates must SUM, not last-write-win
        of = block_of(blockptr)
        keep = of[coo.row] == of[coo.col]
        r, c, b = coo.row[keep], coo.col[keep], of[coo.row[keep]]
        w = np.diff(blockptr)
        voff = segment_ptr(w * w)
        vals = np.zeros(voff[-1])
        vals[voff[b] + (r - blockptr[b]) * w[b] + (c - blockptr[b])] = coo.vals[keep]
        return cls(n, blockptr, vals, voff)

    @classmethod
    def from_coo(cls, coo: COOMatrix) -> "BlockDiagonalMatrix":
        """Treat the whole matrix as one dense block (degenerate case).

        An empty matrix gets the empty partition (zero blocks) — the
        one-block partition ``[0, 0]`` would be a zero-width block.
        """
        n = coo.shape[0]
        ptr = np.asarray([0], dtype=np.int64) if n == 0 else np.asarray([0, n])
        return cls.from_coo_blocks(coo, ptr)

    def diagonal(self) -> np.ndarray:
        """The main diagonal as a dense vector (every diagonal entry lies
        in a block: explicit zeros included)."""
        w = np.diff(self.blockptr)
        k = np.arange(self._shape[0]) - np.repeat(self.blockptr[:-1], w)
        return self.vals[np.repeat(self.voff[:-1], w) + k * (np.repeat(w, w) + 1)]
