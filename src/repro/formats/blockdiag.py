"""Block-diagonal storage: the dense clique blocks of BlockSolve
(the black triangles along the diagonal in paper Fig. 2(b)).

The index range [0, n) is partitioned into contiguous blocks; block b
covers rows *and* columns ``blockptr[b] : blockptr[b+1]`` and stores a full
dense square block.  After BlockSolve's color/clique reordering every
clique's rows are contiguous, so its diagonal coupling is exactly such a
block.
"""

from __future__ import annotations

from typing import Mapping

import numpy as np

from repro.errors import FormatError
from repro.formats.base import AccessLevel, Emitter, Format, check_shape
from repro.formats.coo import COOMatrix, segment_indices

__all__ = ["BlockDiagonalMatrix"]


class _BlockOuterLevel(AccessLevel):
    binds = ()
    searchable = False
    dense = False

    def __init__(self, owner: "BlockDiagonalMatrix"):
        self._owner = owner

    def avg_fanout(self) -> float:
        return float(max(1, self._owner.nblocks))

    def emit_enumerate(self, g: Emitter, prefix: str, parent_pos, axis_vars: Mapping[int, str]) -> str:
        b = g.fresh("b")
        g.open(f"for {b} in range({prefix}_nblocks):")
        return b


class _BlockRowLevel(AccessLevel):
    """Rows of one dense diagonal block.  Returns the compound position
    ``"base:lo:w"`` interpreted only by the sibling column level."""

    binds = (0,)
    searchable = False
    sorted_enum = True
    dense = False

    def __init__(self, owner: "BlockDiagonalMatrix"):
        self._owner = owner

    def avg_fanout(self) -> float:
        b = max(1, self._owner.nblocks)
        return max(1.0, self._owner.shape[0] / b)

    def emit_enumerate(self, g: Emitter, prefix: str, parent_pos, axis_vars: Mapping[int, str]) -> str:
        b = parent_pos
        lo, w = g.fresh("lo"), g.fresh("w")
        g.emit(f"{lo} = {prefix}_blockptr[{b}]")
        g.emit(f"{w} = {prefix}_blockptr[{b} + 1] - {lo}")
        rr = g.fresh("rr")
        g.open(f"for {rr} in range({w}):")
        if 0 in axis_vars:
            g.emit(f"{axis_vars[0]} = {lo} + {rr}")
        base = g.fresh("base")
        g.emit(f"{base} = {prefix}_voff[{b}] + {rr} * {w}")
        return f"{base}:{lo}:{w}"


class _BlockColLevel(AccessLevel):
    """Columns of one dense block row: the contiguous range [lo, lo+w)."""

    binds = (1,)
    searchable = False
    sorted_enum = True
    dense = False

    def __init__(self, owner: "BlockDiagonalMatrix"):
        self._owner = owner

    def avg_fanout(self) -> float:
        b = max(1, self._owner.nblocks)
        return max(1.0, self._owner.shape[0] / b)

    def emit_enumerate(self, g: Emitter, prefix: str, parent_pos, axis_vars: Mapping[int, str]) -> str:
        base, lo, w = _split_pos(parent_pos)
        cc = g.fresh("cc")
        g.open(f"for {cc} in range({w}):")
        if 1 in axis_vars:
            g.emit(f"{axis_vars[1]} = {lo} + {cc}")
        return f"{base} + {cc}"

    def vector_view(self, prefix: str, parent_pos):
        base, lo, w = _split_pos(parent_pos)
        return {
            "slice": ("0", w),
            "index": {1: ("affine", lo)},
            "unique_axes": frozenset({1}),
        }


def _split_pos(parent_pos: str | None) -> tuple[str, str, str]:
    parts = (parent_pos or "0").split(":")
    if len(parts) != 3:  # availability probe with a placeholder parent
        parts = [parts[0]] * 3
    return parts[0], parts[1], parts[2]


class BlockDiagonalMatrix(Format):
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

    def __init__(self, n, blockptr, vals, voff):
        self._shape = check_shape((n, n), 2)
        self.blockptr = np.asarray(blockptr, dtype=np.int64)
        self.vals = np.asarray(vals, dtype=np.float64)
        self.voff = np.asarray(voff, dtype=np.int64)
        if self.blockptr[0] != 0 or self.blockptr[-1] != n:
            raise FormatError("blockptr must partition [0, n)")
        if np.any(np.diff(self.blockptr) <= 0):
            raise FormatError("blocks must be non-empty and increasing")
        w = np.diff(self.blockptr)
        if len(self.voff) != len(w) + 1 or np.any(np.diff(self.voff) != w * w):
            raise FormatError("voff inconsistent with block widths")
        if len(self.vals) != self.voff[-1]:
            raise FormatError("vals length inconsistent with voff")
        self._batch_cache = None

    @property
    def nblocks(self) -> int:
        return len(self.blockptr) - 1

    @property
    def stored_count(self) -> int:
        return len(self.vals)

    @classmethod
    def from_coo_blocks(cls, coo: COOMatrix, blockptr) -> "BlockDiagonalMatrix":
        """Extract the diagonal blocks of ``coo`` given the partition.

        Off-block entries of ``coo`` are ignored (callers split the matrix
        first); within-block missing entries are stored as explicit zeros.
        """
        blockptr = np.asarray(blockptr, dtype=np.int64)
        n = coo.shape[0]
        if coo.shape[0] != coo.shape[1]:
            raise FormatError(
                f"BlockDiag requires a square matrix, got {coo.shape[0]}x"
                f"{coo.shape[1]}; diagonal blocks cover rows and columns "
                "with the same index range"
            )
        if blockptr.ndim != 1 or len(blockptr) < 1:
            raise FormatError("blockptr must be a 1-D partition of [0, n)")
        if blockptr[0] != 0 or blockptr[-1] != n or np.any(np.diff(blockptr) <= 0):
            raise FormatError(
                "blockptr must start at 0, end at n, and be strictly increasing"
            )
        dense_blocks = []
        voff = [0]
        # assign each entry to a block by its row, keep it if the column
        # falls in the same block
        block_of = np.zeros(n, dtype=np.int64)
        for b in range(len(blockptr) - 1):
            block_of[blockptr[b] : blockptr[b + 1]] = b
        coo = coo.canonicalized()  # duplicates must SUM, not last-write-win
        keep = block_of[coo.row] == block_of[coo.col]
        r, c, v = coo.row[keep], coo.col[keep], coo.vals[keep]
        order = np.argsort(block_of[r], kind="stable")
        r, c, v = r[order], c[order], v[order]
        bounds = np.searchsorted(block_of[r], np.arange(len(blockptr)))
        for b in range(len(blockptr) - 1):
            lo, w = int(blockptr[b]), int(blockptr[b + 1] - blockptr[b])
            blk = np.zeros((w, w))
            s, e = bounds[b], bounds[b + 1]
            blk[r[s:e] - lo, c[s:e] - lo] = v[s:e]
            dense_blocks.append(blk.ravel())
            voff.append(voff[-1] + w * w)
        vals = np.concatenate(dense_blocks) if dense_blocks else np.empty(0)
        return cls(n, blockptr, vals, np.asarray(voff, dtype=np.int64))

    @classmethod
    def from_coo(cls, coo: COOMatrix) -> "BlockDiagonalMatrix":
        """Treat the whole matrix as one dense block (degenerate case).

        An empty matrix gets the empty partition (zero blocks) — the
        one-block partition ``[0, 0]`` would be a zero-width block.
        """
        n = coo.shape[0]
        ptr = np.asarray([0], dtype=np.int64) if n == 0 else np.asarray([0, n])
        return cls.from_coo_blocks(coo, ptr)

    def to_coo(self) -> COOMatrix:
        # storage order — row-major within a block, blocks ascending — is
        # globally row-major: the stored nonzeros are canonical as they lie
        w = np.diff(self.blockptr)
        width = np.repeat(w, w)  # per row
        row = np.repeat(np.arange(self._shape[0]), width)
        col = segment_indices(np.repeat(self.blockptr[:-1], w), width)
        nz = self.vals != 0
        return COOMatrix(self._shape, row[nz], col[nz], self.vals[nz], canonical=True)

    def diagonal(self) -> np.ndarray:
        """The main diagonal as a dense vector (every diagonal entry lies
        in a block: explicit zeros included)."""
        w = np.diff(self.blockptr)
        k = np.arange(self._shape[0]) - np.repeat(self.blockptr[:-1], w)
        return self.vals[np.repeat(self.voff[:-1], w) + k * (np.repeat(w, w) + 1)]

    @property
    def shape(self):
        return self._shape

    @property
    def nnz(self) -> int:
        return int(np.count_nonzero(self.vals))

    def levels(self):
        return (_BlockOuterLevel(self), _BlockRowLevel(self), _BlockColLevel(self))

    def inner_vector_view(self, prefix, parent_pos):
        view = _BlockColLevel(self).vector_view(prefix, parent_pos)
        base = _split_pos(parent_pos)[0]
        view["vals"] = f"{prefix}_vals[{base} : {base} + ({{e}} - {{s}})]"
        return view

    def inner_block_view(self, prefix):
        w = f"np.diff({prefix}_blockptr)"
        return {
            "nrows": w,
            "ncols": w,
            "rows": (f"{prefix}_blockptr", None),
            "cols": (f"{prefix}_blockptr", None),
            "voff": f"{prefix}_voff",
            "vals": f"{prefix}_vals",
        }

    def storage(self, prefix: str):
        return {
            f"{prefix}_blockptr": self.blockptr,
            f"{prefix}_vals": self.vals,
            f"{prefix}_voff": self.voff,
            f"{prefix}_nblocks": self.nblocks,
            f"{prefix}_n0": self._shape[0],
            f"{prefix}_n1": self._shape[1],
        }

    def emit_load(self, g, prefix, axis_vars, pos):
        return f"{prefix}_vals[{pos}]"

    # ------------------------------------------------------------------
    def _batches(self):
        """Group blocks by width; cache stacked tensors per width."""
        if self._batch_cache is None:
            widths = np.diff(self.blockptr)
            batches = []
            for w in np.unique(widths):
                bs = np.flatnonzero(widths == w)
                V = self.vals[self.voff[bs][:, None] + np.arange(w * w)].reshape(len(bs), w, w)
                idx = self.blockptr[bs][:, None] + np.arange(w)
                batches.append((V, idx))
            self._batch_cache = batches
        return self._batch_cache

    def matvec(self, x: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
        """y (+)= A·x with one batched GEMV per block width.

        Block ranges are disjoint, so scatter is a plain indexed store-add.
        """
        x = np.asarray(x)
        y = out if out is not None else np.zeros(self._shape[0])
        for V, idx in self._batches():
            y[idx] += np.einsum("tij,tj->ti", V, x[idx])
        return y
