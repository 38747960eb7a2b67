"""The BlockSolve95 storage format (paper Sec. 1 & 3.3, Fig. 2).

A square matrix (typically a multi-dof FEM stiffness matrix) is analyzed
and reordered:

1. *i-nodes* — rows with identical column structure — seed a *clique
   partition* of the matrix graph,
2. the clique-contracted graph is greedily *colored*,
3. the matrix is reordered color by color, clique by clique
   (paper Fig. 2(b)),
4. the reordered matrix splits into dense diagonal clique blocks
   (:class:`~repro.formats.blockdiag.BlockDiagonalMatrix` — the black
   triangles) and the off-diagonal remainder stored in i-node form
   (:class:`~repro.formats.inode.InodeMatrix` — the gray blocks).

The format is *composite*: the compiler accesses its components
(``dense_blocks``, ``offdiag``) individually — the paper's observation
that sophisticated formats need algorithm specification at the component
level (the mixed local/global program of Eq. 24) rather than as one dense
loop.  Calling :meth:`levels` therefore raises.

:meth:`matvec` is the library kernel used as the "BlockSolve" baseline
throughout the evaluation: its components' shared dense-block ``matvec``
(:mod:`repro.formats.blocks`), which caches the grouping of blocks by
shape and reads the values at every call.
"""

from __future__ import annotations

import numpy as np

from repro.errors import FormatError
from repro.formats.base import Format, check_shape
from repro.formats.blockdiag import BlockDiagonalMatrix
from repro.formats.blocks import block_of
from repro.formats.coo import COOMatrix, segment_indices, segment_ptr
from repro.formats.inode import InodeMatrix
from repro.formats.permutation import Permutation
from repro.graphs import (
    adjacency_csr,
    clique_partition,
    contracted_graph,
    find_inodes,
    greedy_color,
)

__all__ = ["BlockSolveMatrix"]


class BlockSolveMatrix(Format):
    """Color/clique-reordered composite storage (BlockSolve95).

    Attributes
    ----------
    perm:
        :class:`Permutation` with ``perm(old) = new`` — the color/clique
        reordering.  All component structures live in the *new* (reordered)
        index space.
    dense_blocks:
        The dense diagonal clique blocks.
    offdiag:
        Everything off the clique blocks, in i-node storage.
    colors:
        Color of each clique (in reordered clique order).
    clique_ptr:
        Row partition of the reordered index space by clique
        (== ``dense_blocks.blockptr``).
    """

    format_name = "BS95"

    def __init__(self, perm: Permutation, dense_blocks: BlockDiagonalMatrix, offdiag: InodeMatrix, colors, clique_ptr):
        n = len(perm)
        self._shape = check_shape((n, n), 2)
        if dense_blocks.shape != (n, n) or offdiag.shape != (n, n):
            raise FormatError("component shape mismatch")
        self.perm = perm
        self.dense_blocks = dense_blocks
        self.offdiag = offdiag
        self.colors = np.asarray(colors, dtype=np.int64)
        self.clique_ptr = np.asarray(clique_ptr, dtype=np.int64)
        if len(self.colors) != len(self.clique_ptr) - 1:
            raise FormatError("one color per clique required")

    # ------------------------------------------------------------------
    @classmethod
    def from_coo(cls, coo: COOMatrix) -> "BlockSolveMatrix":
        """Analyze structure, reorder, and split the matrix."""
        coo = coo.canonicalized()
        if coo.shape[0] != coo.shape[1]:
            raise FormatError("BlockSolve requires a square matrix")
        n = coo.shape[0]
        ptr, idx = adjacency_csr(coo, include_self=True)
        cptr, members = clique_partition(ptr, idx, find_inodes(ptr, idx))
        colors = greedy_color(*contracted_graph(ptr, idx, cptr, members))
        # reorder cliques by (color, original clique id); rows follow
        order = np.argsort(colors, kind="stable")
        size = np.diff(cptr)[order]
        old2new = np.empty(n, dtype=np.int64)
        old2new[members[segment_indices(cptr[:-1][order], size)]] = np.arange(n)
        clique_ptr = segment_ptr(size)
        perm = Permutation(old2new)
        reordered = coo.permuted(old2new, old2new)
        # split on/off the diagonal clique blocks
        of = block_of(clique_ptr)
        on_diag = of[reordered.row] == of[reordered.col]
        diag_part = COOMatrix(
            reordered.shape,
            reordered.row[on_diag],
            reordered.col[on_diag],
            reordered.vals[on_diag],
            canonical=True,
        )
        off_part = COOMatrix(
            reordered.shape,
            reordered.row[~on_diag],
            reordered.col[~on_diag],
            reordered.vals[~on_diag],
            canonical=True,
        )
        dense_blocks = BlockDiagonalMatrix.from_coo_blocks(diag_part, clique_ptr)
        offdiag = InodeMatrix.from_coo(off_part)
        return cls(perm, dense_blocks, offdiag, colors[order], clique_ptr)

    # ------------------------------------------------------------------
    @property
    def shape(self):
        return self._shape

    @property
    def nnz(self) -> int:
        return self.dense_blocks.nnz + int(np.count_nonzero(self.offdiag.vals))

    @property
    def ncolors(self) -> int:
        return int(self.colors.max(initial=-1)) + 1

    def levels(self):
        raise FormatError(
            "BlockSolve is a composite format: compile against its "
            "components (.dense_blocks, .offdiag) — see the mixed "
            "local/global specification of paper Eq. (24)"
        )

    def storage(self, prefix: str):
        raise FormatError("BlockSolve is composite; bind its components instead")

    def emit_load(self, g, prefix, axis_vars, pos):
        raise FormatError("BlockSolve is composite; bind its components instead")

    def to_coo(self) -> COOMatrix:
        """Back to original (un-reordered) coordinates.

        Clique blocks are stored fully dense, so structural zeros inside a
        block are pruned on the way out.
        """
        combined = self.dense_blocks.to_coo().canonicalized()
        off = self.offdiag.to_coo()
        merged = COOMatrix.from_entries(
            self._shape,
            np.concatenate([combined.row, off.row]),
            np.concatenate([combined.col, off.col]),
            np.concatenate([combined.vals, off.vals]),
        )
        return merged.permuted(self.perm.iperm, self.perm.iperm).prune(0.0)

    # ------------------------------------------------------------------
    def matvec(self, x: np.ndarray) -> np.ndarray:
        """Hand-written library SpMV (the BlockSolve baseline):
        dense clique blocks + i-node off-diagonal part, then un-permute."""
        x = np.asarray(x)
        xp = x[self.perm.iperm]  # xp[new] = x[old]
        yp = self.dense_blocks.matvec(xp)
        self.offdiag.matvec(xp, out=yp)
        return yp[self.perm.perm]  # y[old] = yp[new]
