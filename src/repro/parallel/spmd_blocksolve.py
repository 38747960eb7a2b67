"""Per-rank carving of BlockSolve structures into specification terms.

The paper's parallel evaluation compares three executors on one matrix
stored in the BlockSolve format (dense clique blocks A_D + off-diagonal
i-nodes split into A_SL / A_SNL by column locality): the hand-written
library, and the compiler's output from the mixed (Eq. 24) and the fully
global (Eq. 23) specification.  All three are term lists over the pieces
carved here, run by :class:`~repro.parallel.spmd_spmv.SpmdSpMV`.

Carving happens at construction (it corresponds to matrix assembly, which
the library also does outside the inspector); the executor's ``setup()``
times exactly what the paper calls the inspector — communication-set
computation and index translation.
"""

from __future__ import annotations

from functools import cached_property

import numpy as np

from repro.distribution.multiblock import MultiBlockDistribution
from repro.formats.blockdiag import BlockDiagonalMatrix
from repro.formats.blocksolve import BlockSolveMatrix
from repro.formats.coo import segment_indices, segment_ptr
from repro.formats.inode import InodeMatrix
from repro.parallel.fragment import Term

__all__ = ["BSFragments"]

class BSFragments:
    """Per-rank carving of BlockSolve structures (assembly-time work).

    All index spaces are the *reordered* one of the BlockSolveMatrix.
    Carved pieces (all but ``A_D`` built on first use, so a term list
    carves only the pieces it runs):

    * ``A_D``      — my dense clique blocks, local index space,
    * ``A_D_ino``  — the same blocks viewed as i-nodes with *global*
      columns (what the naive global specification sees),
    * ``A_SL``     — off-diagonal i-nodes touching locally-owned columns,
      columns renumbered to local x offsets,
    * ``A_SNL_global`` — off-diagonal i-nodes touching non-local columns,
      columns still global (the executor renumbers them to ghost slots),
    * ``off_global`` — all my off-diagonal i-nodes, columns global.
    """

    def __init__(self, rank: int, dist: MultiBlockDistribution, bs: BlockSolveMatrix):
        self.rank = rank
        self.dist = dist
        self.bs = bs
        n = bs.shape[0]
        mine_rows = dist.owned_by(rank)
        self.nlocal = len(mine_rows)
        self.rows_global = mine_rows  # local row offset -> global row index
        mine_mask = np.zeros(n, dtype=bool)
        mine_mask[mine_rows] = True
        self.mine_mask = mine_mask
        self.row_map = -np.ones(n, dtype=np.int64)
        self.row_map[mine_rows] = np.arange(self.nlocal)
        # dense clique blocks: cliques are never split across ranks
        self._cliques = np.flatnonzero(mine_mask[bs.clique_ptr[:-1]])
        w = np.diff(bs.clique_ptr)[self._cliques]
        self._blockptr, self._voff = segment_ptr(w), segment_ptr(w * w)
        self._flat = bs.dense_blocks.vals[segment_indices(bs.dense_blocks.voff[self._cliques], w * w)]
        self.A_D = BlockDiagonalMatrix(self.nlocal, self._blockptr, self._flat, self._voff) if self.nlocal else None

    @cached_property
    def A_D_ino(self) -> InodeMatrix:
        """The clique blocks with rows local and columns GLOBAL (each
        clique's own range)."""
        ptr = self._blockptr
        clique_rows = segment_indices(self.bs.clique_ptr[self._cliques], np.diff(ptr))
        return InodeMatrix(
            (self.nlocal, self.bs.shape[0]), self.row_map[clique_rows], ptr, clique_rows, ptr, self._flat, self._voff
        )

    @cached_property
    def off_global(self) -> InodeMatrix:
        return self.bs.offdiag.select_rows(self.mine_mask, self.row_map, self.nlocal)

    @cached_property
    def _split(self) -> tuple[InodeMatrix, InodeMatrix]:
        local_part, nonlocal_part = self.off_global.split_by_columns(self.mine_mask)
        return local_part.remap_columns(self.row_map, max(1, self.nlocal)), nonlocal_part

    A_SL = property(lambda self: self._split[0])
    A_SNL_global = property(lambda self: self._split[1])

    def mixed_terms(self) -> list[Term]:
        """Eq. 24:  local: y = A_D·x;  local: y += A_SL·x;  global: y += A_SNL·x."""
        dense = [Term(self.A_D, "local")] if self.A_D is not None else []
        return dense + [Term(self.A_SL, "local"), Term(self.A_SNL_global, "ghost")]

    def global_terms(self) -> list[Term]:
        """Eq. 23: both products (clique blocks as i-nodes, off-diagonal
        i-nodes) reference x through global indices."""
        return [Term(self.A_D_ino, "global"), Term(self.off_global, "global")]
