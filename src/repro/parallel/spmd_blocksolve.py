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
    Carved pieces:

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
        row_map = -np.ones(n, dtype=np.int64)
        row_map[mine_rows] = np.arange(self.nlocal)

        # ---- dense clique blocks (cliques are never split across ranks)
        widths = np.diff(bs.clique_ptr)
        my_cliques = np.flatnonzero(mine_mask[bs.clique_ptr[:-1]])
        w = widths[my_cliques]
        blockptr, voff = segment_ptr(w), segment_ptr(w * w)
        flat = bs.dense_blocks.vals[
            segment_indices(bs.dense_blocks.voff[my_cliques], w * w)
        ]
        self.A_D = BlockDiagonalMatrix(self.nlocal, blockptr, flat, voff) if self.nlocal else None
        # i-node view: rows local, columns GLOBAL (each clique's own range)
        clique_rows = segment_indices(bs.clique_ptr[my_cliques], w)
        self.A_D_ino = InodeMatrix(
            (self.nlocal, n), row_map[clique_rows], blockptr, clique_rows, blockptr, flat, voff
        )

        # ---- off-diagonal i-nodes
        self.off_global = bs.offdiag.select_rows(mine_mask, row_map, self.nlocal)
        local_part, nonlocal_part = self.off_global.split_by_columns(mine_mask)
        self.A_SL = local_part.remap_columns(row_map, max(1, self.nlocal))
        self.A_SNL_global = nonlocal_part

    def mixed_terms(self) -> list[Term]:
        """Eq. 24:  local: y = A_D·x;  local: y += A_SL·x;  global: y += A_SNL·x."""
        dense = [Term(self.A_D, "local")] if self.A_D is not None else []
        return dense + [Term(self.A_SL, "local"), Term(self.A_SNL_global, "ghost")]

    def global_terms(self) -> list[Term]:
        """Eq. 23: both products (clique blocks as i-nodes, off-diagonal
        i-nodes) reference x through global indices."""
        return [Term(self.A_D_ino, "global"), Term(self.off_global, "global")]
