"""The Table-2/3 trio: three executors over the SAME BlockSolve structures.

The paper's parallel evaluation compares, on one matrix stored in the
BlockSolve format (dense clique blocks A_D + off-diagonal i-nodes split
into A_SL / A_SNL by column locality):

* **BlockSolve** — the hand-written library kernels,
* **Bernoulli-Mixed** — compiler-generated kernels from the mixed
  local/global specification (Eq. 24): A_D and A_SL products are node
  programs addressing x directly; A_SNL goes through the inspector,
* **Bernoulli** — compiler-generated from the fully global specification
  (Eq. 23): every product is global, so the inspector translates *every*
  referenced column and the executor reads all of x through the ghost
  indirection.

Local structure carving happens at construction (it corresponds to matrix
assembly, which the library also does outside the inspector); ``setup()``
times exactly what the paper calls the inspector — communication-set
computation and index translation.
"""

from __future__ import annotations

import numpy as np

from repro.compiler import compile_kernel
from repro.distribution.multiblock import MultiBlockDistribution
from repro.formats.blockdiag import BlockDiagonalMatrix
from repro.formats.blocksolve import BlockSolveMatrix
from repro.formats.coo import segment_indices, segment_ptr
from repro.formats.dense import DenseVector
from repro.formats.inode import InodeMatrix
from repro.formats.translated import TranslatedVector
from repro.kernels.spmv import SPMV_SRC
from repro.runtime.comm import (
    CommOptions,
    exchange_finish,
    exchange_opt,
    exchange_start,
)
from repro.runtime.faults import ensure_valid_schedule
from repro.runtime.inspector import build_schedule_replicated, exchange  # noqa: F401
from repro.runtime.schedule_cache import ScheduleCache, cached_schedule

__all__ = ["BSFragments", "BlockSolveSpMV", "BernoulliMixedBS", "BernoulliGlobalBS"]


class BSFragments:
    """Per-rank carving of BlockSolve structures (assembly-time work).

    All index spaces are the *reordered* one of the BlockSolveMatrix.
    Carved pieces:

    * ``A_D``      — my dense clique blocks, local index space,
    * ``A_D_ino``  — the same blocks viewed as i-nodes with *global*
      columns (what the naive global specification sees),
    * ``A_SL``     — off-diagonal i-nodes touching locally-owned columns,
      columns renumbered to local x offsets,
    * ``A_SNL``    — off-diagonal i-nodes touching non-local columns,
      columns still global (``setup`` renumbers them to ghost slots),
    * ``off_global`` — all my off-diagonal i-nodes, columns global.
    """

    def __init__(
        self,
        rank: int,
        dist: MultiBlockDistribution,
        bs: BlockSolveMatrix,
        opts: CommOptions | None = None,
    ):
        self.rank = rank
        self.dist = dist
        self.bs = bs
        self.opts = opts or CommOptions()
        n = bs.shape[0]
        mine_rows = dist.owned_by(rank)
        self.nlocal = len(mine_rows)
        self.mine_rows = mine_rows
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
        col_local = np.zeros(n, dtype=np.int64)
        col_local[mine_rows] = np.arange(self.nlocal)
        self.A_SL = local_part.remap_columns(col_local, max(1, self.nlocal))
        self.A_SNL_global = nonlocal_part

    def _ghost_remap(self, ino: InodeMatrix, sched) -> InodeMatrix:
        """Renumber an i-node matrix's global columns to ghost slots."""
        n = self.bs.shape[0]
        ghost_map = np.zeros(n, dtype=np.int64)
        used = ino.column_support()
        if len(used):
            slots = sched.ghost_slot_of(used)
            ghost_map[used] = slots
        return ino.remap_columns(ghost_map, max(1, sched.nghost))

    def _inspect(self, used):
        """Inspector entry shared by the trio: build (or reuse from the
        schedule cache) the replicated-IND gather schedule for ``used``."""
        cache = self.opts.resolved_cache()
        key = ScheduleCache.key_replicated(self.rank, self.dist, used) if cache is not None else None
        sched = yield from cached_schedule(
            cache,
            key,
            self.dist.nprocs,
            lambda: build_schedule_replicated(self.rank, self.dist, used),
        )
        self._sched_cache = cache
        self._sched_cache_key = key
        return sched

    def _remember_schedule(self, used) -> None:
        """Store what the fault-recovery path needs: the Used set (to
        re-run the inspector) and the schedule fingerprint (to detect
        corruption and to verify the rebuilt schedule)."""
        self._used = used
        self._sched_sum = self.sched.checksum()

    def rebuild_schedule(self):
        """Fault-recovery re-inspection: rebuild from the same Used set.

        Deterministic, so the rebuilt schedule carries the original
        fingerprint and every ghost-slot-dependent structure built at
        ``setup()`` (remapped A_SNL, translation maps) stays valid."""
        sched = yield from build_schedule_replicated(self.rank, self.dist, self._used)
        return sched


class BlockSolveSpMV(BSFragments):
    """Hand-written library path: batched dense kernels, boundary-only
    inspector against the replicated multi-block distribution."""

    def setup(self):
        used = self.A_SNL_global.column_support()
        self.sched = yield from self._inspect(used)
        self.A_SNL = self._ghost_remap(self.A_SNL_global, self.sched)
        self._remember_schedule(used)
        return None

    def step(self, xlocal: np.ndarray):
        yield from ensure_valid_schedule(self)
        y = np.zeros(self.nlocal)
        if self.opts.overlap:
            # the library's own pipeline: exchange in flight while the
            # clique blocks and local i-nodes multiply
            pending = yield from exchange_start(
                self.sched, xlocal, coalesce=self.opts.coalesce, owner=type(self).__name__
            )
            if self.A_D is not None:
                self.A_D.matvec(xlocal, out=y)
            self.A_SL.matvec(xlocal, out=y)
            ghost = yield from exchange_finish(
                self.sched, xlocal, pending, owner=type(self).__name__
            )
        else:
            if self.A_D is not None:
                self.A_D.matvec(xlocal, out=y)
            self.A_SL.matvec(xlocal, out=y)
            ghost = yield from exchange_opt(
                self.sched, xlocal, coalesce=self.opts.coalesce, owner=type(self).__name__
            )
        self.A_SNL.matvec(ghost, out=y)
        return y


class BernoulliMixedBS(BSFragments):
    """Compiler-generated executor from the mixed specification (Eq. 24):

        local:  y^(p)  = A_D^(p) · x^(p)
        local:  y^(p) += A_SL^(p) · x^(p)
        global: y     += A_SNL · x
    """

    def setup(self):
        used = self.A_SNL_global.column_support()
        self.sched = yield from self._inspect(used)
        self.A_SNL = self._ghost_remap(self.A_SNL_global, self.sched)
        self._xbuf = DenseVector.zeros(max(1, self.nlocal))
        self._gbuf = DenseVector.zeros(max(1, self.sched.nghost))
        self._ybuf = DenseVector.zeros(self.nlocal)
        if self.A_D is not None:
            kD = compile_kernel(SPMV_SRC, {"A": self.A_D, "X": self._xbuf, "Y": self._ybuf})
            self._runD = kD.bind(A=self.A_D, X=self._xbuf, Y=self._ybuf)
        else:
            self._runD = None
        kSL = compile_kernel(SPMV_SRC, {"A": self.A_SL, "X": self._xbuf, "Y": self._ybuf})
        kSNL = compile_kernel(SPMV_SRC, {"A": self.A_SNL, "X": self._gbuf, "Y": self._ybuf})
        self._runSL = kSL.bind(A=self.A_SL, X=self._xbuf, Y=self._ybuf)
        self._runSNL = kSNL.bind(A=self.A_SNL, X=self._gbuf, Y=self._ybuf)
        self._remember_schedule(used)
        return None

    def step(self, xlocal: np.ndarray):
        yield from ensure_valid_schedule(self)
        self._ybuf.vals[:] = 0.0
        if self.nlocal:
            self._xbuf.vals[:] = xlocal
        if self.opts.overlap:
            # Eq. 24's declared split makes the pipeline free: the two
            # local statements need no ghost values, so they run inside
            # the exchange window
            pending = yield from exchange_start(
                self.sched, xlocal, coalesce=self.opts.coalesce, owner=type(self).__name__
            )
            if self._runD is not None:
                self._runD()
            self._runSL()
            ghost = yield from exchange_finish(
                self.sched, xlocal, pending, owner=type(self).__name__
            )
        else:
            if self._runD is not None:
                self._runD()
            self._runSL()
            ghost = yield from exchange_opt(
                self.sched, xlocal, coalesce=self.opts.coalesce, owner=type(self).__name__
            )
        if self.sched.nghost:
            self._gbuf.vals[:] = ghost
        self._runSNL()
        return self._ybuf.vals.copy()


class BernoulliGlobalBS(BSFragments):
    """Compiler-generated executor from the fully global specification
    (Eq. 23): both products reference x through global indices, so the
    inspector must translate *every* referenced column (work proportional
    to the local problem size) and the executor reads every x value
    through one extra level of indirection (the gathered ghost buffer)."""

    def setup(self):
        n = self.bs.shape[0]
        used = np.union1d(
            self.A_D_ino.column_support(), self.off_global.column_support()
        )
        self.sched = yield from self._inspect(used)
        # the problem-size translation structure the naive spec forces:
        # a full global-to-ghost map, applied at *runtime* on every access
        xmap = np.zeros(n, dtype=np.int64)
        if len(used):
            xmap[used] = self.sched.ghost_slot_of(used)
        gbuf = np.zeros(max(1, self.sched.nghost))
        self._gbuf = gbuf
        self._xview = TranslatedVector(n, gbuf, xmap)
        self._ybuf = DenseVector.zeros(self.nlocal)
        kD = compile_kernel(SPMV_SRC, {"A": self.A_D_ino, "X": self._xview, "Y": self._ybuf})
        kOff = compile_kernel(SPMV_SRC, {"A": self.off_global, "X": self._xview, "Y": self._ybuf})
        self._runD = kD.bind(A=self.A_D_ino, X=self._xview, Y=self._ybuf)
        self._runOff = kOff.bind(A=self.off_global, X=self._xview, Y=self._ybuf)
        self._remember_schedule(used)
        return None

    def step(self, xlocal: np.ndarray):
        yield from ensure_valid_schedule(self)
        if self.opts.overlap:
            # the global spec leaves NOTHING to hide behind the wire:
            # both products read x through the ghost buffer, so the
            # window closes immediately — the cost of Eq. 23's missing
            # locality declaration, visible in ``comm.overlap_ratio``
            pending = yield from exchange_start(
                self.sched, xlocal, coalesce=self.opts.coalesce, owner=type(self).__name__
            )
            self._ybuf.vals[:] = 0.0
            ghost = yield from exchange_finish(
                self.sched, xlocal, pending, owner=type(self).__name__
            )
        else:
            ghost = yield from exchange_opt(
                self.sched, xlocal, coalesce=self.opts.coalesce, owner=type(self).__name__
            )
            self._ybuf.vals[:] = 0.0
        if self.sched.nghost:
            self._gbuf[: self.sched.nghost] = ghost
        self._runD()
        self._runOff()
        return self._ybuf.vals.copy()
