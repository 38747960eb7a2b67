"""The distributed SpMV of the evaluation, driven by its specification
(paper Sec. 3.3 & 4).

A specification is a list of product statements
(:class:`~repro.parallel.fragment.Term`), each declaring how its columns
address x, plus a distribution relation.  One per-rank :class:`SpmdSpMV`
runs any such list as two SPMD generator methods:

* ``setup()``  — the *inspector*: ``inspect()`` derives ``Used`` as the
  column support of the statements that are not ``local`` and builds (or
  reuses) the gather schedule; ``localize()`` renumbers the statements
  and compiles one kernel per x view, each statement a region of it,
* ``step(x)``  — the *executor*: one y = A·x over the local rows; the
  ``local`` statements run inside the exchange window, the rest after it.

The seven variants of the evaluation are rows of :data:`SPMV_VARIANTS`:

==================  ==================================================
``mixed``           Eq. 24 over a row fragment: the local/non-local
                    split is declared, so the inspector only touches
                    boundary columns
``global``          Eq. 23 over a row fragment: nothing declared; the
                    inspector translates *every* referenced column
                    (work ∝ problem size) and the executor reads x
                    through one extra indirection everywhere
``mixed-bs``        Eq. 24 over BlockSolve structures (dense clique
                    blocks A_D + local i-nodes A_SL + ghost i-nodes
                    A_SNL), replicated multi-block distribution
``global-bs``       Eq. 23 over the same structures
``blocksolve``      ``mixed-bs``'s statements applied by the library's
                    hand-written kernels — Table 2's reference
``indirect-mixed``  ``mixed`` with ownership resolved through a Chaos
                    distributed translation table
``indirect``        ``global`` with the translation table
==================  ==================================================
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import partial
from typing import Callable

import numpy as np

from repro.compiler import compile_kernel
from repro.compiler.specialize import split_source
from repro.distribution.base import Distribution
from repro.distribution.translation import build_translation_table
from repro.errors import InspectorError
from repro.formats.coo import COOMatrix
from repro.formats.crs import CRSMatrix
from repro.formats.dense import DenseVector
from repro.formats.translated import TranslatedVector
from repro.kernels.spmv import SPMV_SRC
from repro.parallel.fragment import RowFragment, Term
from repro.parallel.spmd_blocksolve import BSFragments
from repro.runtime.comm import CommOptions, exchange_window
from repro.runtime.faults import ensure_valid_schedule
from repro.runtime.inspector import build_schedule_replicated, build_schedule_translated
from repro.runtime.schedule_cache import ScheduleCache, cached_schedule

__all__ = ["SpmdSpMV", "Variant", "SPMV_VARIANTS", "make_spmv_setup"]


class SpmdSpMV:
    """Per-rank inspector/executor for a list of product statements.

    ``owned`` is this rank's global index list (local-offset order).
    ``translated`` resolves ownership through a Chaos distributed
    translation table (build: all-to-all with volume ∝ problem size;
    query: another all-to-all round) instead of the replicated ``dist``;
    ``library`` applies each statement with the format's hand-written
    ``matvec`` instead of a compiled kernel.
    """

    def __init__(
        self,
        rank: int,
        dist: Distribution,
        terms: list[Term],
        owned,
        opts: CommOptions | None = None,
        variant: str = "",
        translated: bool = False,
        library: bool = False,
    ):
        self.rank = rank
        self.dist = dist
        self.terms = list(terms)
        self.owned = np.asarray(owned, dtype=np.int64)
        self.nlocal = len(self.owned)
        self.opts = opts or CommOptions()
        self.variant = variant
        self.translated = translated
        self.library = library

    def setup(self):
        yield from self.inspect()
        self.localize()

    # -- inspector -------------------------------------------------------
    def inspect(self):
        """Communication sets: ``Used`` (Eq. 21) is what the non-local
        statements reference; the schedule is its join with IND (Eq. 22)."""
        supports = [t.A.column_support() for t in self.terms if t.reads != "local"]
        if len(supports) == 1:
            used = supports[0]  # already sorted and unique
        else:
            used = np.unique(np.concatenate([np.empty(0, dtype=np.int64), *supports]))
        self._used = used
        cache = self.opts.resolved_cache()
        key = None
        if cache is not None and self.translated:
            # a hit skips the WHOLE Chaos inspection — table build AND the
            # dereference rounds — the cost Table 3 shows dominating
            key = ScheduleCache.key_translated(
                self.rank, self.dist.nglobal, self.dist.nprocs, self.owned, used
            )
        elif cache is not None:
            key = ScheduleCache.key_replicated(self.rank, self.dist, used)
        self.sched = yield from cached_schedule(
            cache, key, self.dist.nprocs, self.rebuild_schedule
        )
        self._sched_cache = cache
        self._sched_cache_key = key

    def rebuild_schedule(self):
        """The inspection proper (also the fault-recovery re-inspection):
        deterministic in the Used set, so a rebuild carries the original
        fingerprint and everything ``localize()`` derived stays valid."""
        if not self.translated:
            sched = yield from build_schedule_replicated(self.rank, self.dist, self._used)
            return sched
        table = yield from build_translation_table(
            self.rank, self.dist.nglobal, self.dist.nprocs, self.owned
        )
        sched = yield from build_schedule_translated(self.rank, table, self._used)
        return sched

    def localize(self):
        """Index translation: renumber the statements, then bind one
        :func:`split_source` kernel per x view (library: a ``matvec`` each)."""
        sched, used = self.sched, self._used
        self._sched_sum = sched.checksum()  # what recovery verifies a rebuild against
        slots = sched.ghost_slot_of(used)
        if np.any(slots < 0):
            raise InspectorError("ghost translation missed a used column")
        nglobal, nghost = self.dist.nglobal, max(1, sched.nghost)
        # problem-size global-to-ghost map: applied once to a "ghost"
        # matrix here, at *runtime* on every access of a "global" one
        xmap = np.zeros(nglobal, dtype=np.int64)
        xmap[used] = slots
        self._x = DenseVector.zeros(max(1, self.nlocal))
        self._g = DenseVector.zeros(nghost)
        self._y = DenseVector.zeros(self.nlocal)
        views, groups = {"local": self._x, "ghost": self._g}, {}
        for term in self.terms:
            A = term.A.remap_columns(xmap, nghost) if term.reads == "ghost" else term.A
            if isinstance(A, COOMatrix) and not self.library:  # the exchange format; kernels run CRS
                A = CRSMatrix.from_coo(A.canonicalized())
            groups.setdefault(term.reads, []).append(A)
        self.interior, self.boundary = [], []
        for reads, mats in groups.items():
            X = views.get(reads) or TranslatedVector(nglobal, self._g.vals, xmap)
            if self.library:
                runs = [partial(A.matvec, X.vals, out=self._y.vals) for A in mats]
            else:
                program, fmts = split_source(SPMV_SRC, "A", mats, {"X": X, "Y": self._y})
                runs = [compile_kernel(program, fmts).bind(**fmts)]
            (self.interior if reads == "local" else self.boundary).extend(runs)

    # -- executor --------------------------------------------------------
    def step(self, xlocal: np.ndarray):
        yield from ensure_valid_schedule(self)
        self._y.vals[:] = 0.0
        if self.interior:
            self._x.vals[: self.nlocal] = xlocal
        # Eq. 24's declared split makes the pipeline free: the local
        # statements need no ghost values, so they run inside the window;
        # Eq. 23 declares nothing and leaves nothing to hide behind the wire
        ghost = yield from exchange_window(
            self.sched, xlocal, self.opts, owner=self.variant, interior=self.interior
        )
        self._g.vals[: self.sched.nghost] = ghost
        for run in self.boundary:
            run()
        return self._y.vals.copy()


@dataclass(frozen=True)
class Variant:
    """One row of the variant table: which statements, over which carving."""

    terms: Callable  # fragment -> list[Term]
    blocksolve: bool = False  # data is a BlockSolveMatrix (reordered space), carved per rank
    translated: bool = False
    library: bool = False


SPMV_VARIANTS = {
    "mixed": Variant(RowFragment.mixed_terms),
    "global": Variant(RowFragment.global_terms),
    "blocksolve": Variant(BSFragments.mixed_terms, blocksolve=True, library=True),
    "mixed-bs": Variant(BSFragments.mixed_terms, blocksolve=True),
    "global-bs": Variant(BSFragments.global_terms, blocksolve=True),
    "indirect-mixed": Variant(RowFragment.mixed_terms, translated=True),
    "indirect": Variant(RowFragment.global_terms, translated=True),
}


def make_spmv_setup(variant: str, rank: int, dist, data, opts=None) -> SpmdSpMV:
    """The per-rank executor of ``variant`` over ``data``: this rank's
    :class:`RowFragment`, or the whole :class:`BlockSolveMatrix` for the
    variants with ``blocksolve`` set (carved here, outside the inspector)."""
    try:
        v = SPMV_VARIANTS[variant]
    except KeyError:
        raise KeyError(f"unknown variant {variant!r}; known: {sorted(SPMV_VARIANTS)}") from None
    frag = BSFragments(rank, dist, data) if v.blocksolve else data
    return SpmdSpMV(
        rank, dist, v.terms(frag), frag.rows_global, opts,
        variant=variant, translated=v.translated, library=v.library,
    )
