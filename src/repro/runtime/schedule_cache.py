"""Cross-call reuse of gather schedules (inspector amortization).

The inspector's ``Used``/``RecvInd`` sets (Sec. 4, Tables 2–3) depend only
on structure and distribution, so :class:`ScheduleCache`, a
:class:`~repro.memo.Memo`, reuses them across solves and kernels.  An
entry is keyed on everything its
:class:`~repro.runtime.inspector.GatherSchedule` depends on:

* the **structure fingerprint** — CRC of the rank's ``Used`` set (the
  requested global indices, paper Eq. 21),
* the **distribution fingerprint** — CRC of the materialized IND relation
  (:meth:`~repro.distribution.base.Distribution.fingerprint`); two
  distributions with the same mapping share schedules,
* the **translation coordinates** on the Chaos path — the owned-index
  list the distributed table would be built from,
* the rank and processor count.

Inspection is collective, so a hit must be too: :func:`cached_schedule`
confirms it with one scalar allreduce before any rank skips the
inspector's all-to-alls.  Entries are deep copies in and out, and fault
recovery (:func:`~repro.runtime.faults.ensure_valid_schedule`) drops an
entry before re-inspecting, so a schedule whose integrity was ever in
question is never served.
"""

from __future__ import annotations

import zlib
from typing import NamedTuple

import numpy as np

from repro.memo import Memo
from repro.runtime.inspector import GatherSchedule

__all__ = [
    "ScheduleCache",
    "ScheduleCacheStats",
    "DEFAULT_SCHEDULE_CACHE",
    "cached_schedule",
    "copy_schedule",
    "schedule_cache_stats",
]


def _array_fp(arr) -> tuple[int, int]:
    """(length, CRC32) fingerprint of an index array."""
    a = np.ascontiguousarray(np.asarray(arr, dtype=np.int64))
    return len(a), zlib.crc32(a.tobytes())


def copy_schedule(sched: GatherSchedule) -> GatherSchedule:
    """Deep copy of a gather schedule (all index arrays owned)."""
    return GatherSchedule(
        sched.rank,
        sched.nprocs,
        np.array(sched.ghost_global, copy=True),
        {q: np.array(v, copy=True) for q, v in sched.send_locals.items()},
        {q: np.array(v, copy=True) for q, v in sched.recv_slots.items()},
        np.array(sched.self_slots, copy=True),
        np.array(sched.self_locals, copy=True),
    )


class ScheduleCacheStats(NamedTuple):
    """Read-only snapshot of a :class:`ScheduleCache`'s counters;
    ``rejected`` counts valid entries that lost the collective agreement."""

    hits: int
    misses: int
    rejected: int
    invalidations: int

    def as_dict(self) -> dict:
        return self._asdict()


class ScheduleCache(Memo):
    """Inspected gather schedules: a :class:`~repro.memo.Memo` (LRU at
    ``max_entries``) that deep-copies entries on the way in and out, so
    neither the producer nor a consumer mutating its working schedule can
    corrupt it."""

    def __init__(self, max_entries: int = 256):
        super().__init__("inspector", max_entries, copy=copy_schedule)

    @property
    def stats(self) -> ScheduleCacheStats:
        return ScheduleCacheStats(**self.counts(*ScheduleCacheStats._fields))

    @staticmethod
    def key_replicated(rank: int, dist, used) -> tuple:
        """Key of a replicated-IND inspection (Eq. 21/22, local ownership)."""
        return ("replicated", int(rank), dist.fingerprint(), _array_fp(used))

    @staticmethod
    def key_translated(rank: int, nglobal: int, nprocs: int, owned_global, used) -> tuple:
        """Key of a Chaos inspection: the distributed table is determined
        by (nglobal, nprocs, owned index list), so a hit skips both the
        table build and the dereference rounds."""
        return (
            "translated",
            int(rank),
            int(nglobal),
            int(nprocs),
            _array_fp(owned_global),
            _array_fp(used),
        )


#: The process-global cache used when callers pass ``schedule_cache=True``.
DEFAULT_SCHEDULE_CACHE = ScheduleCache()


def schedule_cache_stats() -> dict:
    """Counters of the process-global schedule cache."""
    return DEFAULT_SCHEDULE_CACHE.stats.as_dict()


def cached_schedule(cache: ScheduleCache | None, key: tuple, nprocs: int, build):
    """SPMD subroutine: serve ``key`` from ``cache`` or run ``build``.

    ``build`` is a zero-argument callable returning the inspector
    generator (e.g. ``lambda: build_schedule_replicated(...)``).  The
    hit/miss decision is confirmed collectively with one scalar allreduce
    — every rank must agree before the inspection collectives are skipped,
    which keeps the machine's SPMD contract intact under any pattern of
    per-rank invalidation.  With ``cache=None`` this is exactly
    ``yield from build()`` (no agreement round, zero overhead).
    """
    if cache is None:
        sched = yield from build()
        return sched
    hit = cache.get(key)
    n_hit = yield ("allreduce", 1 if hit is not None else 0)
    if hit is not None and n_hit == nprocs:
        cache.count("hits")
        return hit
    # a valid entry that lost the agreement is a *rejection*, not a miss:
    # the cache was warm on this rank
    cache.count("misses" if hit is None else "rejected")
    sched = yield from build()
    cache.put(key, sched)
    return sched
