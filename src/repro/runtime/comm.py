"""Communication-optimizing executor layer: coalescing + overlap knobs.

The per-iteration hot path of every parallel executor is one ghost
exchange against a :class:`~repro.runtime.inspector.GatherSchedule`.  This
module supplies the two optimizations BlockSolve95 applies by hand and the
compiled executors were missing, behind explicit knobs:

* **coalescing** (``coalesce=True``, the default): all ghost values bound
  for one destination rank travel as a single contiguous envelope — one α
  charge, one checksum, one retry unit — and *no slot indices travel at
  all* because the schedule fixes the packet order.  ``coalesce=False``
  is the measurable baseline: one ``(slot, value)`` envelope per value
  (:class:`~repro.runtime.machine.Fragmented`), paying α per value plus
  the index word.  Both modes deliver bitwise-identical ghost arrays.
* **overlap** (``overlap=True``, the default): the exchange is posted
  nonblocking (``alltoallv_async``); the executor runs its interior — the
  ``local:`` statements of its specification, which read no ghost value —
  while packets are in flight, then closes the window (``commwait``) and
  runs the rest.
  Mirrors BlockSolve95's boundary-exchange/interior-compute pipeline; the
  α–β model credits the hidden time (see ``RunStats.parallel_time``), and
  ``comm.overlap_ratio`` records how much of the wire time the interior
  compute actually covered.

:class:`CommOptions` carries both knobs plus the ``schedule_cache``
handle (see :mod:`~repro.runtime.schedule_cache`) through ``parallel_cg``
and the executor; :func:`exchange_window` is the one exchange they all run.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.errors import InspectorError
from repro.observability import metrics as _metrics
from repro.observability import trace as _trace
from repro.runtime.inspector import GatherSchedule
from repro.runtime.machine import Fragmented
from repro.runtime.schedule_cache import DEFAULT_SCHEDULE_CACHE, ScheduleCache

__all__ = [
    "CommOptions",
    "pack_ghost_sends",
    "assemble_ghost",
    "exchange_window",
]


@dataclass(frozen=True)
class CommOptions:
    """Executor communication knobs (uniform across ranks — SPMD).

    ``schedule_cache`` accepts ``True`` (the process-global
    :data:`~repro.runtime.schedule_cache.DEFAULT_SCHEDULE_CACHE`), a
    :class:`~repro.runtime.schedule_cache.ScheduleCache` instance (an
    explicit reuse scope with an explicit invalidation story), or
    ``None``/``False`` (re-inspect every ``setup()``, the pre-cache
    behavior and the default).
    """

    overlap: bool = True
    coalesce: bool = True
    schedule_cache: "ScheduleCache | bool | None" = None

    def resolved_cache(self) -> ScheduleCache | None:
        if self.schedule_cache is True:
            return DEFAULT_SCHEDULE_CACHE
        # identity checks, not truthiness: an EMPTY ScheduleCache has
        # len() == 0 and must still be used (that's the cold start)
        if self.schedule_cache is None or self.schedule_cache is False:
            return None
        return self.schedule_cache


def pack_ghost_sends(sched: GatherSchedule, xlocal: np.ndarray, coalesce: bool) -> dict:
    """The per-destination send dict of one ghost exchange.

    Coalesced: one packed contiguous array per peer (packet order is the
    schedule's, so it carries no indices).  Uncoalesced: one
    ``(slot, value)`` envelope per value.
    """
    xlocal = np.asarray(xlocal)
    if coalesce:
        send = {q: xlocal[loc] for q, loc in sched.send_locals.items()}
        if _metrics.metrics_enabled() and send:
            _metrics.record("comm.coalesced_msgs", len(send))
            _metrics.record(
                "comm.coalesced_values", sum(len(v) for v in send.values())
            )
        return send
    send = {q: Fragmented.pack(xlocal[loc]) for q, loc in sched.send_locals.items()}
    if _metrics.metrics_enabled() and send:
        _metrics.record("comm.pervalue_msgs", sum(len(v) for v in send.values()))
    return send


def assemble_ghost(sched: GatherSchedule, xlocal: np.ndarray, recv: dict) -> np.ndarray:
    """Ghost array (aligned with ``sched.ghost_global``) from one
    exchange's arrivals plus the self-resolved slots."""
    xlocal = np.asarray(xlocal)
    ghost = np.zeros(sched.nghost)
    if len(sched.self_slots):
        ghost[sched.self_slots] = xlocal[sched.self_locals]
    for src, vals in recv.items():
        slots = sched.recv_slots.get(src)
        if slots is None or len(slots) != len(vals):
            raise InspectorError(
                f"rank {sched.rank}: packet from {src} does not match schedule"
            )
        ghost[slots] = vals
    return ghost


def _mark_window(name: str, sched: GatherSchedule, owner: str | None, **attrs) -> None:
    """Trace instant on the rank's own timeline for one exchange window
    (post / wait / blocking), so a trace viewer shows where each exchange
    falls among the rank's compute windows."""
    tracer = _trace.get_tracer()
    if tracer is None:
        return
    tracer.instant(
        name,
        tid=f"rank{sched.rank}",
        owner=owner,
        peers=len(sched.send_locals),
        **attrs,
    )


def exchange_window(
    sched: GatherSchedule,
    xlocal: np.ndarray,
    opts: CommOptions,
    owner: str | None = None,
    interior=(),
):
    """One ghost exchange with the caller's ``interior`` work inside it
    (SPMD subroutine); returns the assembled ghost array.

    ``interior`` is a sequence of zero-argument callables that read no
    ghost value.  With ``opts.overlap`` the exchange is posted
    nonblocking, the interior runs while packets fly, and the window
    closes (``commwait``) before the ghosts are assembled; without it
    the interior runs first and the exchange blocks.  Either way the
    caller's ghost-dependent work comes after the return.
    """
    send = pack_ghost_sends(sched, xlocal, opts.coalesce)
    if _metrics.metrics_enabled():
        _metrics.record("executor.exchanges", 1)
        _metrics.record(
            "executor.gathered_values",
            sum(len(loc) for loc in sched.send_locals.values()),
        )
    if opts.overlap:
        _mark_window("comm.overlap.post", sched, owner, coalesce=opts.coalesce)
        recv = yield ("alltoallv_async", send)
        for run in interior:
            run()
        _mark_window("comm.overlap.wait", sched, owner, pending=len(recv))
        yield ("commwait", None)
    else:
        for run in interior:
            run()
        _mark_window("comm.exchange", sched, owner, coalesce=opts.coalesce)
        recv = yield ("alltoallv", send)
    return assemble_ghost(sched, xlocal, recv)
