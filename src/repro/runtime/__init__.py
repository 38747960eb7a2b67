"""Simulated SPMD runtime: the stand-in for the paper's IBM SP-2 + MPI.

* :class:`~repro.runtime.machine.Machine` — a deterministic BSP-style
  multiprocessor: every rank is a Python generator that yields collectives
  (``alltoallv``, ``allreduce``, ``allgather``, ``barrier``, ``phase``)
  and resumes with the result.  The machine runs ranks in lockstep,
  measures each rank's compute time between collectives, and counts every
  message and byte.
* :class:`~repro.runtime.machine.CommModel` — an α–β (latency/bandwidth)
  model used to convert counted traffic into estimated communication time
  when reporting parallel times (absolute numbers are not the claim; the
  relative inspector/executor shapes are).
* :mod:`~repro.runtime.inspector` — the inspector/executor machinery
  (paper Sec. 3.2.3 and the Chaos comparison of Sec. 4).

See DESIGN.md ("Substitutions") for why a simulator preserves the paper's
claims: the quantities compared — index-translation work, translation-table
construction, request/exchange volume — are real computation and real data
movement here too.
"""

from repro.runtime.faults import (
    DeliveryConfig,
    FaultInjector,
    FaultPlan,
)
from repro.runtime.machine import (
    Machine,
    CommModel,
    RunStats,
    PhaseStats,
    Fragmented,
)
from repro.runtime.inspector import (
    GatherSchedule,
    build_schedule_replicated,
    build_schedule_translated,
)
from repro.runtime.schedule_cache import (
    DEFAULT_SCHEDULE_CACHE,
    ScheduleCache,
    schedule_cache_stats,
)
from repro.runtime.comm import CommOptions

__all__ = [
    "Machine",
    "CommModel",
    "RunStats",
    "PhaseStats",
    "Fragmented",
    "FaultPlan",
    "FaultInjector",
    "DeliveryConfig",
    "GatherSchedule",
    "build_schedule_replicated",
    "build_schedule_translated",
    "ScheduleCache",
    "DEFAULT_SCHEDULE_CACHE",
    "schedule_cache_stats",
    "CommOptions",
]
