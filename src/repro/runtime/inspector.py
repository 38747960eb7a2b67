"""Inspector/executor machinery (paper Sec. 3.2.3 and Sec. 4).

The *inspector* turns the communication-set queries

    Used^(p)(j)    = π_j ( σ_NZ(A^(p)) A^(p) ⋈ Y^(p) )          (Eq. 21)
    RecvInd^(p)    = Used^(p) ⋈ IND(j, q, j')                    (Eq. 22)

into a :class:`GatherSchedule`: who sends me which of their local x
values, and into which ghost slot each lands.  The join with IND is where
distribution structure pays off:

* **replicated IND** (:func:`build_schedule_replicated`) — ownership is a
  local computation; one all-to-all of requests suffices,
* **distributed IND** (:func:`build_schedule_translated`, the Chaos path)
  — Eq. 22 itself becomes a distributed query: the dereference costs two
  extra all-to-all rounds against the translation table (the paper's
  "evaluation of the query (22) might itself require communication").

The *executor* step (:func:`repro.runtime.comm.exchange_window`) ships
the actual values each iteration.

All three are SPMD generator subroutines (``yield from`` them inside a
rank program).
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.distribution.base import Distribution
from repro.distribution.translation import DistributedTranslationTable, dereference
from repro.observability import metrics as _metrics

__all__ = [
    "GatherSchedule",
    "build_schedule_replicated",
    "build_schedule_translated",
]


@dataclass
class GatherSchedule:
    """A materialized communication schedule for gathering ghost values.

    ``ghost_global[g]`` is the global index whose value lands in ghost
    slot g.  ``send_locals[q]`` are *my* local offsets to pack for rank q;
    ``recv_slots[q]`` are the ghost slots filled by rank q's packet, in
    packet order.
    """

    rank: int
    nprocs: int
    ghost_global: np.ndarray
    send_locals: dict[int, np.ndarray] = field(default_factory=dict)
    recv_slots: dict[int, np.ndarray] = field(default_factory=dict)
    #: ghost slots resolved locally (self-owned requests), and their local offsets
    self_slots: np.ndarray = field(default_factory=lambda: np.empty(0, dtype=np.int64))
    self_locals: np.ndarray = field(default_factory=lambda: np.empty(0, dtype=np.int64))

    @property
    def nghost(self) -> int:
        return len(self.ghost_global)

    def ghost_slot_of(self, global_idx) -> np.ndarray:
        """Ghost slot of each (requested) global index; -1 if absent."""
        g = np.asarray(global_idx)
        if self.nghost == 0:
            return np.full(g.shape, -1, dtype=np.int64)
        pos = np.searchsorted(self.ghost_global, g)
        pos = np.clip(pos, 0, self.nghost - 1)
        return np.where(self.ghost_global[pos] == g, pos, -1)

    def checksum(self) -> int:
        """CRC32 fingerprint of every index structure the executor trusts
        (the ``RecvInd`` integrity check of the fault-recovery protocol)."""
        from repro.runtime.faults import schedule_checksum

        return schedule_checksum(self)


def build_schedule_replicated(rank: int, dist: Distribution, needed_global):
    """Inspector against a *replicated* distribution relation.

    Ownership (the ⋈ IND of Eq. 22) is a local lookup; one all-to-all
    carries the requests.  ``yield from`` this inside a rank program.
    """
    needed = np.unique(np.asarray(needed_global, dtype=np.int64))
    if len(needed):
        owners = dist.owner(needed)
        locals_ = np.asarray(dist.local_index(needed), dtype=np.int64)
    else:
        owners = locals_ = np.empty(0, dtype=np.int64)
    sched = yield from _request(rank, dist.nprocs, needed, owners, locals_, "replicated")
    return sched


def build_schedule_translated(
    rank: int, table: DistributedTranslationTable, needed_global
):
    """Inspector against a *distributed* (Chaos) translation table.

    Eq. 22 becomes a distributed query: dereference every needed index
    through the table (two all-to-alls), then ship the requests (a third).
    """
    needed = np.unique(np.asarray(needed_global, dtype=np.int64))
    owners, locals_ = yield from dereference(table, needed)
    sched = yield from _request(rank, table.nprocs, needed, owners, locals_, "translated")
    return sched


def _request(rank, nprocs, needed, owners, locals_, path: str):
    """The tail both inspectors share: from each needed index's owner and
    local offset there to a :class:`GatherSchedule`.  Self-owned indices
    resolve locally; the rest are requested from their owners by LOCAL
    offset (the owner packs directly, no translation there) in one
    all-to-all."""
    sched = GatherSchedule(rank, nprocs, needed)
    self_mask = owners == rank
    sched.self_slots = np.flatnonzero(self_mask)
    sched.self_locals = locals_[self_mask]
    send = {}
    for q in np.unique(owners[~self_mask]):
        mask = owners == q
        send[int(q)] = locals_[mask]
        sched.recv_slots[int(q)] = np.flatnonzero(mask)
    recv = yield ("alltoallv", send)
    for src, loc in recv.items():
        sched.send_locals[src] = np.asarray(loc, dtype=np.int64)
    _record_schedule(sched, needed, path=path)
    return sched


def _record_schedule(sched: GatherSchedule, needed: np.ndarray, path: str) -> None:
    """Inspector metrics: request volume, ghost count, peer fan-out."""
    if not _metrics.metrics_enabled():
        return
    _metrics.record("inspector.schedules", 1, path=path)
    _metrics.observe("inspector.requested_indices", len(needed), path=path)
    _metrics.observe("inspector.ghosts", sched.nghost, path=path)
    _metrics.observe(
        "inspector.peers",
        len(set(sched.send_locals) | set(sched.recv_slots)),
        path=path,
    )
