"""The one bounded memo: a thread-safe LRU with single-flight builds.

Expensive work is done once and reused through three instances of
:class:`Memo`: compiled kernels (:class:`~repro.compiler.plan_cache.PlanCache`),
inspected gather schedules (:class:`~repro.runtime.schedule_cache.ScheduleCache`)
and the native tier's loaded libraries (:mod:`repro.compiler.native`).

* **LRU at ``max_entries``** — ``get`` and a hit move the key to the back;
  storing past the bound evicts the front.
* **Single flight** — :meth:`Memo.get_or_build` runs ``build`` at most once
  per key at a time: the first requester of a cold key is the *leader*;
  concurrent requesters wait for it and share its value (*coalesced*).  A
  build that raises reaches the leader and every waiter, and caches nothing.
* **Generation fence** — :meth:`Memo.clear` drops entries and counters; a
  build in flight across it still delivers to its waiters but is not stored.
* **Copy hook** — ``copy``, when set, is applied to a value on its way in
  and on its way out, so no caller shares the stored object.

Every counted event is also the metric ``<name>.cache_<event>``.  Values
are never None: ``get`` answers None for an absent key.
"""

from __future__ import annotations

import threading
from collections import OrderedDict
from concurrent.futures import Future

from repro.observability import metrics as _metrics

__all__ = ["Memo"]

#: everything a memo counts (a plain dict of these is cheaper than a Counter)
_EVENTS = ("hits", "misses", "coalesced", "evictions", "rejected", "invalidations")


class Memo:
    """Keyed store of built values; see the module docstring."""

    def __init__(self, name: str, max_entries: int, copy=None):
        if max_entries < 1:
            raise ValueError("max_entries must be >= 1")
        self.name = name
        self.max_entries = int(max_entries)
        self.copy = copy
        self._lock = threading.Lock()
        self._store: OrderedDict = OrderedDict()
        self._inflight: dict = {}  # key -> (Future of the leader's build, generation)
        self._generation = 0  # bumped by clear(); fences stale in-flight stores
        self._counts = dict.fromkeys(_EVENTS, 0)

    def _copied(self, value):
        return value if self.copy is None else self.copy(value)

    def count(self, event: str) -> None:
        """Count one ``event`` (and record ``<name>.cache_<event>``)."""
        with self._lock:
            self._counts[event] += 1
        _metrics.record(f"{self.name}.cache_{event}")

    def counts(self, *events: str) -> dict[str, int]:
        """A snapshot of the named counters."""
        with self._lock:
            return {e: self._counts[e] for e in events}

    def stats(self) -> dict[str, int]:
        """``{"hits", "misses", "coalesced", "evictions", "size"}`` snapshot."""
        return {**self.counts("hits", "misses", "coalesced", "evictions"), "size": len(self)}

    def __len__(self) -> int:
        with self._lock:
            return len(self._store)

    def get(self, key):
        """The stored value for ``key`` (now most recently used), or None.
        Counts nothing: callers that decide hit or miss count it."""
        with self._lock:
            value = self._store.get(key)
            if value is not None:
                self._store.move_to_end(key)
        return None if value is None else self._copied(value)

    def put(self, key, value) -> None:
        """Store ``value`` under ``key``, evicting the least recently used
        entry past ``max_entries``."""
        value = self._copied(value)  # outside the lock: copying is the slow part
        with self._lock:
            self._put_locked(key, value)

    def _put_locked(self, key, value) -> None:
        if key in self._store:
            self._store.move_to_end(key)
        else:
            while len(self._store) >= self.max_entries:
                self._store.popitem(last=False)
                self._counts["evictions"] += 1
                _metrics.record(f"{self.name}.cache_evictions")
        self._store[key] = value

    def invalidate(self, key) -> bool:
        """Drop one entry; whether it was present (counted if so)."""
        with self._lock:
            present = self._store.pop(key, None) is not None
        if present:
            self.count("invalidations")
        return present

    def clear(self) -> None:
        """Drop every entry and reset the counters (the generation fence
        keeps builds in flight from re-storing into the fresh memo)."""
        with self._lock:
            self._store.clear()
            self._counts = dict.fromkeys(_EVENTS, 0)
            self._generation += 1

    def get_or_build(self, key, build, **labels):
        """Atomic lookup-or-build: ``(value, outcome)`` with outcome

        * ``"hit"`` — served from the store,
        * ``"compiled"`` — this caller was the leader and ran ``build()``
          (outside the lock),
        * ``"coalesced"`` — another thread was building this key; this one
          waited and shares its value.

        ``labels`` go on the ``hits``/``misses``/``coalesced`` metrics.
        """
        with self._lock:
            value = self._store.get(key)
            if value is not None:
                self._store.move_to_end(key)
                event = "hits"
            elif key in self._inflight:
                flight, event = self._inflight[key][0], "coalesced"
            else:
                flight = Future()
                self._inflight[key] = (flight, self._generation)
                event = "misses"
            self._counts[event] += 1
        _metrics.record(f"{self.name}.cache_{event}", **labels)
        if event == "hits":  # the hot path: no helper call when there is no copy hook
            return (value if self.copy is None else self.copy(value)), "hit"
        if event == "coalesced":
            return self._copied(flight.result()), "coalesced"
        try:
            value = build()
            stored = self._copied(value)
        except BaseException as exc:
            with self._lock:
                del self._inflight[key]
            flight.set_exception(exc)
            raise
        with self._lock:
            if self._inflight.pop(key)[1] == self._generation:
                self._put_locked(key, stored)
        flight.set_result(stored)
        return value, "compiled"
