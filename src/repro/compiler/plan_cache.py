"""Keyed plan/kernel cache fronting the compilation pipeline.

Planning, lowering and ``exec``-ing a kernel dominates the cost of
:func:`~repro.compiler.kernels.compile_kernel`; solvers re-issue the same
``compile()`` every iteration.  The cache key captures everything the
generated code depends on — nothing more, so rebinding fresh data of the
same structure is a pure hit:

* the **loop nest**: the canonical ``repr`` of the parsed
  :class:`~repro.compiler.ast_nodes.Program` (source text that parses to
  the same program shares kernels),
* the **format specs**: each array's :meth:`~repro.formats.base.Format.spec`
  — class identity plus any structure that changes codegen (wrapped
  formats, translated axes), never data,
* the **sparsity predicates** of the split statements (Bik–Wijshoff
  output; distinguishes the query structure the planner sees),
* the **backend** name and the planner options (forced driver, merge
  joins).

Hits and misses are counted on the cache object and mirrored into
``repro.observability.metrics`` (``compiler.cache_hits`` /
``compiler.cache_misses``, labeled by backend) so solver loops can verify
they stopped re-planning.

The cache is shared process-wide (the service layer hammers it from many
worker threads at once), so it is bounded and race-free by construction:

* **LRU eviction** at ``max_entries`` — a lookup hit moves the entry to
  the back of the order, an insert past the bound evicts the front
  (least recently used).  The default bound is far above anything the
  test and differential suites allocate, so single-process users never
  observe an eviction.
* **Single-flight compilation** — :meth:`PlanCache.get_or_compile` makes
  the lookup-then-insert sequence atomic: the first thread to miss a key
  becomes the *leader* and runs the build; every concurrent requester of
  the same key waits for the leader instead of compiling again, and is
  counted in ``compiler.cache_coalesced``.
"""

from __future__ import annotations

import functools
import threading
from collections import OrderedDict

from repro.compiler.ast_nodes import Program
from repro.compiler.sparsity import sparsity_predicate, split_statement
from repro.observability import metrics as _metrics

__all__ = ["PlanCache", "kernel_cache_key", "DEFAULT_MAX_ENTRIES"]

#: default PlanCache bound — high enough that eviction never triggers in
#: any single-process workload (the whole test suite compiles a few
#: hundred distinct kernels), low enough to bound a long-lived service
DEFAULT_MAX_ENTRIES = 4096


def kernel_cache_key(
    program: Program,
    formats,
    backend: str,
    force_driver: str | None = None,
    allow_merge: bool = True,
    extra_key: tuple = (),
) -> tuple:
    """The cache key for one compilation request (see module docstring).

    ``extra_key`` lets callers who compile on behalf of a *decision* —
    notably :mod:`repro.compiler.autoplan`, which keys on the structure
    profile's fingerprint — keep otherwise-identical requests apart (or,
    symmetrically, share them only when the decision inputs matched).
    """
    sparse = frozenset(
        name for name in program.arrays() if not formats[name].structurally_dense
    )
    specs = tuple(sorted((name, fmt.spec()) for name, fmt in formats.items()))
    return (
        *_program_key(program, sparse),
        specs,
        backend,
        force_driver,
        allow_merge,
        tuple(extra_key),
    )


@functools.lru_cache(maxsize=1024)
def _program_key(program: Program, sparse: frozenset) -> tuple[str, tuple]:
    """The program-only part of the key: canonical text and the sparsity
    predicates of the split statements (memoized — programs are immutable)."""
    predicates = tuple(
        repr(sparsity_predicate(piece.expr, sparse))
        for stmt in program.body
        for piece in split_statement(stmt)
    )
    return repr(program), predicates


class _Inflight:
    """One in-progress compilation: followers park on ``event``."""

    __slots__ = ("event", "kernel", "error")

    def __init__(self):
        self.event = threading.Event()
        self.kernel = None
        self.error: BaseException | None = None


class PlanCache:
    """Thread-safe bounded-LRU kernel store with single-flight compiles.

    ``lookup`` records a hit or miss (and mirrors it into the metrics
    registry when enabled); ``insert`` stores a compiled kernel, evicting
    the least recently used entry past ``max_entries``.
    :meth:`get_or_compile` is the concurrency-safe front door: lookup and
    insert are one atomic step and concurrent misses on the same key run
    the build exactly once.  ``clear`` drops entries *and* statistics —
    the test-isolation hook.
    """

    def __init__(self, name: str = "compiler", max_entries: int = DEFAULT_MAX_ENTRIES):
        if max_entries < 1:
            raise ValueError("max_entries must be >= 1")
        self.name = name
        self.max_entries = int(max_entries)
        self._lock = threading.Lock()
        self._store: OrderedDict[tuple, object] = OrderedDict()
        self._inflight: dict[tuple, _Inflight] = {}
        self._generation = 0  # bumped by clear(); fences stale in-flight inserts
        self.hits = 0
        self.misses = 0
        self.coalesced = 0
        self.evictions = 0

    def lookup(self, key: tuple, backend: str = ""):
        """The cached kernel for ``key``, or None (recording hit/miss)."""
        with self._lock:
            kernel = self._store.get(key)
            if kernel is not None:
                self._store.move_to_end(key)
                self.hits += 1
            else:
                self.misses += 1
        labels = {"backend": backend} if backend else {}
        if kernel is not None:
            _metrics.record(f"{self.name}.cache_hits", **labels)
        else:
            _metrics.record(f"{self.name}.cache_misses", **labels)
        return kernel

    def insert(self, key: tuple, kernel) -> None:
        with self._lock:
            self._insert_locked(key, kernel)

    def _insert_locked(self, key: tuple, kernel) -> None:
        if key in self._store:
            self._store.move_to_end(key)
            self._store[key] = kernel
            return
        while len(self._store) >= self.max_entries:
            self._store.popitem(last=False)  # least recently used
            self.evictions += 1
            _metrics.record(f"{self.name}.cache_evictions")
        self._store[key] = kernel

    def get_or_compile(self, key: tuple, build, backend: str = ""):
        """Atomic lookup-or-build with single-flight deduplication.

        ``build`` is a zero-argument callable producing the kernel; it
        runs outside the cache lock (compilation is the slow part), but at
        most once per key at a time: concurrent requesters of the same key
        wait for the leader's result instead of compiling a duplicate.

        Returns ``(kernel, outcome)`` with outcome one of

        * ``"hit"`` — served from the store,
        * ``"compiled"`` — this caller was the leader and ran ``build``,
        * ``"coalesced"`` — another thread was already compiling this key;
          we waited and shared its kernel (``compiler.cache_coalesced``).

        A ``build`` that raises propagates the same exception to the
        leader *and* every coalesced waiter; nothing is cached.
        """
        labels = {"backend": backend} if backend else {}
        with self._lock:
            kernel = self._store.get(key)
            if kernel is not None:
                self._store.move_to_end(key)
                self.hits += 1
                leader = False
                flight = None
            else:
                flight = self._inflight.get(key)
                leader = flight is None
                if leader:
                    flight = self._inflight[key] = _Inflight()
                    self.misses += 1
                    generation = self._generation
        if kernel is not None:
            _metrics.record(f"{self.name}.cache_hits", **labels)
            return kernel, "hit"
        if not leader:
            flight.event.wait()
            with self._lock:
                self.coalesced += 1
            _metrics.record(f"{self.name}.cache_coalesced", **labels)
            if flight.error is not None:
                raise flight.error
            return flight.kernel, "coalesced"
        _metrics.record(f"{self.name}.cache_misses", **labels)
        try:
            kernel = build()
        except BaseException as exc:
            flight.error = exc
            with self._lock:
                self._inflight.pop(key, None)
            flight.event.set()
            raise
        flight.kernel = kernel
        with self._lock:
            if self._generation == generation:  # no clear() raced the build
                self._insert_locked(key, kernel)
            self._inflight.pop(key, None)
        flight.event.set()
        return kernel, "compiled"

    def clear(self) -> None:
        """Drop all entries and reset the statistics (in-flight builds
        complete and deliver to their waiters, but are not re-cached as
        winners over whatever repopulates the fresh cache)."""
        with self._lock:
            self._store.clear()
            self._generation += 1
            self.hits = 0
            self.misses = 0
            self.coalesced = 0
            self.evictions = 0

    def stats(self) -> dict[str, int]:
        """``{"hits", "misses", "coalesced", "evictions", "size"}`` snapshot."""
        with self._lock:
            return {
                "hits": self.hits,
                "misses": self.misses,
                "coalesced": self.coalesced,
                "evictions": self.evictions,
                "size": len(self._store),
            }

    def __len__(self) -> int:
        with self._lock:
            return len(self._store)
