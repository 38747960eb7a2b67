"""Concurrency stress over the shared caches.

The failure modes these tests exist to catch are the classic ones of a
lookup-then-insert cache shared across threads: duplicate compilations of
the same structural key, lost updates (an insert overwritten by a racing
insert of a *different* key's entry), unbounded growth, and torn stats.
Every test hammers the cache from many threads released together by a
barrier, then asserts global accounting invariants that only hold if the
critical sections really are atomic.
"""

from __future__ import annotations

import threading
import time
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest

from repro.compiler import clear_kernel_cache, compile_kernel
from repro.compiler.plan_cache import PlanCache
from repro.formats import CCSMatrix, COOMatrix, CRSMatrix, DenseVector, ELLMatrix
from repro.kernels.spmv import SPMV_SRC
from repro.observability import metrics
from repro.runtime.schedule_cache import ScheduleCache
from tests.runtime.test_schedule_cache import _sched


# ----------------------------------------------------------------------
# PlanCache: single-flight + LRU under contention
# ----------------------------------------------------------------------
def _hammer(cache, keys, n_threads, builds, build_delay=0.002):
    """Every thread requests every key once; returns {key: {results}}."""
    barrier = threading.Barrier(n_threads)
    lock = threading.Lock()
    results: dict = {k: [] for k in keys}

    def build_for(key):
        def build():
            with lock:
                builds[key] = builds.get(key, 0) + 1
            time.sleep(build_delay)  # widen the race window
            return ("kernel", key)

        return build

    def worker(tid):
        barrier.wait()
        for key in keys:
            kern, outcome = cache.get_or_compile(key, build_for(key))
            with lock:
                results[key].append((kern, outcome))

    with ThreadPoolExecutor(n_threads) as pool:
        list(pool.map(worker, range(n_threads)))
    return results


def test_exactly_one_compile_per_key_under_contention():
    n_threads, keys = 16, [("k", i) for i in range(8)]
    cache = PlanCache("compiler", max_entries=64)
    builds: dict = {}
    results = _hammer(cache, keys, n_threads, builds)

    # single-flight: every key compiled exactly once, ever
    assert builds == {k: 1 for k in keys}
    stats = cache.stats()
    assert stats["misses"] == len(keys)
    # nothing lost: every requester got its own key's kernel
    for key in keys:
        assert len(results[key]) == n_threads
        assert all(kern == ("kernel", key) for kern, _ in results[key])
        outcomes = [o for _, o in results[key]]
        assert outcomes.count("compiled") == 1
        assert set(outcomes) <= {"compiled", "coalesced", "hit"}
    # full accounting: every request is exactly one of the three
    assert (
        stats["hits"] + stats["misses"] + stats["coalesced"]
        == n_threads * len(keys)
    )
    assert stats["size"] == len(keys)


def test_no_lost_updates_with_mixed_structures():
    """Random interleavings of 16 keys from 8 threads: the store must end
    bounded, complete, and every response must match its key."""
    keys = [("mix", i) for i in range(16)]
    cache = PlanCache("compiler", max_entries=16)
    builds: dict = {}
    rng = np.random.default_rng(1997)
    orders = [rng.permutation(len(keys)) for _ in range(8)]
    barrier = threading.Barrier(8)

    def worker(tid):
        barrier.wait()
        out = []
        for rep in range(4):
            for i in orders[tid]:
                key = keys[i]
                kern, _ = cache.get_or_compile(
                    key, lambda key=key: ("kernel", key)
                )
                out.append((key, kern))
        return out

    with ThreadPoolExecutor(8) as pool:
        all_out = [item for out in pool.map(worker, range(8)) for item in out]
    for key, kern in all_out:
        assert kern == ("kernel", key), "a request got another key's kernel"
    assert len(cache) == len(keys)
    stats = cache.stats()
    assert stats["hits"] + stats["misses"] + stats["coalesced"] == len(all_out)


def test_lru_eviction_bounds_size_and_keeps_hot_entries():
    cache = PlanCache("compiler", max_entries=4)
    for i in range(4):
        cache.insert(("k", i), i)
    assert cache.get(("k", 0)) == 0  # touch: k0 becomes most recent
    cache.insert(("k", 4), 4)  # evicts k1, the least recently used
    assert len(cache) == 4
    assert cache.get(("k", 1)) is None
    assert cache.get(("k", 0)) == 0
    assert cache.stats()["evictions"] == 1


def test_eviction_never_exceeds_bound_under_threads():
    cache = PlanCache("compiler", max_entries=8)
    barrier = threading.Barrier(8)

    def worker(tid):
        barrier.wait()
        for i in range(64):
            key = ("t", tid, i)
            cache.get_or_compile(key, lambda key=key: key)
            assert len(cache) <= 8

    with ThreadPoolExecutor(8) as pool:
        list(pool.map(worker, range(8)))
    assert len(cache) == 8
    assert cache.stats()["evictions"] == 8 * 64 - 8


def test_build_errors_propagate_to_leader_and_waiters():
    cache = PlanCache("compiler")
    n_threads = 6
    barrier = threading.Barrier(n_threads)
    errors, calls = [], []
    lock = threading.Lock()

    def build():
        with lock:
            calls.append(1)
        time.sleep(0.005)
        raise ValueError("planned failure")

    def worker(tid):
        barrier.wait()
        try:
            cache.get_or_compile(("bad",), build)
        except ValueError as exc:
            with lock:
                errors.append(str(exc))

    with ThreadPoolExecutor(n_threads) as pool:
        list(pool.map(worker, range(n_threads)))
    assert len(errors) == n_threads  # everyone saw the failure...
    assert len(calls) >= 1           # ...from at most a few build attempts
    assert len(cache) == 0           # and nothing bogus was cached
    # the key is not poisoned: a later request just builds again
    kern, outcome = cache.get_or_compile(("bad",), lambda: "fixed")
    assert (kern, outcome) == ("fixed", "compiled")


def test_rejects_zero_capacity():
    with pytest.raises(ValueError):
        PlanCache(max_entries=0)


def test_coalesced_compiles_are_counted_in_metrics():
    cache = PlanCache("compiler")
    release = threading.Event()

    def slow_build():
        release.wait(1.0)
        return "kernel"

    with metrics.scoped() as registry:
        leader = threading.Thread(
            target=lambda: cache.get_or_compile(("k",), slow_build, backend="vectorized")
        )
        leader.start()
        while not cache._inflight:  # leader registered, build in progress
            time.sleep(0.0005)
        follower = threading.Thread(
            target=lambda: cache.get_or_compile(
                ("k",), pytest.fail, backend="vectorized"
            )
        )
        follower.start()
        release.set()
        leader.join()
        follower.join()
        snap = registry.snapshot()
        assert snap["compiler.cache_coalesced{backend=vectorized}"] == 1
        assert snap["compiler.cache_misses{backend=vectorized}"] == 1
    assert cache.stats()["coalesced"] == 1


# ----------------------------------------------------------------------
# real kernels: concurrent compiles vs the single-threaded oracle
# ----------------------------------------------------------------------
def test_concurrent_compiles_bitwise_match_single_threaded_oracle():
    """Many threads compiling mixed formats through the global cache must
    produce kernels whose results equal the sequentially-compiled ones."""
    clear_kernel_cache()
    rng = np.random.default_rng(42)
    dense = (rng.random((24, 24)) < 0.3) * rng.standard_normal((24, 24))
    coo = COOMatrix.from_dense(dense)
    mats = [
        CRSMatrix.from_coo(coo),
        CCSMatrix.from_coo(coo),
        ELLMatrix.from_coo(coo),
    ]
    x = np.linspace(-1.0, 1.0, 24)

    def run_once(A):
        fmts = {"A": A, "X": DenseVector(x), "Y": DenseVector.zeros(24)}
        k = compile_kernel(SPMV_SRC, fmts)
        k(**fmts)
        return fmts["Y"].vals

    oracle = [run_once(A) for A in mats]  # sequential, cache warm after
    clear_kernel_cache()
    barrier = threading.Barrier(12)

    def worker(i):
        barrier.wait()
        return i % 3, run_once(mats[i % 3])

    with ThreadPoolExecutor(12) as pool:
        for which, got in pool.map(worker, range(12)):
            assert np.array_equal(got, oracle[which])
    from repro.compiler import kernel_cache_stats

    stats = kernel_cache_stats()
    assert stats["misses"] == 3  # one compile per distinct structure
    assert stats["size"] == 3
    clear_kernel_cache()


# ----------------------------------------------------------------------
# ScheduleCache under threads
# ----------------------------------------------------------------------
def test_schedule_cache_concurrent_churn_is_consistent():
    cache = ScheduleCache(max_entries=8)
    keys = [("k", i) for i in range(16)]
    template = _sched()
    barrier = threading.Barrier(8)

    def worker(tid):
        barrier.wait()
        rng = np.random.default_rng(tid)
        for step in range(200):
            key = keys[rng.integers(len(keys))]
            op = rng.integers(4)
            if op == 0:
                cache.put(key, template)
            elif op == 1:
                got = cache.get(key)
                if got is not None:
                    assert np.array_equal(got.ghost_global, template.ghost_global)
                    got.ghost_global[0] = -1  # private copy: never poisons
            elif op == 2:
                cache.invalidate(key)
            else:
                cache.count("hits" if step % 2 else "misses")
            assert len(cache) <= 8

    with ThreadPoolExecutor(8) as pool:
        list(pool.map(worker, range(8)))
    # counters survived the churn without tearing: each worker recorded
    # 200 // 2 = 100 of each (op==3 splits evenly by step parity) at most;
    # the invariant worth asserting is that nothing was lost relative to
    # the per-thread tallies — recompute them deterministically
    expected_hits = expected_misses = 0
    for tid in range(8):
        rng = np.random.default_rng(tid)
        for step in range(200):
            rng.integers(len(keys))
            if rng.integers(4) == 3:
                if step % 2:
                    expected_hits += 1
                else:
                    expected_misses += 1
    assert cache.stats.hits == expected_hits
    assert cache.stats.misses == expected_misses
    # a poisoned get() copy never reached the store
    for key in keys:
        got = cache.get(key)
        if got is not None:
            assert np.array_equal(got.ghost_global, template.ghost_global)


def test_schedule_cache_clear_races_are_safe():
    cache = ScheduleCache(max_entries=32)
    template = _sched()
    stop = threading.Event()

    def churn():
        i = 0
        while not stop.is_set():
            cache.put(("c", i % 64), template)
            cache.get(("c", (i + 7) % 64))
            i += 1

    threads = [threading.Thread(target=churn) for _ in range(4)]
    for t in threads:
        t.start()
    for _ in range(50):
        cache.clear()
        time.sleep(0.001)
    stop.set()
    for t in threads:
        t.join()
    assert len(cache) <= 32
    d = cache.stats.as_dict()
    assert set(d) == {"hits", "misses", "rejected", "invalidations"}
