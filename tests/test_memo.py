"""One contract for the three stores built on :class:`repro.memo.Memo`:
the kernel cache, the inspector's schedule cache and the native tier's
library memo."""

from __future__ import annotations

import threading
import time

import pytest

from repro.compiler import native
from repro.compiler.plan_cache import PlanCache
from repro.memo import Memo
from repro.runtime.schedule_cache import ScheduleCache
from tests.runtime.test_schedule_cache import _sched

#: instantiation -> (a fresh store of that bound, its i-th distinct value,
#: the identity of a value)
STORES = {
    "plan": (lambda n: PlanCache("compiler", n), lambda i: i, lambda v: v),
    "schedule": (ScheduleCache, lambda i: _sched(rank=i), lambda v: v.rank),
    "native": (lambda n: Memo(native._LIBRARIES.name, n, native._LIBRARIES.copy), lambda i: i, lambda v: v),
}
COPYING = [name for name, (new, _, _) in STORES.items() if new(1).copy is not None]


@pytest.fixture(params=list(STORES))
def store(request):
    return STORES[request.param]


def _in_flight(memo, build):
    """Start ``memo.get_or_build(("k",), build)`` on a thread and return it
    (and its result list) once the build is registered."""
    out: list = []

    def lead():
        try:
            out.append(memo.get_or_build(("k",), build))
        except ValueError as exc:
            out.append(exc)

    leader = threading.Thread(target=lead)
    leader.start()
    _wait_until(lambda: memo._inflight)
    return leader, out


def _wait_until(condition, seconds=10.0):
    deadline = time.monotonic() + seconds
    while not condition():
        assert time.monotonic() < deadline, "timed out"
        time.sleep(0.0005)


def test_get_refreshes_the_lru_order(store):
    new, make, ident = store
    memo = new(3)
    for i in range(3):
        memo.put(("k", i), make(i))
    assert ident(memo.get(("k", 0))) == 0  # k0 is now the most recent
    memo.put(("k", 3), make(3))  # evicts k1
    assert memo.get(("k", 1)) is None
    assert [ident(memo.get(("k", i))) for i in (0, 2, 3)] == [0, 2, 3]


def test_the_bound_holds(store):
    new, make, ident = store
    memo = new(4)
    for i in range(10):
        memo.put(("k", i), make(i))
        assert len(memo) <= 4
    assert len(memo) == 4 and memo.counts("evictions") == {"evictions": 6}
    assert [ident(memo.get(("k", i))) for i in range(6, 10)] == [6, 7, 8, 9]
    with pytest.raises(ValueError):
        new(0)


def test_clear_racing_a_build_does_not_reinsert_it(store):
    new, make, ident = store
    memo = new(8)
    release = threading.Event()
    leader, out = _in_flight(memo, lambda: (release.wait(10), make(1))[1])
    memo.clear()
    release.set()
    leader.join(timeout=10)
    assert not leader.is_alive()
    (value, outcome), = out
    assert (ident(value), outcome) == (1, "compiled")  # delivered to its caller...
    assert len(memo) == 0 and memo.get(("k",)) is None  # ...but not stored


def test_a_raising_build_reaches_every_waiter_and_caches_nothing(store):
    new, make, ident = store
    memo = new(8)
    release = threading.Event()

    def failing():
        release.wait(10)
        raise ValueError("planned failure")

    leader, out = _in_flight(memo, failing)
    followers = [threading.Thread(target=lambda: out.append(_outcome(memo))) for _ in range(4)]
    for t in followers:
        t.start()
    _wait_until(lambda: memo.counts("coalesced")["coalesced"] == len(followers))
    release.set()
    for t in [leader, *followers]:
        t.join(timeout=10)
        assert not t.is_alive()
    assert [str(e) for e in out] == ["planned failure"] * 5
    assert len(memo) == 0
    value, outcome = memo.get_or_build(("k",), lambda: make(2))  # not poisoned
    assert (ident(value), outcome) == (2, "compiled")


def _outcome(memo):
    try:
        return memo.get_or_build(("k",), pytest.fail)
    except ValueError as exc:
        return exc


@pytest.mark.parametrize("name", COPYING)
def test_a_copy_hook_isolates_every_caller(name):
    new, make, _ = STORES[name]
    memo = new(8)
    original = make(1)
    memo.put(("k",), original)
    original.ghost_global[0] = -1  # the producer mutates after storing
    served = memo.get(("k",))
    served.ghost_global[1] = -1  # a consumer mutates its copy
    built, _ = memo.get_or_build(("b",), lambda: make(2))
    built.ghost_global[0] = -1  # the leader mutates what it built
    hit, outcome = memo.get_or_build(("b",), pytest.fail)
    assert outcome == "hit" and hit is not built
    for key in (("k",), ("b",)):
        assert list(memo.get(key).ghost_global) == [3, 5, 9]


def test_a_stored_zero_is_a_hit(store):
    new, make, ident = store
    memo = new(8)
    memo.put(("k",), make(0))
    assert ident(memo.get(("k",))) == 0
    value, outcome = memo.get_or_build(("k",), pytest.fail)
    assert (ident(value), outcome) == (0, "hit")
