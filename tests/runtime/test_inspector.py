"""Inspector/executor: schedules gather exactly the requested values."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.distribution import (
    BlockDistribution,
    CyclicDistribution,
    IndirectDistribution,
    MultiBlockDistribution,
)
from repro.distribution.translation import build_translation_table, dereference
from repro.runtime import CommOptions, Machine, build_schedule_replicated, build_schedule_translated
from repro.runtime.comm import exchange_window


def make_x(dist, scale=1.0):
    """Per-rank local x arrays with x_global[i] = scale * i."""
    return [scale * dist.owned_by(p).astype(float) for p in range(dist.nprocs)]


def run_gather_replicated(dist, needed_per_rank):
    m = Machine(dist.nprocs)
    xs = make_x(dist)

    def prog(p):
        yield ("phase", "inspector")
        sched = yield from build_schedule_replicated(p, dist, needed_per_rank[p])
        yield ("phase", "executor")
        ghost = yield from exchange_window(sched, xs[p], CommOptions(overlap=False))
        return sched, ghost

    results, stats = m.run(prog)
    return results, stats


def test_replicated_gather_block():
    dist = BlockDistribution(12, 3)
    needed = [np.array([0, 5, 11]), np.array([2]), np.array([], dtype=np.int64)]
    results, _ = run_gather_replicated(dist, needed)
    sched0, ghost0 = results[0]
    assert sched0.ghost_global.tolist() == [0, 5, 11]
    assert ghost0.tolist() == [0.0, 5.0, 11.0]
    sched2, ghost2 = results[2]
    assert ghost2.size == 0


def test_replicated_gather_dedups_requests():
    dist = CyclicDistribution(10, 2)
    results, _ = run_gather_replicated(dist, [np.array([3, 3, 7, 3]), np.array([3])])
    sched0, ghost0 = results[0]
    assert sched0.ghost_global.tolist() == [3, 7]
    assert ghost0.tolist() == [3.0, 7.0]


def test_self_owned_requests_no_messages():
    dist = BlockDistribution(8, 2)
    needed = [np.array([0, 1]), np.array([6, 7])]  # all self-owned
    _, stats = run_gather_replicated(dist, needed)
    assert stats.total_msgs() == 0


def test_ghost_slot_of():
    dist = BlockDistribution(10, 2)
    results, _ = run_gather_replicated(dist, [np.array([9, 2, 5]), np.array([])])
    sched, _ = results[0]
    assert sched.ghost_slot_of([2, 5, 9]).tolist() == [0, 1, 2]
    assert sched.ghost_slot_of([4]).item() == -1


def test_translation_table_build_and_deref():
    dist = IndirectDistribution.random(20, 3, rng=7)
    m = Machine(3)

    def prog(p):
        table = yield from build_translation_table(p, 20, 3, dist.owned_by(p))
        q = np.arange(20)
        owners, locals_ = yield from dereference(table, q)
        return owners, locals_

    results, stats = m.run(prog)
    i = np.arange(20)
    for p in range(3):
        owners, locals_ = results[p]
        assert np.array_equal(owners, dist.owner(i))
        assert np.array_equal(locals_, dist.local_index(i))
    assert stats.total_msgs() > 0  # the structural cost of the Chaos path


def test_translated_gather_matches_replicated():
    toy = (
        IndirectDistribution.random(16, 4, rng=3),
        [np.arange(0, 16, 3), np.array([1, 2]), np.array([15]), np.array([])],
    )
    # the translation ablation's input: 40 ghosts per rank over n = 1000;
    # the table build moves Θ(n) bytes (15,856 vs 936 today)
    r = np.random.default_rng(11)
    ablation = (
        IndirectDistribution.random(1000, 4, rng=11),
        [np.unique(r.choice(1000, size=40, replace=False)) for _ in range(4)],
    )
    for (dist, needed), min_ratio in ((toy, 1.0), (ablation, 12.0)):
        xs = make_x(dist, scale=2.0)
        m = Machine(4)

        def prog(p):
            yield ("phase", "inspector")
            table = yield from build_translation_table(
                p, dist.nglobal, 4, dist.owned_by(p)
            )
            sched = yield from build_schedule_translated(p, table, needed[p])
            yield ("phase", "executor")
            ghost = yield from exchange_window(sched, xs[p], CommOptions(overlap=False))
            return ghost

        results, stats_chaos = m.run(prog)
        for p in range(4):
            want = 2.0 * np.unique(needed[p]).astype(float)
            assert np.allclose(results[p], want)

        # the same schedule through the replicated inspector costs less
        # traffic (the exchanges that follow move identical bytes)
        _, stats_repl = run_gather_replicated(dist, needed)
        chaos = stats_chaos.phase("inspector").total_nbytes()
        repl = stats_repl.phase("inspector").total_nbytes()
        assert chaos > min_ratio * repl


def test_multiblock_gather():
    dist = MultiBlockDistribution([(0, 3, 0), (3, 6, 1), (6, 9, 0), (9, 12, 1)])
    results, _ = run_gather_replicated(dist, [np.array([4, 9]), np.array([0, 8])])
    assert results[0][1].tolist() == [4.0, 9.0]
    assert results[1][1].tolist() == [0.0, 8.0]


@given(st.integers(2, 5), st.integers(5, 30), st.integers(0, 1000))
@settings(max_examples=25, deadline=None)
def test_gather_property(P, n, seed):
    """Any rank can request any subset under any indirect distribution."""
    rng = np.random.default_rng(seed)
    dist = IndirectDistribution.random(n, P, rng=seed)
    needed = [rng.choice(n, size=rng.integers(0, n), replace=False) for _ in range(P)]
    results, _ = run_gather_replicated(dist, needed)
    for p in range(P):
        sched, ghost = results[p]
        assert np.allclose(ghost, np.unique(needed[p]).astype(float))
