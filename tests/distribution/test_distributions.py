"""Distribution relations: bijectivity, inverses, and structure."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.distribution import (
    BlockCyclicDistribution,
    BlockDistribution,
    CyclicDistribution,
    GeneralizedBlockDistribution,
    IndirectDistribution,
    MultiBlockDistribution,
)
from repro.errors import DistributionError
from tests.oracle.relational import ind


def all_dists(n, P):
    yield BlockDistribution(n, P)
    yield CyclicDistribution(n, P)
    yield BlockCyclicDistribution(n, P, 3)
    sizes = [n // P] * P
    sizes[0] += n - sum(sizes)
    yield GeneralizedBlockDistribution(sizes)
    yield IndirectDistribution.random(n, P, rng=0)
    step = max(1, n // (2 * P))
    ranges = []
    pos = 0
    p = 0
    while pos < n:
        end = min(n, pos + step)
        ranges.append((pos, end, p % P))
        pos = end
        p += 1
    yield MultiBlockDistribution(ranges)


@pytest.mark.parametrize("n,P", [(20, 4), (17, 3), (5, 8), (1, 1)])
def test_all_distributions_are_bijections(n, P):
    for d in all_dists(n, P):
        d.validate()
        seen = set()
        i = np.arange(n)
        for g, p, l in zip(i, d.owner(i), d.local_index(i)):
            assert (int(p), int(l)) not in seen
            seen.add((int(p), int(l)))
        assert len(seen) == n


@pytest.mark.parametrize("n,P", [(20, 4), (17, 3)])
def test_owned_by_matches_owner(n, P):
    for d in all_dists(n, P):
        covered = []
        for p in range(P):
            mine = d.owned_by(p)
            assert (d.owner(mine) == p).all() if len(mine) else True
            # local offsets must be 0..count-1 in owned_by order
            assert np.array_equal(d.local_index(mine), np.arange(len(mine)))
            covered.extend(mine.tolist())
        assert sorted(covered) == list(range(n))


@pytest.mark.parametrize("n,P", [(20, 4), (17, 3)])
def test_global_index_inverse(n, P):
    for d in all_dists(n, P):
        i = np.arange(n)
        p = d.owner(i)
        l = d.local_index(i)
        for g in range(n):
            assert d.global_index(int(p[g]), int(l[g])) == g


def test_block_distribution_shape():
    d = BlockDistribution(10, 3)
    assert d.owned_by(0).tolist() == [0, 1, 2, 3]
    assert d.owned_by(2).tolist() == [8, 9]


def test_block_distribution_more_procs_than_rows():
    d = BlockDistribution(3, 8)
    d.validate()
    assert sum(d.local_count(p) for p in range(8)) == 3


def test_cyclic_distribution():
    d = CyclicDistribution(7, 3)
    assert d.owner([0, 1, 2, 3]).tolist() == [0, 1, 2, 0]
    assert d.local_index([3]).tolist() == [1]


def test_block_cyclic():
    d = BlockCyclicDistribution(12, 2, 2)
    assert d.owner([0, 1, 2, 3, 4]).tolist() == [0, 0, 1, 1, 0]
    d.validate()


def test_gen_block_balanced_for_weights():
    w = np.array([10, 1, 1, 1, 1, 10, 1, 1])
    d = GeneralizedBlockDistribution.balanced_for_weights(w, 2)
    d.validate()
    loads = [w[d.owned_by(p)].sum() for p in range(2)]
    assert abs(loads[0] - loads[1]) <= 10


def test_gen_block_rejects_negative():
    with pytest.raises(DistributionError):
        GeneralizedBlockDistribution([3, -1])


def test_indirect_from_owned_lists():
    d = IndirectDistribution.from_owned_lists([[2, 0], [1, 3]])
    assert d.owner([0, 1, 2, 3]).tolist() == [0, 1, 0, 1]
    d.validate()


def test_indirect_rejects_overlap():
    with pytest.raises(DistributionError):
        IndirectDistribution.from_owned_lists([[0, 1], [1]])


def test_indirect_rejects_gap():
    with pytest.raises(DistributionError):
        IndirectDistribution.from_owned_lists([[0], [2]])


@pytest.mark.parametrize("bad", [[0.5, 1.2, 0.9], [0.0, np.nan, 1.0], [0.0, np.inf, 1.0]])
def test_indirect_rejects_non_integral_map(bad):
    with pytest.raises(DistributionError):
        IndirectDistribution(bad, 2)
    with pytest.raises(DistributionError):
        IndirectDistribution.from_owned_lists([bad[:1], bad[1:]])


def test_indirect_accepts_integral_floats():
    assert IndirectDistribution([0.0, 1.0, 0.0], 2).owner([0, 1, 2]).tolist() == [0, 1, 0]
    d = IndirectDistribution.from_owned_lists([[2.0, 0.0], [1.0]])
    assert d.owner([0, 1, 2]).tolist() == [0, 1, 0]


def test_as_relation_arity():
    rel = ind(BlockDistribution(6, 2))
    assert rel.fields == ("i", "p", "ip")
    assert len(rel) == 6


def test_multiblock_requires_tiling():
    with pytest.raises(DistributionError):
        MultiBlockDistribution([(0, 3, 0), (4, 6, 1)])  # gap at 3


def test_multiblock_ranges_of():
    d = MultiBlockDistribution([(0, 2, 0), (2, 5, 1), (5, 6, 0)])
    assert d.ranges_of(0) == [(0, 2), (5, 6)]
    assert d.local_index([5]).tolist() == [2]  # after 0,1 from the first range


def test_multiblock_from_color_classes():
    # two colors of cliques: rows [0,4) color 0, rows [4,6) color 1
    d = MultiBlockDistribution.from_color_classes([0, 2, 4, 6], [0, 0, 1], 2)
    d.validate()
    # each color's rows are split over both processors
    assert d.owner([0]).item() == 0
    assert d.owner([4]).item() == 0
    assert 1 in d.owner(np.arange(6))


@given(st.integers(1, 40), st.integers(1, 6), st.integers(0, 2**31 - 1))
@settings(max_examples=40, deadline=None)
def test_random_indirect_always_valid(n, P, seed):
    IndirectDistribution.random(n, P, rng=seed).validate()
