"""Tests for i-node detection, clique partition and greedy coloring,
cross-checked against networkx where an oracle exists."""

import networkx as nx
import numpy as np
import pytest
from hypothesis import given, settings

from repro.errors import ReproError
from repro.formats import COOMatrix
from repro.graphs import (
    adjacency_csr,
    clique_partition,
    contracted_graph,
    find_inodes,
    greedy_color,
)
from tests.conftest import square_coo_matrices


def as_sets(ptr, idx):
    """A CSR graph as one neighbour set per vertex."""
    return [set(idx[a:b].tolist()) for a, b in zip(ptr[:-1], ptr[1:])]


def as_lists(gptr, members):
    """A ``(gptr, members)`` partition as one list per group."""
    return [members[a:b].tolist() for a, b in zip(gptr[:-1], gptr[1:])]


def partition(groups):
    """A list of groups as ``(gptr, members)``."""
    return np.cumsum([0] + [len(g) for g in groups]), np.array([v for g in groups for v in g], dtype=np.int64)


def csr(rows):
    """One column list per row as a CSR pattern ``(ptr, idx)``."""
    return partition([sorted(r) for r in rows])


def chain(n):
    """Path graph as a COO matrix."""
    r = list(range(n - 1)) + list(range(1, n))
    c = list(range(1, n)) + list(range(n - 1))
    return COOMatrix.from_entries((n, n), r, c, np.ones(2 * (n - 1)))


def test_adjacency_symmetrizes():
    m = COOMatrix.from_entries((3, 3), [0], [2], [1.0])  # only A[0,2] stored
    adj = as_sets(*adjacency_csr(m))
    assert 0 in adj[2] and 2 in adj[0]


def test_adjacency_self_loops():
    m = COOMatrix((3, 3), [], [], [])
    adj = as_sets(*adjacency_csr(m, include_self=True))
    assert all(i in adj[i] for i in range(3))
    adj2 = as_sets(*adjacency_csr(m, include_self=False))
    assert all(i not in adj2[i] for i in range(3))


def test_adjacency_requires_square():
    with pytest.raises(ReproError):
        adjacency_csr(COOMatrix((2, 3), [], [], []))


def test_find_inodes_groups_identical_patterns():
    pats = csr([{0, 2}, {1}, {0, 2}, set()])
    groups = as_lists(*find_inodes(*pats))
    assert groups == [[0, 2], [1], [3]]


def test_find_inodes_singletons():
    pats = csr([{0}, {1}, {2}])
    assert as_lists(*find_inodes(*pats)) == [[0], [1], [2]]


def test_clique_partition_keeps_valid_seeds():
    # triangle 0-1-2 plus isolated 3
    m = COOMatrix.from_entries(
        (4, 4), [0, 0, 1, 1, 2, 2], [1, 2, 0, 2, 0, 1], np.ones(6)
    )
    adj = adjacency_csr(m)
    cliques = as_lists(*clique_partition(*adj, partition([[0, 1, 2], [3]])))
    assert cliques == [[0, 1, 2], [3]]


def test_clique_partition_refines_non_cliques():
    # path 0-1-2: {0,1,2} is not a clique, must split
    adj = adjacency_csr(chain(3))
    cliques = as_lists(*clique_partition(*adj, partition([[0, 1, 2]])))
    flat = sorted(v for c in cliques for v in c)
    assert flat == [0, 1, 2]
    for c in cliques:
        s = set(c)
        assert all(s <= as_sets(*adj)[v] for v in c)
    assert len(cliques) >= 2


def test_clique_partition_default_singletons():
    adj = adjacency_csr(chain(4))
    cliques = as_lists(*clique_partition(*adj))
    assert cliques == [[0], [1], [2], [3]]


def test_contracted_graph():
    adj = adjacency_csr(chain(4))
    cadj = as_sets(*contracted_graph(*adj, *partition([[0, 1], [2, 3]])))
    assert cadj == [{1}, {0}]


def test_contracted_graph_rejects_overlap():
    adj = adjacency_csr(chain(3))
    with pytest.raises(ReproError):
        contracted_graph(*adj, *partition([[0, 1], [1, 2]]))


def test_contracted_graph_rejects_missing():
    adj = adjacency_csr(chain(3))
    with pytest.raises(ReproError):
        contracted_graph(*adj, *partition([[0, 1]]))


def _assert_proper(adj, colors):
    for v, nbrs in enumerate(adj):
        for w in nbrs:
            if w != v:
                assert colors[v] != colors[w]


@pytest.mark.parametrize("order", ["degree", "natural"])
def test_greedy_color_proper_on_chain(order):
    adj = adjacency_csr(chain(10), include_self=False)
    colors = greedy_color(*adj, order=order)
    _assert_proper(as_sets(*adj), colors)
    assert colors.max() <= 1  # a path is 2-colorable


def test_greedy_color_bad_order():
    with pytest.raises(ValueError):
        greedy_color([0, 0], [], order="zzz")


@given(square_coo_matrices(max_n=9))
@settings(max_examples=40, deadline=None)
def test_greedy_color_always_proper(m):
    adj = adjacency_csr(m, include_self=False)
    colors = greedy_color(*adj)
    _assert_proper(as_sets(*adj), colors)


@given(square_coo_matrices(max_n=9))
@settings(max_examples=30, deadline=None)
def test_color_count_close_to_networkx(m):
    """Our greedy should use no more colors than networkx's greedy + 1."""
    adj = adjacency_csr(m, include_self=False)
    G = nx.Graph()
    G.add_nodes_from(range(m.shape[0]))
    for v, nbrs in enumerate(as_sets(*adj)):
        G.add_edges_from((v, w) for w in nbrs if w != v)
    ref = nx.coloring.greedy_color(G, strategy="largest_first")
    ref_k = max(ref.values(), default=-1) + 1
    ours_k = int(greedy_color(*adj).max(initial=-1)) + 1
    assert ours_k <= ref_k + 1


@given(square_coo_matrices(max_n=9))
@settings(max_examples=30, deadline=None)
def test_clique_partition_property(m):
    adj = adjacency_csr(m, include_self=True)
    groups = find_inodes(*adj)
    cliques = as_lists(*clique_partition(*adj, groups))
    flat = sorted(v for c in cliques for v in c)
    assert flat == list(range(m.shape[0]))
    for c in cliques:
        s = set(c)
        assert all(s <= as_sets(*adj)[v] for v in c)
