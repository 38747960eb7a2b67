"""Adjacency construction from sparse matrix patterns."""

from __future__ import annotations

import numpy as np

from repro.errors import ReproError

__all__ = ["adjacency_csr", "contracted_graph", "group_of"]


def _csr(n: int, key: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The CSR pattern of the edge keys ``v * n + w`` (repeats dropped)."""
    key = np.sort(key)
    key = key[np.diff(key, prepend=-1) != 0]
    m = max(n, 1)
    return np.concatenate(([0], np.cumsum(np.bincount(key // m, minlength=n)))), key % m


def adjacency_csr(coo, include_self: bool = True) -> tuple[np.ndarray, np.ndarray]:
    """The symmetrized structural adjacency of a square matrix, as CSR.

    Vertex i is adjacent to j iff A[i,j] or A[j,i] is stored.  With
    ``include_self`` the vertex itself is always its own neighbour — the
    right convention for i-node detection (two rows with identical
    off-diagonal structure but differing diagonals are still "identical
    nodes" of the underlying graph).
    """
    if coo.shape[0] != coo.shape[1]:
        raise ReproError("adjacency requires a square matrix")
    n = coo.shape[0]
    diag = np.arange(n if include_self else 0, dtype=np.int64)
    r, c = np.concatenate([coo.row, coo.col, diag]), np.concatenate([coo.col, coo.row, diag])
    return _csr(n, r * n + c)


def group_of(gptr, members, n: int) -> np.ndarray:
    """The group id of every vertex; the groups must partition ``range(n)``."""
    members = np.asarray(members, dtype=np.int64)
    count = np.bincount(members, minlength=n)
    if len(count) != n or np.any(count != 1):
        raise ReproError("the groups do not partition the vertices")
    group = np.empty(n, dtype=np.int64)
    group[members] = np.repeat(np.arange(len(gptr) - 1), np.diff(gptr))
    return group


def contracted_graph(ptr, idx, gptr, members) -> tuple[np.ndarray, np.ndarray]:
    """Contract the vertex groups ``(gptr, members)`` (a partition) into
    super-vertices: the CSR adjacency (self-loops removed) in which groups
    g and h are adjacent iff some member of g is adjacent to one of h."""
    group = group_of(gptr, members, len(ptr) - 1)
    src, dst = np.repeat(group, np.diff(ptr)), group[idx]
    return _csr(len(gptr) - 1, (src * (len(gptr) - 1) + dst)[src != dst])
