"""Clique partition of the matrix graph (paper Fig. 2(a), dashed boxes).

BlockSolve partitions the vertices into cliques — mutually adjacent groups.
In a d-dof finite-element matrix, the d rows of one discretization point
have identical adjacency and are mutually adjacent, so the natural
partition starts from the i-node groups; any group that is not actually a
clique is refined greedily.
"""

from __future__ import annotations

import numpy as np

from repro.graphs.adjacency import group_of
from repro.graphs.inodes import leader_groups

__all__ = ["clique_partition"]


def clique_partition(ptr, idx, seed=None) -> tuple[np.ndarray, np.ndarray]:
    """Partition the vertices of the symmetric CSR adjacency ``(ptr, idx)``
    (self-loops included, :func:`~repro.graphs.adjacency.adjacency_csr`)
    into cliques, as :func:`~repro.graphs.inodes.leader_groups`.

    ``seed`` is an optional initial partition ``(gptr, members)``
    (typically the i-node groups): groups that are already cliques are
    kept whole, the rest are refined by a greedy first-fit pass.
    """
    n = len(ptr) - 1
    gptr, members = seed if seed is not None else (np.arange(n + 1), np.arange(n))
    members = np.asarray(members, dtype=np.int64)
    group = group_of(gptr, members, n)
    size = np.diff(gptr)
    # a group is a clique iff each member's neighbours (itself included) hold it whole
    row = np.repeat(np.arange(n), np.diff(ptr))
    inside = np.bincount(row[group[row] == group[idx]], minlength=n)
    short = np.bincount(group, weights=inside != size[group], minlength=len(size))
    lead = np.full(len(size), n)
    np.minimum.at(lead, group, np.arange(n))
    lead = lead[group]
    for g in np.flatnonzero(short).tolist():
        sub: dict[int, list[int]] = {}  # smallest member -> members
        for v in sorted(members[gptr[g] : gptr[g + 1]].tolist()):
            nbrs = set(idx[ptr[v] : ptr[v + 1]].tolist())
            lead[v] = next((c for c, vs in sub.items() if nbrs.issuperset(vs)), v)
            sub.setdefault(lead[v], []).append(v)
    return leader_groups(lead)
