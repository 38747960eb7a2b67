"""Greedy graph coloring of the contracted clique graph (paper Fig. 2(b)).

BlockSolve colors the graph induced by the cliques so that cliques of one
color share no matrix entries; the matrix is then reordered color by color
and, within a color, the rows are dealt out to the processors.  A simple
largest-degree-first greedy coloring reproduces the structure the library
relies on (the library itself uses a parallel heuristic coloring; the
*number* of colors only affects constant factors).
"""

from __future__ import annotations

import numpy as np

__all__ = ["greedy_color"]


def greedy_color(ptr, idx, order: str = "degree") -> np.ndarray:
    """Greedy coloring of the CSR graph ``(ptr, idx)`` (self-loops
    ignored), visiting the vertices largest degree first (``"degree"``,
    fewer colors in practice) or in id order (``"natural"``).  Returns
    ``colors``; adjacent vertices always receive different colors."""
    if order not in ("degree", "natural"):
        raise ValueError(f"unknown order {order!r}")
    n = len(ptr) - 1
    seq = np.argsort(-np.diff(ptr), kind="stable") if order == "degree" else np.arange(n)
    p, nbrs = np.asarray(ptr).tolist(), np.asarray(idx).tolist()
    colors = [-1] * n  # v itself is still uncolored when its turn comes
    for v in seq.tolist():
        used = {colors[w] for w in nbrs[p[v] : p[v + 1]]}
        colors[v] = next(c for c in range(len(used) + 1) if c not in used)
    return np.asarray(colors, dtype=np.int64)
