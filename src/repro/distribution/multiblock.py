"""The BlockSolve distribution: several contiguous row ranges per processor.

"For parallel execution, each color is divided among the processors.
Therefore each processor receives several blocks of contiguous rows. ...
the distribution relation in the BlockSolve library is replicated, since
each processor usually receives only a small number of contiguous rows."
(paper Sec. 1 & 3.3)

More general than HPF-2 GEN_BLOCK (a processor owns one range per color),
yet far more structured than INDIRECT — the representation whose
exploitation produces the cheap inspectors of Table 3.
"""

from __future__ import annotations

import numpy as np

from repro.distribution.base import Distribution
from repro.errors import DistributionError

__all__ = ["MultiBlockDistribution"]


class MultiBlockDistribution(Distribution):
    """Ownership by a replicated list of (start, end, proc) ranges.

    Ranges must be disjoint, sorted, and cover [0, n).  Local offsets
    number each processor's ranges consecutively in range order.
    ``nprocs`` (default: the highest rank named, plus one) lets trailing
    ranks own nothing.
    """

    replicated = True

    def __init__(self, ranges: list[tuple[int, int, int]], nprocs: int | None = None):
        if not ranges:
            raise DistributionError("empty range list")
        ranges = sorted((int(s), int(e), int(p)) for s, e, p in ranges)
        n = ranges[-1][1]
        P = max(max(p for _, _, p in ranges) + 1, nprocs or 0)
        super().__init__(n, P)
        pos = 0
        for s, e, p in ranges:
            if s != pos or e < s:
                raise DistributionError(
                    f"ranges must tile [0, n) contiguously; gap at {pos}"
                )
            pos = e
        self.ranges = ranges
        self.starts = np.asarray([s for s, _, _ in ranges], dtype=np.int64)
        self.procs = np.asarray([p for _, _, p in ranges], dtype=np.int64)
        # local base offset of each range on its owner
        base = np.zeros(len(ranges), dtype=np.int64)
        counts = np.zeros(P, dtype=np.int64)
        for k, (s, e, p) in enumerate(ranges):
            base[k] = counts[p]
            counts[p] += e - s
        self.base = base
        self.counts = counts

    @classmethod
    def from_color_classes(
        cls, clique_ptr, colors, nprocs: int
    ) -> "MultiBlockDistribution":
        """The BlockSolve assignment: within each color, deal the cliques'
        rows out to the processors in contiguous runs."""
        clique_ptr = np.asarray(clique_ptr, dtype=np.int64)
        colors = np.asarray(colors, dtype=np.int64)
        ranges: list[tuple[int, int, int]] = []
        ncolors = int(colors.max(initial=-1)) + 1
        for c in range(ncolors):
            cliques = np.flatnonzero(colors == c)
            if len(cliques) == 0:
                continue
            # deal whole cliques (never split one): processor p gets a
            # contiguous run of this color's cliques
            k = len(cliques)
            chunk = -(-k // nprocs)
            for p in range(nprocs):
                a = min(p * chunk, k)
                b = min((p + 1) * chunk, k)
                if b > a:
                    s = int(clique_ptr[cliques[a]])
                    e = int(clique_ptr[cliques[b - 1] + 1])
                    ranges.append((s, e, p))
        return cls(ranges, nprocs)

    def _range_of(self, i) -> np.ndarray:
        return np.searchsorted(self.starts, np.asarray(i), side="right") - 1

    def owner(self, i):
        return self.procs[self._range_of(i)]

    def local_index(self, i):
        i = np.asarray(i)
        k = self._range_of(i)
        return self.base[k] + (i - self.starts[k])

    def owned_by(self, p: int) -> np.ndarray:
        parts = [
            np.arange(s, e) for s, e, q in self.ranges if q == p
        ]
        return np.concatenate(parts) if parts else np.empty(0, dtype=np.int64)

    def local_count(self, p: int) -> int:
        return int(self.counts[p])

    def ranges_of(self, p: int) -> list[tuple[int, int]]:
        """The contiguous global ranges owned by p (range order)."""
        return [(s, e) for s, e, q in self.ranges if q == p]
