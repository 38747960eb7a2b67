"""HPF-2 INDIRECT distribution: an arbitrary MAP array.

"Indirect distributions are the most general: the user provides an array
MAP such that the element MAP(i) gives the processor to which the ith row
is assigned." (paper Sec. 1)

This class is the *replicated* variant: every processor holds the full MAP
array, so ownership is a local lookup.  The Chaos-style variant, where the
MAP array itself is distributed and ownership queries need communication,
is :class:`repro.distribution.translation.DistributedTranslationTable`.
"""

from __future__ import annotations

import numpy as np

from repro.distribution.base import Distribution
from repro.errors import DistributionError
from repro.formats.base import index_array

__all__ = ["IndirectDistribution"]


class IndirectDistribution(Distribution):
    """Arbitrary ownership via a replicated MAP array.

    Local offsets are assigned by global-index order within each owner
    (the convention Chaos uses when registering index lists).
    """

    replicated = True

    def __init__(self, map_array, nprocs: int | None = None):
        m = index_array(map_array, DistributionError)
        P = int(m.max(initial=-1)) + 1 if nprocs is None else int(nprocs)
        super().__init__(len(m), max(P, 1))
        if len(m) and (m.min() < 0 or m.max() >= self.nprocs):
            raise DistributionError("MAP entries out of processor range")
        self.map = m
        # local offset = rank of i among the owner's indices
        self._local = np.zeros(len(m), dtype=np.int64)
        for p in range(self.nprocs):
            mine = np.flatnonzero(m == p)
            self._local[mine] = np.arange(len(mine))

    @classmethod
    def random(cls, nglobal: int, nprocs: int, rng=None) -> "IndirectDistribution":
        r = np.random.default_rng(rng)
        return cls(r.integers(0, nprocs, size=nglobal), nprocs)

    @classmethod
    def from_owned_lists(cls, lists: list) -> "IndirectDistribution":
        """Chaos-style registration: processor p supplies the list of
        global indices it owns."""
        n = sum(len(l) for l in lists)
        m = -np.ones(n, dtype=np.int64)
        for p, l in enumerate(lists):
            l = index_array(l, DistributionError)
            if len(l) and (l.min() < 0 or l.max() >= n):
                raise DistributionError(
                    "index lists do not cover [0, n): index out of range"
                )
            if np.any(m[l] != -1):
                raise DistributionError("index owned by two processors")
            m[l] = p
        if np.any(m < 0):
            raise DistributionError("index lists do not cover [0, n)")
        return cls(m, len(lists))

    def owner(self, i):
        return self.map[np.asarray(i)]

    def local_index(self, i):
        return self._local[np.asarray(i)]

    def owned_by(self, p: int) -> np.ndarray:
        return np.flatnonzero(self.map == p)
