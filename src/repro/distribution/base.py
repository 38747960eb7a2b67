"""The Distribution protocol: the IND(i, p, i') relation.

Every distribution is a bijection between global indices [0, n) and
(processor, local offset) pairs, with local offsets contiguous from 0 on
each processor (paper Sec. 3.1: "a 1-1 mapping between the global index a
and the pair ⟨p, a'⟩").
"""

from __future__ import annotations

import numpy as np

from repro.errors import DistributionError

__all__ = ["Distribution"]


class Distribution:
    """Abstract distribution of [0, nglobal) over nprocs processors.

    Subclasses implement the vectorized ``owner`` and ``local_index``;
    everything else derives.  ``replicated`` declares whether ownership
    can be computed locally on any processor without communication — the
    property whose exploitation Table 3 quantifies.
    """

    #: ownership computable without communication
    replicated: bool = True

    def __init__(self, nglobal: int, nprocs: int):
        if nglobal < 0 or nprocs < 1:
            raise DistributionError(
                f"bad distribution extent n={nglobal}, P={nprocs}"
            )
        self.nglobal = int(nglobal)
        self.nprocs = int(nprocs)

    # ------------------------------------------------------------------
    def owner(self, i) -> np.ndarray:
        """Owner processor of each global index (vectorized)."""
        raise NotImplementedError

    def local_index(self, i) -> np.ndarray:
        """Local offset of each global index on its owner (vectorized)."""
        raise NotImplementedError

    def owned_by(self, p: int) -> np.ndarray:
        """Global indices owned by processor p, in local-offset order."""
        idx = np.arange(self.nglobal)
        mine = idx[self.owner(idx) == p]
        order = np.argsort(self.local_index(mine), kind="stable")
        return mine[order]

    def local_count(self, p: int) -> int:
        return len(self.owned_by(p))

    def global_index(self, p: int, l) -> np.ndarray:
        """Inverse: global index of local offset(s) l on processor p."""
        return self.owned_by(p)[np.asarray(l)]

    def fingerprint(self) -> int:
        """CRC32 of the materialized IND relation: two distributions map
        indistinguishably iff their fingerprints match.

        This is the distribution coordinate of a
        :class:`~repro.runtime.schedule_cache.ScheduleCache` key: a gather
        schedule built against one distribution is reusable under any
        other with the same fingerprint.  Computed once (O(nglobal)) and
        cached on the instance — distributions are immutable by contract.
        """
        fp = getattr(self, "_fingerprint", None)
        if fp is None:
            import zlib

            i = np.arange(self.nglobal)
            crc = zlib.crc32(
                np.asarray([self.nglobal, self.nprocs], dtype=np.int64).tobytes()
            )
            crc = zlib.crc32(np.asarray(self.owner(i), dtype=np.int64).tobytes(), crc)
            crc = zlib.crc32(
                np.asarray(self.local_index(i), dtype=np.int64).tobytes(), crc
            )
            fp = self._fingerprint = crc
        return fp

    # ------------------------------------------------------------------
    def validate(self) -> None:
        """Check the 1-1-and-onto property (paper: "can only be verified
        at run-time"); raises :class:`DistributionError` on violation."""
        i = np.arange(self.nglobal)
        p = self.owner(i)
        l = self.local_index(i)
        if len(i) and (p.min(initial=0) < 0 or p.max(initial=0) >= self.nprocs):
            raise DistributionError("owner out of range")
        for q in range(self.nprocs):
            locs = np.sort(l[p == q])
            if not np.array_equal(locs, np.arange(len(locs))):
                raise DistributionError(
                    f"local offsets on processor {q} are not contiguous from 0"
                )

    def __repr__(self):
        return f"{type(self).__name__}(n={self.nglobal}, P={self.nprocs})"
