"""Permutations as index-translation relations (paper Sec. 2.2).

A permutation P is stored as two integer arrays — PERM and IPERM, the map
and its inverse — and viewed as a relation of ⟨i, i'⟩ tuples, where i is
the original index and i' the permuted one.  The compiler joins such a
relation into a query when an array's storage is indexed by permuted
indices (paper Eq. 6); the distribution machinery reuses the same idea for
global-to-local index translation.
"""

from __future__ import annotations

import numpy as np

from repro.errors import FormatError
from repro.formats.base import index_array, is_permutation

__all__ = ["Permutation"]


class Permutation:
    """A bijection on ``range(n)``.

    ``perm[i]`` is the permuted index i' of original index i;
    ``iperm[i']`` recovers i.  Invariant: ``iperm[perm[i]] == i``.
    """

    def __init__(self, perm):
        self.perm = index_array(perm)
        n = len(self.perm)
        if not is_permutation(self.perm):
            raise FormatError("not a permutation of range(n)")
        self.iperm = np.empty(n, dtype=np.int64)
        self.iperm[self.perm] = np.arange(n)

    @classmethod
    def identity(cls, n: int) -> "Permutation":
        return cls(np.arange(n))

    @classmethod
    def random(cls, n: int, rng=None) -> "Permutation":
        return cls(np.random.default_rng(rng).permutation(n))

    @classmethod
    def from_inverse(cls, iperm) -> "Permutation":
        iperm = index_array(iperm)
        perm = np.empty(len(iperm), dtype=np.int64)
        perm[iperm] = np.arange(len(iperm))
        return cls(perm)

    def __len__(self) -> int:
        return len(self.perm)

    def __call__(self, i):
        """Apply: original index (array ok) -> permuted index."""
        return self.perm[i]

    def inverse(self) -> "Permutation":
        return Permutation(self.iperm)

    def compose(self, other: "Permutation") -> "Permutation":
        """(self ∘ other): first apply ``other``, then ``self``."""
        if len(self) != len(other):
            raise FormatError("cannot compose permutations of different sizes")
        return Permutation(self.perm[other.perm])

    def apply_to_vector(self, x: np.ndarray) -> np.ndarray:
        """y with ``y[perm[i]] = x[i]`` (moves element i to its new slot)."""
        x = np.asarray(x)
        out = np.empty_like(x)
        out[self.perm] = x
        return out

    def storage(self, prefix: str):
        """Storage bindings for generated code (PERM and IPERM arrays)."""
        return {f"{prefix}_perm": self.perm, f"{prefix}_iperm": self.iperm}

    def __eq__(self, other):
        if not isinstance(other, Permutation):
            return NotImplemented
        return np.array_equal(self.perm, other.perm)

    def __hash__(self):
        raise TypeError("Permutation is unhashable")

    def __repr__(self):
        return f"Permutation(n={len(self.perm)})"
