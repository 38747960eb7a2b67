#!/usr/bin/env python
"""Extensibility: teach the compiler a storage format it has never seen.

The paper's central claim: "the compilation algorithms are independent of
any particular set of storage formats and new storage formats can be added
to the compiler" (Sec. 2.3).  Here we define LAPACK-style *banded* storage
from scratch — outside the library — by implementing the access-method
protocol, and the unmodified compiler plans and generates its loop nest
(built as C at the first call when gcc is on ``PATH``).  Run::

    python examples/custom_format.py
"""

import numpy as np

from repro import COOMatrix, DenseVector, compile_kernel
from repro.formats.base import AccessLevel, Format
from repro.formats.dense import DenseAxisLevel


class BandRowLevel(AccessLevel):
    """Entries of one row of a banded matrix: j ∈ [i-kl, i+ku] ∩ [0, m)."""

    searchable = True
    sorted_enum = True
    dense = False
    search_cost = 1.0  # O(1): position is arithmetic

    def __init__(self, owner: "BandedMatrix"):
        self.binds = (1,)
        self._owner = owner

    def avg_fanout(self):
        return float(self._owner.kl + self._owner.ku + 1)

    def emit_enumerate(self, g, prefix, parent_pos, axis_vars):
        i = parent_pos
        j = axis_vars[1]
        g.open(
            f"for {j} in range(max(0, {i} - {prefix}_kl), "
            f"min({prefix}_n1, {i} + {prefix}_ku + 1)):"
        )
        return f"{i}, {j} - {i} + {prefix}_kl"

    def emit_search(self, g, prefix, parent_pos, axis_exprs):
        i, j = parent_pos, axis_exprs[1]
        g.open(f"if not (max(0, {i} - {prefix}_kl) <= {j} < min({prefix}_n1, {i} + {prefix}_ku + 1)):")
        g.emit("continue")
        g.close()
        return f"{i}, {j} - {i} + {prefix}_kl"


class BandedMatrix(Format):
    """LAPACK-band storage: ``band[i, j - i + kl]`` holds A[i, j]."""

    format_name = "Banded"

    def __init__(self, shape, kl, ku, band):
        self._shape = tuple(shape)
        self.kl, self.ku = int(kl), int(ku)
        self.band = np.ascontiguousarray(band, dtype=np.float64)
        assert self.band.shape == (shape[0], self.kl + self.ku + 1)

    @classmethod
    def from_coo(cls, coo):
        d = coo.col - coo.row
        kl = int(max(0, -d.min(initial=0)))
        ku = int(max(0, d.max(initial=0)))
        band = np.zeros((coo.shape[0], kl + ku + 1))
        band[coo.row, coo.col - coo.row + kl] = coo.vals
        return cls(coo.shape, kl, ku, band)

    def to_coo(self):
        i, off = np.nonzero(self.band)
        j = i + off - self.kl
        ok = (j >= 0) & (j < self._shape[1])
        return COOMatrix.from_entries(self._shape, i[ok], j[ok], self.band[i[ok], off[ok]])

    @property
    def shape(self):
        return self._shape

    @property
    def nnz(self):
        return int(np.count_nonzero(self.band))

    def levels(self):
        return (DenseAxisLevel(0, self._shape[0]), BandRowLevel(self))

    def storage(self, prefix):
        return {
            f"{prefix}_band": self.band,
            f"{prefix}_kl": self.kl,
            f"{prefix}_ku": self.ku,
            f"{prefix}_n0": self._shape[0],
            f"{prefix}_n1": self._shape[1],
        }

    def emit_load(self, g, prefix, axis_vars, pos):
        return f"{prefix}_band[{pos}]"


def main():
    rng = np.random.default_rng(0)
    n = 500
    # a pentadiagonal test matrix
    diags = {-2: 0.3, -1: -1.0, 0: 4.0, 1: -1.0, 2: 0.3}
    rows, cols, vals = [], [], []
    for off, v in diags.items():
        i = np.arange(max(0, -off), min(n, n - off))
        rows.append(i)
        cols.append(i + off)
        vals.append(np.full(len(i), v) * (1 + 0.01 * rng.standard_normal(len(i))))
    coo = COOMatrix.from_entries((n, n), np.concatenate(rows), np.concatenate(cols), np.concatenate(vals))

    A = BandedMatrix.from_coo(coo)
    x = rng.standard_normal(n)
    X, Y = DenseVector(x), DenseVector.zeros(n)
    kernel = compile_kernel(
        "for i in 0:n { for j in 0:n { Y[i] += A[i,j] * X[j] } }",
        formats={"A": A, "X": X, "Y": Y},
    )
    kernel(A=A, X=X, Y=Y)
    assert np.allclose(Y.vals, coo.to_dense() @ x)
    print("the unmodified compiler generated, for a format it has never seen:\n")
    print(kernel.source)
    print("result matches the dense reference: ||y|| =", np.linalg.norm(Y.vals))
    print("the bound call runs as:", kernel.native)  # C when gcc is on PATH


if __name__ == "__main__":
    main()
