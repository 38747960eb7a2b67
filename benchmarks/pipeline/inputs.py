"""Seeded input generators — the benchmark's own, numpy only.

Every matrix is produced as raw ``(row, col, val)`` triplets (canonical:
row-major, no duplicates) and handed to ``COOMatrix.from_entries`` by the
workloads, so a later change to ``repro.matrices`` or ``examples/`` cannot
silently change the load.  The *structure sizes* are fixed by the scale;
the seed moves values, hub rows, window positions and the scattered
residual, so the same seed gives the same inputs and two seeds give
workloads of equal size.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass

import numpy as np

__all__ = [
    "Triplets",
    "grid2d",
    "stencil3d",
    "banded_hub",
    "banded",
    "random_symmetric",
    "planted",
    "with_values",
    "spd_values",
    "fingerprint",
]


@dataclass(frozen=True)
class Triplets:
    """A matrix as raw coordinate triplets plus its name and shape."""

    name: str
    n: int
    row: np.ndarray
    col: np.ndarray
    val: np.ndarray

    @property
    def nnz(self) -> int:
        return len(self.row)

    def dense(self) -> np.ndarray:
        out = np.zeros((self.n, self.n))
        out[self.row, self.col] = self.val
        return out


def _from_offsets(n: int, offsets) -> tuple[np.ndarray, np.ndarray]:
    """Pattern with entry (i, i+d) for every offset d that stays in range."""
    offsets = np.sort(np.asarray(offsets, dtype=np.int64))
    row = np.repeat(np.arange(n, dtype=np.int64), len(offsets))
    col = row + np.tile(offsets, n)
    keep = (col >= 0) & (col < n)
    return row[keep], col[keep]


def _canonical(n: int, row, col) -> tuple[np.ndarray, np.ndarray]:
    """Sort row-major and drop duplicate coordinates."""
    key = np.unique(np.asarray(row, dtype=np.int64) * n + np.asarray(col, dtype=np.int64))
    return key // n, key % n


def grid2d(m: int) -> tuple[int, np.ndarray, np.ndarray]:
    """2-D 5-point stencil pattern on an m×m grid (n = m²)."""
    n = m * m
    i, j = np.divmod(np.arange(n, dtype=np.int64), m)
    rows, cols = [np.arange(n)], [np.arange(n)]
    for di, dj in ((-1, 0), (1, 0), (0, -1), (0, 1)):
        ok = (i + di >= 0) & (i + di < m) & (j + dj >= 0) & (j + dj < m)
        rows.append(np.flatnonzero(ok))
        cols.append((i[ok] + di) * m + (j[ok] + dj))
    return (n, *_canonical(n, np.concatenate(rows), np.concatenate(cols)))


def stencil3d(m: int, dof: int) -> tuple[int, np.ndarray, np.ndarray]:
    """3-D 7-point stencil on m³ points, dof×dof coupling per neighbour."""
    pts = m**3
    idx = np.arange(pts, dtype=np.int64)
    x, rem = np.divmod(idx, m * m)
    y, z = np.divmod(rem, m)
    prow, pcol = [idx], [idx]
    for dx, dy, dz in ((-1, 0, 0), (1, 0, 0), (0, -1, 0), (0, 1, 0), (0, 0, -1), (0, 0, 1)):
        ok = (
            (x + dx >= 0) & (x + dx < m) & (y + dy >= 0) & (y + dy < m)
            & (z + dz >= 0) & (z + dz < m)
        )
        prow.append(idx[ok])
        pcol.append(((x[ok] + dx) * m + (y[ok] + dy)) * m + (z[ok] + dz))
    prow, pcol = np.concatenate(prow), np.concatenate(pcol)
    a, b = np.divmod(np.arange(dof * dof, dtype=np.int64), dof)
    row = (prow[:, None] * dof + a[None, :]).ravel()
    col = (pcol[:, None] * dof + b[None, :]).ravel()
    n = pts * dof
    return (n, *_canonical(n, row, col))


def banded(n: int, half_bandwidth: int) -> tuple[int, np.ndarray, np.ndarray]:
    """Full band |i-j| <= half_bandwidth."""
    return (n, *_from_offsets(n, range(-half_bandwidth, half_bandwidth + 1)))


def banded_hub(
    n: int, half_bandwidth: int, hubs: int, hub_len: int, rng
) -> tuple[int, np.ndarray, np.ndarray]:
    """A band plus ``hubs`` seeded rows of ``hub_len`` scattered entries —
    the row-length skew that makes padded formats (ITPACK) infeasible."""
    row, col = _from_offsets(n, range(-half_bandwidth, half_bandwidth + 1))
    hub_rows = rng.choice(n, size=hubs, replace=False)
    hrow = np.repeat(hub_rows, hub_len)
    hcol = rng.integers(0, n, size=hubs * hub_len)
    return (n, *_canonical(n, np.concatenate([row, hrow]), np.concatenate([col, hcol])))


def random_symmetric(n: int, per_row: int, rng) -> tuple[int, np.ndarray, np.ndarray]:
    """Symmetric scattered pattern with a full diagonal."""
    r = rng.integers(0, n, size=n * per_row // 2)
    c = rng.integers(0, n, size=n * per_row // 2)
    d = np.arange(n, dtype=np.int64)
    return (n, *_canonical(n, np.concatenate([r, c, d]), np.concatenate([c, r, d])))


def planted(
    n: int, half_bandwidth: int, windows: int, window: int, scattered: int, rng
) -> tuple[int, np.ndarray, np.ndarray]:
    """Banded bulk + ``windows`` planted dense window x window blocks +
    ``scattered`` residual entries (what ``plan_hybrid`` looks for).  Each
    window sits in its own row stripe, about n/2 columns off the band, so
    windows overlap neither each other nor the band whatever the seed:
    seeds move the windows, not the amount of structure."""
    row, col = _from_offsets(n, range(-half_bandwidth, half_bandwidth + 1))
    rows, cols = [row], [col]
    stripe = n // windows
    a, b = np.divmod(np.arange(window * window, dtype=np.int64), window)
    for k in range(windows):
        r0 = k * stripe + int(rng.integers(0, stripe - window))
        c0 = (r0 + n // 2 + int(rng.integers(0, n // 8))) % (n - window)
        rows.append(r0 + a)
        cols.append(c0 + b)
    rows.append(rng.integers(0, n, size=scattered))
    cols.append(rng.integers(0, n, size=scattered))
    return (n, *_canonical(n, np.concatenate(rows), np.concatenate(cols)))


def with_values(name: str, pattern, rng) -> Triplets:
    """General (unsymmetric) values in [0.5, 1.5) on a pattern."""
    n, row, col = pattern
    return Triplets(name, n, row, col, rng.uniform(0.5, 1.5, size=len(row)))


def spd_values(name: str, pattern, rng, dominance: float = 0.05) -> Triplets:
    """Symmetric positive-definite values on a structurally symmetric
    pattern: off-diagonals -w(i,j) with w symmetric in [0.5, 1.5), diagonal
    (1 + dominance) x the row's absolute off-diagonal sum (strict diagonal
    dominance, so CG converges in a few dozen iterations whatever the seed)."""
    n, row, col = pattern
    lo, hi = np.minimum(row, col), np.maximum(row, col)
    pair, inverse = np.unique(lo * n + hi, return_inverse=True)
    val = -rng.uniform(0.5, 1.5, size=len(pair))[inverse]
    off = row != col
    rowsum = np.bincount(row[off], weights=-val[off], minlength=n)
    val[~off] = (1.0 + dominance) * rowsum[row[~off]] + 1e-3
    return Triplets(name, n, row, col, val)


def fingerprint(parts) -> str:
    """Short hash over arrays / strings: the run's ``inputs_fingerprint``."""
    h = hashlib.sha256()
    for part in parts:
        if isinstance(part, Triplets):
            for arr in (part.row, part.col, part.val):
                h.update(np.ascontiguousarray(arr).tobytes())
            h.update(part.name.encode())
        elif isinstance(part, np.ndarray):
            h.update(np.ascontiguousarray(part).tobytes())
        else:
            h.update(repr(part).encode())
    return h.hexdigest()[:16]
