"""Seeded structured sparse-matrix generators for property-based tests.

Each generator takes ``(rng, n)`` and returns a :class:`COOMatrix` with a
*planted* sparsity structure — the structure classes the analyzer claims
to detect (block-diagonal, banded, diagonal, power-law skew, symmetric,
i-node similarity) plus hybrids, a uniform-random control, and
**adversarial near-misses** (almost-banded, almost-block-diagonal) that
sit just outside a class so threshold bugs surface.

Two deliberate design choices:

* **Integer values.** All entries (and the test vectors built from
  :func:`integer_vector`) are small integers stored as float64.  Sums of
  smallish integers are *exact* in float64 regardless of association
  order, so the differential harness can assert **bitwise** equality
  between ``block-gemv`` (BLAS: a different reduction order) and the
  interpreted scalar oracle, instead of hiding reordering bugs behind an
  ``allclose`` tolerance.
* **Derived streams.** Callers draw each case's rng from
  ``np.random.default_rng([seed, case_id])`` so adding or reordering
  cases never perturbs existing ones, and any failure replays from the
  ``(seed, case_id)`` pair alone.

``STRUCTURE_CLASSES`` maps class name → generator; the property harness,
round-trip tests and ``bench_autoplan.py`` all iterate it so a new class
added here is automatically covered everywhere.
"""

from __future__ import annotations

import numpy as np

from repro.formats.coo import COOMatrix

__all__ = [
    "STRUCTURE_CLASSES",
    "HYBRID_CLASSES",
    "integer_vector",
    "gen_block_diag",
    "gen_banded",
    "gen_diagonal",
    "gen_power_law",
    "gen_symmetric",
    "gen_inode",
    "gen_hybrid",
    "gen_hybrid_blocks",
    "gen_uniform",
    "gen_near_banded",
    "gen_near_block_diag",
]


def _int_vals(rng: np.random.Generator, k: int) -> np.ndarray:
    """k nonzero small integers as float64 (sign-balanced)."""
    mag = rng.integers(1, 8, size=k)
    sign = rng.choice([-1.0, 1.0], size=k)
    return (mag * sign).astype(float)


def integer_vector(rng: np.random.Generator, n: int) -> np.ndarray:
    """An integer-valued dense vector (float64 storage, exact sums)."""
    return rng.integers(-6, 7, size=n).astype(float)


def _from_ijv(n, m, ii, jj, rng, vals=None) -> COOMatrix:
    ii = np.asarray(ii, dtype=np.int64)
    jj = np.asarray(jj, dtype=np.int64)
    # dedupe (i,j) pairs: duplicate entries would *sum*, which is fine
    # numerically but makes planted structure counts lie
    key = ii * max(m, 1) + jj
    _, keep = np.unique(key, return_index=True)
    ii, jj = ii[keep], jj[keep]
    if vals is None:
        vals = _int_vals(rng, len(ii))
    else:
        vals = np.asarray(vals, dtype=float)[keep]
    return COOMatrix.from_entries((n, m), ii, jj, vals)


# ----------------------------------------------------------------------
def gen_block_diag(rng: np.random.Generator, n: int) -> COOMatrix:
    """Dense-ish blocks of random width 1–6 down the diagonal."""
    ii, jj = [], []
    start = 0
    while start < n:
        w = min(int(rng.integers(1, 7)), n - start)
        rr, cc = np.meshgrid(
            np.arange(start, start + w), np.arange(start, start + w), indexing="ij"
        )
        keep = rng.random(w * w) < 0.9
        keep |= rr.ravel() == cc.ravel()  # keep the diagonal: blocks stay attached
        ii.append(rr.ravel()[keep])
        jj.append(cc.ravel()[keep])
        start += w
    return _from_ijv(n, n, np.concatenate(ii), np.concatenate(jj), rng)


def gen_banded(rng: np.random.Generator, n: int) -> COOMatrix:
    """A contiguous band of half-width 1–4 with light dropout."""
    b = int(rng.integers(1, 5))
    ii, jj = [], []
    for off in range(-b, b + 1):
        lo, hi = max(0, -off), min(n, n - off)
        rows = np.arange(lo, hi)
        keep = rng.random(len(rows)) < (1.0 if off == 0 else 0.85)
        ii.append(rows[keep])
        jj.append(rows[keep] + off)
    return _from_ijv(n, n, np.concatenate(ii), np.concatenate(jj), rng)


def gen_diagonal(rng: np.random.Generator, n: int) -> COOMatrix:
    """A handful of fully-populated scattered diagonals."""
    ndiag = int(rng.integers(1, 6))
    offsets = rng.choice(np.arange(-(n - 1), n), size=ndiag, replace=False)
    if 0 not in offsets:
        offsets[0] = 0  # keep the main diagonal so the matrix is never empty
    ii, jj = [], []
    for off in offsets:
        lo, hi = max(0, -off), min(n, n - off)
        rows = np.arange(lo, hi)
        ii.append(rows)
        jj.append(rows + off)
    return _from_ijv(n, n, np.concatenate(ii), np.concatenate(jj), rng)


def gen_power_law(rng: np.random.Generator, n: int) -> COOMatrix:
    """A few hub rows with ~n/3 entries over a sparse 1–2/row bulk."""
    ii, jj = [np.arange(n)], [np.arange(n)]  # diagonal bulk
    extra = rng.random(n) < 0.5
    ii.append(np.arange(n)[extra])
    jj.append(rng.integers(0, n, size=int(extra.sum())))
    nhubs = int(rng.integers(2, 5))
    hubs = rng.choice(n, size=nhubs, replace=False)
    for h in hubs:
        cols = rng.choice(n, size=max(4, n // 3), replace=False)
        ii.append(np.full(len(cols), h))
        jj.append(cols)
    return _from_ijv(n, n, np.concatenate(ii), np.concatenate(jj), rng)


def gen_symmetric(rng: np.random.Generator, n: int) -> COOMatrix:
    """Symmetric pattern *and* values (A == A^T exactly).

    Built from unique strictly-upper entries mirrored below plus a full
    diagonal, so no duplicate ever sums (summed duplicates could cancel
    to an explicit zero, which value-pruning formats drop — breaking
    exact round-trips for reasons that have nothing to do with symmetry).
    """
    density = 0.04 + 0.06 * rng.random()
    k = max(2 * n, int(density * n * n))
    iu = rng.integers(0, n, size=k)
    ju = rng.integers(0, n, size=k)
    mask = iu < ju
    iu, ju = iu[mask], ju[mask]
    _, keep = np.unique(iu * n + ju, return_index=True)
    iu, ju = iu[keep], ju[keep]
    vu = _int_vals(rng, len(iu))
    ii = np.concatenate([iu, ju, np.arange(n)])
    jj = np.concatenate([ju, iu, np.arange(n)])
    vv = np.concatenate([vu, vu, np.full(n, 4.0)])
    return COOMatrix.from_entries((n, n), ii, jj, vv)


def gen_inode(rng: np.random.Generator, n: int) -> COOMatrix:
    """Runs of consecutive rows sharing one column pattern (FEM-style)."""
    ii, jj = [], []
    row = 0
    while row < n:
        g = min(int(rng.integers(2, 6)), n - row)
        width = int(rng.integers(2, 6))
        cols = rng.choice(n, size=width, replace=False)
        for r in range(row, row + g):
            ii.append(np.full(width, r))
            jj.append(cols)
        row += g
    return _from_ijv(n, n, np.concatenate(ii), np.concatenate(jj), rng)


def gen_hybrid(rng: np.random.Generator, n: int) -> COOMatrix:
    """Band + one planted dense block + a couple of hub rows.

    The block width scales with n (~n/5, at least 4) so that at
    benchmark sizes the dense region is large enough for a composed
    hybrid plan to amortize its per-region dispatch overhead — exactly
    the regime region specialization exists for.
    """
    band = gen_banded(rng, n)
    ii, jj = [band.row], [band.col]
    w = min(max(4, n // 5), n)
    b0 = int(rng.integers(0, n - w + 1))
    rr, cc = np.meshgrid(np.arange(b0, b0 + w), np.arange(b0, b0 + w), indexing="ij")
    ii.append(rr.ravel())
    jj.append(cc.ravel())
    for h in rng.choice(n, size=2, replace=False):
        cols = rng.choice(n, size=n // 4, replace=False)
        ii.append(np.full(len(cols), h))
        jj.append(cols)
    return _from_ijv(n, n, np.concatenate(ii), np.concatenate(jj), rng)


def gen_hybrid_blocks(rng: np.random.Generator, n: int) -> COOMatrix:
    """Planted off-diagonal dense blocks over a sparse uniform background.

    Unlike :func:`gen_hybrid` the blocks sit at arbitrary (row, column)
    offsets — they are *not* diagonal blocks, so only a format storing
    free-floating dense windows (DenseBlocks) captures them.  Blocks are
    placed in disjoint row stripes so their windows never overlap.
    """
    k = max(n, int(0.01 * n * n))
    ii = [rng.integers(0, n, size=k)]
    jj = [rng.integers(0, n, size=k)]
    w = min(max(4, n // 6), n)
    nblk = 2 if n // 2 >= w else 1
    stripe = n // nblk
    for b in range(nblk):
        r0 = int(rng.integers(b * stripe, b * stripe + stripe - w + 1))
        c0 = int(rng.integers(0, n - w + 1))
        rr, cc = np.meshgrid(
            np.arange(r0, r0 + w), np.arange(c0, c0 + w), indexing="ij"
        )
        ii.append(rr.ravel())
        jj.append(cc.ravel())
    return _from_ijv(n, n, np.concatenate(ii), np.concatenate(jj), rng)


def gen_uniform(rng: np.random.Generator, n: int) -> COOMatrix:
    """Uniform random control — no planted structure at all."""
    k = max(n, int(0.05 * n * n))
    return _from_ijv(n, n, rng.integers(0, n, k), rng.integers(0, n, k), rng)


def gen_near_banded(rng: np.random.Generator, n: int) -> COOMatrix:
    """Banded *except* a few far-off-band spoilers — must not classify
    as banded (bandwidth is a max, not a quantile)."""
    band = gen_banded(rng, n)
    k = int(rng.integers(2, 5))
    si = rng.integers(0, n // 2, size=k)
    sj = si + n // 2  # guaranteed far outside any plausible band
    ii = np.concatenate([band.row, si])
    jj = np.concatenate([band.col, sj])
    vv = np.concatenate([band.vals, _int_vals(rng, k)])
    return _from_ijv(n, n, ii, jj, rng, vals=vv)


def gen_near_block_diag(rng: np.random.Generator, n: int) -> COOMatrix:
    """Block-diagonal plus off-block spoilers that *bridge* blocks —
    the interval sweep must widen (or give up), never drop entries."""
    bd = gen_block_diag(rng, n)
    k = int(rng.integers(1, 4))
    si = rng.integers(0, n, size=k)
    sj = (si + n // 2 + rng.integers(0, n // 4, size=k)) % n
    ii = np.concatenate([bd.row, si])
    jj = np.concatenate([bd.col, sj])
    vv = np.concatenate([bd.vals, _int_vals(rng, k)])
    return _from_ijv(n, n, ii, jj, rng, vals=vv)


#: class name -> generator(rng, n) -> COOMatrix
STRUCTURE_CLASSES: dict = {
    "block_diag": gen_block_diag,
    "banded": gen_banded,
    "diagonal": gen_diagonal,
    "power_law": gen_power_law,
    "symmetric": gen_symmetric,
    "inode": gen_inode,
    "hybrid": gen_hybrid,
    "hybrid_blocks": gen_hybrid_blocks,
    "uniform": gen_uniform,
    "near_banded": gen_near_banded,
    "near_block_diag": gen_near_block_diag,
}

#: the classes with *mixed* planted structure — the regime where a
#: region-specialized hybrid plan should beat every single format
#: (``bench_hybrid.py`` gates on exactly these)
HYBRID_CLASSES: dict = {
    "hybrid": gen_hybrid,
    "hybrid_blocks": gen_hybrid_blocks,
}
