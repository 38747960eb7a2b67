"""The dense-window search against the full-grid algorithm it replaced.

``_reference_find_dense_windows`` is the earlier tile-grid sweep, kept
verbatim as the oracle: one Python iteration per 8x8 tile, a full-nnz
count per candidate, an explicit overlap test.  The production search
keeps the occupied tiles as sorted keys (no tile grid), starts only at
dense 2x2 tile blocks and counts a window from a row slice of the
canonical COO; it must return the very same window list, and
``partition_regions`` must produce bitwise-identical regions, on a seeded
sweep of shapes (ragged edge tiles included), planted fills, block
diagonals (windows off the tile grid), narrow and shredded bands,
staircases of overlapping dense runs and degenerate inputs.  A digest
pins every plan and first call over 148 matrices to the bits the planner
gave before swept windows went uncounted.
"""

import hashlib
import tracemalloc

import numpy as np
import pytest

from repro.analysis.structure import analyze_structure
from repro.compiler import CostModel, autoplan, specialize
from repro.compiler.specialize import (
    MIN_WINDOW_TILES,
    TILE,
    TILE_FILL,
    WINDOW_FILL,
    partition_regions,
)
from repro.formats import COOMatrix, DenseVector
from tests.conftest import DEFAULT_TEST_SEED, case_rng
from tests.generators import STRUCTURE_CLASSES, integer_vector


def _reference_find_dense_windows(coo, profile):
    """Disjoint dense rectangles, as (r0, c0, h, w) in global coords."""
    n, m = coo.shape
    t = TILE
    min_edge = MIN_WINDOW_TILES * t
    if n < min_edge or m < min_edge or coo.nnz == 0:
        return []
    th, tw = -(-n // t), -(-m // t)
    counts = np.zeros((th, tw), dtype=np.int64)
    np.add.at(counts, (coo.row // t, coo.col // t), 1)
    hsz = np.minimum(t, n - np.arange(th) * t)
    wsz = np.minimum(t, m - np.arange(tw) * t)
    area = hsz[:, None] * wsz[None, :]
    densetile = counts >= TILE_FILL * area
    used = np.zeros((th, tw), dtype=bool)
    accepted: list[tuple[int, int, int, int]] = []

    def overlaps(r0, c0, h, w) -> bool:
        for ar0, ac0, ah, aw in accepted:
            if r0 < ar0 + ah and ar0 < r0 + h and c0 < ac0 + aw and ac0 < c0 + w:
                return True
        return False

    def accept(r0, c0, h, w) -> bool:
        if h < min_edge or w < min_edge or overlaps(r0, c0, h, w):
            return False
        inside = int(
            np.count_nonzero(
                (coo.row >= r0)
                & (coo.row < r0 + h)
                & (coo.col >= c0)
                & (coo.col < c0 + w)
            )
        )
        if inside < WINDOW_FILL * h * w:
            return False
        accepted.append((r0, c0, h, w))
        used[r0 // t : -(-(r0 + h) // t), c0 // t : -(-(c0 + w) // t)] = True
        return True

    # 1) seed with the profile's diagonal-block partition: a wide diagonal
    #    block that is actually dense is a window even if its interior
    #    tiles straddle the grid
    for b in range(max(0, len(profile.blockptr) - 1)):
        lo, hi = int(profile.blockptr[b]), int(profile.blockptr[b + 1])
        if hi - lo >= min_edge:
            accept(lo, lo, hi - lo, hi - lo)

    # 2) greedy maximal rectangles over the dense-tile grid.  Requiring
    #    >= 2x2 tiles keeps a narrow band out: its diagonal tiles may be
    #    individually dense but their off-diagonal neighbors never are.
    for ti in range(th):
        for tj in range(tw):
            if not densetile[ti, tj] or used[ti, tj]:
                continue
            j2 = tj
            while (
                j2 + 1 < tw and densetile[ti, j2 + 1] and not used[ti, j2 + 1]
            ):
                j2 += 1
            i2 = ti
            while i2 + 1 < th and bool(
                np.all(densetile[i2 + 1, tj : j2 + 1])
                and not np.any(used[i2 + 1, tj : j2 + 1])
            ):
                i2 += 1
            r0, c0 = ti * t, tj * t
            h = min(n, (i2 + 1) * t) - r0
            w = min(m, (j2 + 1) * t) - c0
            accept(r0, c0, h, w)
    return accepted


def _full_scan_entries(coo, r0, c0, h, w):
    """The earlier counting rule: one pass over every stored entry."""
    return np.flatnonzero(
        (coo.row >= r0) & (coo.row < r0 + h) & (coo.col >= c0) & (coo.col < c0 + w)
    )


# ----------------------------------------------------------------------
# the seeded sweep
# ----------------------------------------------------------------------
def _coo(shape, rows, cols, rng):
    rows, cols = np.concatenate(rows), np.concatenate(cols)
    return COOMatrix.from_entries(shape, rows, cols, rng.standard_normal(len(rows)))


def _rect(rng, r0, c0, h, w, fill):
    a, b = np.divmod(np.flatnonzero(rng.random(h * w) < fill), w)
    return r0 + a, c0 + b


def _planted(rng, n, m):
    """Scattered background plus 1-4 planted rectangles of 40-100% fill
    at arbitrary (mostly not tile-aligned) offsets, some on the edges."""
    rows, cols = [rng.integers(0, n, n)], [rng.integers(0, m, n)]
    for _ in range(int(rng.integers(1, 5))):
        h, w = int(rng.integers(8, min(n, 60) + 1)), int(rng.integers(8, min(m, 60) + 1))
        r0 = int(rng.choice([0, n - h, rng.integers(0, n - h + 1)]))
        c0 = int(rng.choice([0, m - w, rng.integers(0, m - w + 1)]))
        r, c = _rect(rng, r0, c0, h, w, rng.uniform(0.4, 1.0))
        rows.append(r)
        cols.append(c)
    return _coo((n, m), rows, cols, rng)


def _block_diagonal(rng, n):
    """Dense diagonal blocks of widths that straddle the 8x8 grid."""
    rows, cols, lo = [], [], 0
    while lo < n:
        width = min(n - lo, int(rng.integers(5, 41)))
        r, c = _rect(rng, lo, lo, width, width, rng.uniform(0.5, 1.0))
        rows += [r, np.arange(lo, lo + width)]  # a full diagonal keeps blocks whole
        cols += [c, np.arange(lo, lo + width)]
        lo += width
    return _coo((n, n), rows, cols, rng)


def _banded(rng, n, half):
    """A band of the given half-bandwidth (8 shreds it into 16x16 windows)."""
    rows, cols = [], []
    for off in range(-half, half + 1):
        i = np.arange(max(0, -off), min(n, n - off))
        rows.append(i)
        cols.append(i + off)
    rows.append(rng.integers(0, n, n // 4))
    cols.append(rng.integers(0, n, n // 4))
    return _coo((n, n), rows, cols, rng)


def _staircase(rng, n):
    """Dense rectangles stepping down and right, each overlapping the last
    in tile rows and columns: the greedy sweep's start order decides
    which window takes the shared tiles."""
    rows, cols, r0, c0 = [rng.integers(0, n, n)], [rng.integers(0, n, n)], 0, 0
    while True:
        h, w = 8 * int(rng.integers(2, 6)), 8 * int(rng.integers(2, 6))
        if r0 + h > n or c0 + w > n:
            return _coo((n, n), rows, cols, rng)
        r, c = _rect(rng, r0, c0, h, w, rng.uniform(0.8, 1.0))
        rows.append(r)
        cols.append(c)
        r0 += 8 * int(rng.integers(1, h // 8))
        c0 += 8 * int(rng.integers(1, w // 8))


def _case(k, rng=None):
    rng = rng or case_rng(7300, k)
    if k >= 96:  # wide bands (7 is just under shredding, 12 well over) and staircases
        n = int(rng.integers(60, 300))
        return _staircase(rng, n) if k % 3 == 2 else _banded(rng, n, (7, 12)[k % 3])
    kind = k % 6
    if kind == 0:  # square, often not a multiple of 8
        n = int(rng.integers(16, 200))
        return _planted(rng, n, n)
    if kind == 1:  # rectangular, ragged edge tiles on both axes
        return _planted(rng, int(rng.integers(16, 160)), int(rng.integers(16, 240)))
    if kind == 2:
        return _block_diagonal(rng, int(rng.integers(40, 240)))
    if kind == 3:
        return _banded(rng, int(rng.integers(40, 300)), 3)
    if kind == 4:
        return _banded(rng, int(rng.integers(40, 300)), 8)
    # degenerate: empty, smaller than 16, or one 16-edge window exactly
    n = int(rng.choice([0, 7, 12, 15, 16, 40]))
    m = int(rng.choice([5, 15, 16, 33]))
    if n and rng.random() < 0.7:
        return _planted(rng, n, m) if min(n, m) >= 8 else _coo(
            (n, m), [rng.integers(0, n, 6)], [rng.integers(0, m, 6)], rng
        )
    return COOMatrix((n, m), [], [], [])


CASES = range(126)


def _reference_dense_region(coo, profile):
    """The grid sweep's windows, and their entries by full scans."""
    windows = _reference_find_dense_windows(coo, profile)
    inside = [_full_scan_entries(coo, *window) for window in windows]
    return windows, np.concatenate(inside) if inside else np.empty(0, dtype=np.int64)


def _reference_partition(coo, monkeypatch):
    with monkeypatch.context() as mp:
        mp.setattr(specialize, "_find_dense_windows", _reference_dense_region)
        return partition_regions(coo)


@pytest.mark.parametrize("k", CASES)
def test_window_list_and_regions_match_the_grid_sweep(k, monkeypatch):
    coo = _case(k).canonicalized()
    profile = analyze_structure(coo)
    windows, inside = specialize._find_dense_windows(coo, profile)
    assert windows == _reference_find_dense_windows(coo, profile)
    want = _reference_dense_region(coo, profile)[1]
    assert np.sort(inside).tobytes() == np.sort(want).tobytes()
    got, want = partition_regions(coo), _reference_partition(coo, monkeypatch)
    assert len(got.regions) == len(want.regions)
    for g, w in zip(got.regions, want.regions):
        assert (g.kind, g.format_name, g.detail, g.windows) == (
            w.kind, w.format_name, w.detail, w.windows
        )
        assert (g.stored, g.segments) == (w.stored, w.segments)
        for arr in ("row", "col", "vals"):
            a, b = getattr(g.coo, arr), getattr(w.coo, arr)
            assert a.dtype == b.dtype and a.tobytes() == b.tobytes()


def test_sweep_exercises_every_path():
    """The sweep is only an oracle if it reaches every branch: tile-grid
    windows, off-grid seeded windows, shredded bands, ragged edges."""
    seeded = swept = ragged = abutting = 0
    for k in CASES:
        coo = _case(k).canonicalized()
        n, m = coo.shape
        windows = _reference_find_dense_windows(coo, analyze_structure(coo))
        for r0, c0, h, w in windows:
            if r0 % TILE or h % TILE:
                seeded += 1
            else:
                swept += 1
            ragged += (r0 + h == n and n % TILE) or (c0 + w == m and m % TILE)
        if k >= 96 and k % 3 == 2:  # a staircase window cut short by an earlier one
            abutting += any(
                a != b and (a[0] + a[2] == b[0] or a[1] + a[3] == b[1]) for a in windows for b in windows
            )
    assert seeded >= 10 and swept >= 50 and ragged >= 5 and abutting >= 5, (seeded, swept, ragged, abutting)


def test_window_search_memory_grows_with_nnz_not_the_tile_grid():
    """A 40,000-row band has 25e6 tiles but 280k entries: the search's
    traced peak stays a few bytes per entry (the tile grid was >200 MB)."""
    n = 40_000
    coo = _banded(case_rng(7301), n, 3).canonicalized()
    profile = analyze_structure(coo)
    tracemalloc.start()
    try:
        specialize._find_dense_windows(coo, profile)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 48 * coo.nnz, (peak, coo.nnz)


# ----------------------------------------------------------------------
# the whole first call, pinned
# ----------------------------------------------------------------------
#: sha256 of every plan below, taken from the planner before swept
#: windows went uncounted and the dense claim came from the tile sort
PLAN_DIGEST = "122a3ef5a700663ad352d66af978624de09ef1ceaeece56e382828219e2cdabf"


def _digest_cases():
    """``(matrix, x)``: the sweep's cases with integer values, then every
    generator class at n = 200 and 2000.  Fixed streams, not the run's
    seed, and exact sums, so BLAS order cannot move a bit."""
    for k in CASES:
        rng = np.random.default_rng([DEFAULT_TEST_SEED, 7300, k])
        coo = _case(k, rng).canonicalized()
        vals = integer_vector(rng, coo.nnz)
        yield COOMatrix(coo.shape, coo.row, coo.col, vals, canonical=True), integer_vector(rng, coo.shape[1])
    for c, gen in enumerate(STRUCTURE_CLASSES.values()):
        for n in (200, 2000):
            rng = np.random.default_rng([DEFAULT_TEST_SEED, 7302, c, n])
            coo = gen(rng, n)
            yield coo, integer_vector(rng, coo.shape[1])


def _plan_digest() -> str:
    """sha256 over every candidate's regions (kind, format, detail,
    windows, pricing inputs, entries), the ranking with each prediction's
    exact bits, and the first-call ``y`` of the chosen plan and of every
    feasible split."""
    h = hashlib.sha256()
    for coo, x in _digest_cases():
        plan = autoplan(coo, model=CostModel())
        for cand in plan.candidates:
            h.update(repr((cand.format_name, cand.feasible, [float(p).hex() for p in cand.region_predictions])).encode())
            for r in cand.partition.regions:
                h.update(repr((r.kind, r.format_name, r.detail, r.windows, r.stored, r.segments)).encode())
                for arr in (r.coo.row, r.coo.col, r.coo.vals):
                    h.update(arr.tobytes())
        hybrid = plan.candidate("Hybrid")
        for chosen in (plan, hybrid) if hybrid.feasible else (plan,):
            kernel, fmts = chosen.compile(coo)
            fmts["X"], fmts["Y"] = DenseVector(x), DenseVector.zeros(coo.shape[0])
            kernel(**fmts)
            h.update(fmts["Y"].vals.tobytes())
    return h.hexdigest()


def test_plans_and_first_calls_match_the_pinned_digest():
    assert _plan_digest() == PLAN_DIGEST
