"""The diagonal span table against the sorting code it replaced.

The structure profile's diagonal features and the hybrid partition's band
peel read each diagonal's entry count and first/last row from one
O(nnz + n + m) table (:func:`repro.formats.diagonal.diagonal_spans`).
The references below are the earlier versions, kept as oracles: they sort
every entry's offset with ``np.unique(..., return_inverse=True)``.  Both
must agree on every structure class, on rectangular shapes (the table is
keyed ``offset + n - 1``) and on the empty matrix.
"""

import numpy as np
import pytest

from repro.analysis.structure import _diagonal_features, analyze_structure
from repro.compiler.specialize import DIAG_FILL, DIAG_MIN, partition_regions
from repro.formats.coo import COOMatrix
from tests.conftest import case_rng
from tests.generators import STRUCTURE_CLASSES


def _reference_spans(row, col):
    """(offsets, inverse, counts, lo, hi) by a sort of the offsets."""
    offsets, inverse = np.unique(col - row, return_inverse=True)
    lo = np.full(len(offsets), np.iinfo(np.int64).max, dtype=np.int64)
    hi = np.full(len(offsets), np.iinfo(np.int64).min, dtype=np.int64)
    np.minimum.at(lo, inverse, row)
    np.maximum.at(hi, inverse, row)
    return offsets, inverse, np.bincount(inverse), lo, hi


def _reference_diagonal_features(coo):
    if coo.nnz == 0:
        return 0, 0
    offsets, _, _, lo, hi = _reference_spans(coo.row, coo.col)
    return len(offsets), int(np.sum(hi - lo + 1))


def _reference_band_peel(coo, rem):
    """(positions, detail, stored, segments) of the band region the
    remaining entries ``rem`` yield, or None."""
    offsets, inverse, counts, lo, hi = _reference_spans(coo.row[rem], coo.col[rem])
    runlen = hi - lo + 1
    dense_run = (counts >= DIAG_MIN) & (counts >= DIAG_FILL * runlen)
    if not dense_run.any():
        return None
    detail = (
        f"{int(dense_run.sum())} dense diagonal runs, "
        f"offsets {offsets[dense_run].min()}...{offsets[dense_run].max()}"
    )
    positions = np.flatnonzero(rem)[dense_run[inverse]]
    return positions, detail, float(runlen[dense_run].sum()), float(dense_run.sum())


def _band(shape, offsets, rng, scattered):
    n, m = shape
    rows, cols = [rng.integers(0, n, scattered)], [rng.integers(0, m, scattered)]
    for off in offsets:
        i = np.arange(max(0, -off), min(n, m - off))
        keep = rng.random(len(i)) < 0.9  # runs with interior gaps
        rows.append(i[keep])
        cols.append(i[keep] + off)
    r, c = np.concatenate(rows), np.concatenate(cols)
    return COOMatrix.from_entries(shape, r, c, rng.standard_normal(len(r)))


def _cases():
    for name, gen in sorted(STRUCTURE_CLASSES.items()):
        for n in (40, 300):
            yield f"{name}/{n}", lambda gen=gen, n=n, name=name: gen(case_rng(8100, n, len(name)), n)
    for shape in [(120, 300), (300, 120), (1, 90), (90, 1), (257, 64)]:
        yield f"band/{shape}", lambda shape=shape: _band(shape, range(-3, 6), case_rng(8101, *shape), 40)
    yield "random/rect", lambda: COOMatrix.random(80, 200, 0.05, rng=case_rng(8102))
    for shape in [(0, 0), (0, 7), (7, 0), (30, 20)]:
        yield f"empty/{shape}", lambda shape=shape: COOMatrix(shape, [], [], [])


CASES = dict(_cases())


@pytest.mark.parametrize("name", list(CASES))
def test_span_table_matches_the_sorting_references(name):
    coo = CASES[name]().canonicalized()
    assert _diagonal_features(coo) == _reference_diagonal_features(coo)
    regions = partition_regions(coo).regions
    rem = np.ones(coo.nnz, dtype=bool)  # the band peel sees what the dense and skew peels left
    for r in regions:
        if r.kind in ("dense", "skew"):
            rem &= r.owner != r.label
    want = _reference_band_peel(coo, rem) if rem.any() else None
    band = [r for r in regions if r.kind == "band"]
    if want is None:
        assert band == []
        return
    (region,) = band
    assert np.flatnonzero(region.owner == region.label).tobytes() == want[0].tobytes()
    assert (region.detail, region.stored, region.segments) == want[1:]


def test_the_cases_reach_the_band_peel_on_rectangles():
    """The oracle is only as good as its cases: bands peel, rectangular
    ones included, and the profile counts their diagonals."""
    peeled = {name for name, make in CASES.items() if any(r.kind == "band" for r in partition_regions(make()).regions)}
    assert {"band/(120, 300)", "band/(300, 120)", "band/(257, 64)"} <= peeled
    assert len(peeled) >= 8, peeled
    assert analyze_structure(CASES["band/(120, 300)"]()).ndiags >= 9
