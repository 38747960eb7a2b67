"""Region-partition properties: every partition is a loss-free cover.

For every structure class (including the adversarial near-misses) and a
gauntlet of edge shapes, :func:`partition_regions` must place every
stored entry in **exactly one** region.  The representation makes that
structural — the regions share the canonical input and one ``owner``
label per entry — so the checks pin the representation: one shared
source and owner, every entry labeled with a region, region sizes that
add up, and each region's materialized format holding exactly its own
entries (up to the explicit zeros a dense window pads with).
"""

import numpy as np
import pytest

from repro.compiler.specialize import SKEW_FACTOR, SKEW_MIN, partition_regions
from repro.formats.coo import COOMatrix
from tests.conftest import case_rng
from tests.generators import STRUCTURE_CLASSES

REPS = 3
CLASS_ID = {name: i for i, name in enumerate(sorted(STRUCTURE_CLASSES))}
CASES = [
    (cls, rep) for cls in sorted(STRUCTURE_CLASSES) for rep in range(REPS)
]


def _nonzeros(coo):
    """A COO's entries other than explicit zeros, as comparable bytes."""
    coo = coo.canonicalized()
    keep = coo.vals != 0
    return tuple(a[keep].tobytes() for a in (coo.row, coo.col, coo.vals))


def _assert_loss_free_cover(coo, partition):
    coo = coo.canonicalized()
    regions = partition.regions
    source, owner = regions[0].source, regions[0].owner
    # 1) one shared canonical source and one owner array: the regions
    #    are views of the input, not copies of it
    assert all(r.source is source and r.owner is owner for r in regions)
    assert np.array_equal(source.row, coo.row)
    assert np.array_equal(source.col, coo.col)
    assert source.vals.tobytes() == coo.vals.tobytes()
    # 2) every entry is labeled with exactly one region: labels are
    #    0..k-1 in region order, and none is left unclaimed (-1)
    assert [r.label for r in regions] == list(range(len(regions)))
    assert len(owner) == coo.nnz
    assert np.isin(owner, np.arange(len(regions))).all(), "an entry is unclaimed"
    assert sum(r.nnz for r in regions) == coo.nnz
    # 3) each region's materialized format holds exactly its entries
    #    (a dense window may add explicit zero padding)
    for region in regions:
        built = region.build().to_coo()
        assert _nonzeros(built) == _nonzeros(region.coo), region.detail


@pytest.mark.parametrize("cls,rep", CASES)
def test_partition_is_loss_free_on_every_structure_class(cls, rep):
    rng = case_rng(7000 + CLASS_ID[cls] * 10 + rep)
    n = int(rng.integers(24, 97))
    coo = STRUCTURE_CLASSES[cls](rng, n)
    partition = partition_regions(coo)
    _assert_loss_free_cover(coo, partition)
    assert partition.nnz == coo.canonicalized().nnz


def test_materialized_regions_rebuild_the_matrix_exactly():
    rng = case_rng(7100)
    coo = STRUCTURE_CLASSES["hybrid"](rng, 64)
    partition = partition_regions(coo)
    total = np.zeros(coo.shape)
    for region in partition.regions:
        total += region.build().to_coo().to_dense()
    assert np.array_equal(total, coo.to_dense())


@pytest.mark.parametrize(
    "shape,entries",
    [
        ((0, 0), ()),
        ((1, 1), ((0, 0, 3.0),)),
        ((1, 1), ()),
        ((5, 0), ()),
        ((1, 64), tuple((0, j, 1.0) for j in range(64))),  # one skewed row
        ((64, 1), tuple((i, 0, 1.0) for i in range(64))),
    ],
)
def test_partition_handles_degenerate_shapes(shape, entries):
    ii = [e[0] for e in entries]
    jj = [e[1] for e in entries]
    vv = [e[2] for e in entries]
    coo = COOMatrix(shape, ii, jj, vv)
    partition = partition_regions(coo)
    _assert_loss_free_cover(coo, partition)
    assert len(partition.regions) >= 1  # never an empty region list


def test_all_dense_matrix_partitions_loss_free():
    rng = case_rng(7101)
    n = 32
    dense = rng.integers(1, 5, size=(n, n)).astype(float)
    coo = COOMatrix.from_dense(dense)
    partition = partition_regions(coo)
    _assert_loss_free_cover(coo, partition)
    # a fully dense matrix is one dense window, not a shredded mosaic
    kinds = [r.kind for r in partition.regions if r.coo.nnz]
    assert kinds and kinds[0] == "dense"


@pytest.mark.parametrize("n", [15, 16, 17, 23, 24, 25, 31, 32, 33])
def test_partition_survives_tile_boundary_off_by_one_shapes(n):
    """Shapes straddling the 8-wide tile grid: the truncated last tile
    row/column must not drop or double-claim entries."""
    rng = case_rng(7200 + n)
    dense = (rng.random((n, n)) < 0.6).astype(float) * 3.0
    # plant a window that ends exactly at the ragged edge
    dense[n - 16:, n - 16:] = 2.0
    coo = COOMatrix.from_dense(dense)
    partition = partition_regions(coo)
    _assert_loss_free_cover(coo, partition)


def test_partition_of_rectangular_matrices_is_loss_free():
    rng = case_rng(7300)
    for shape in ((24, 80), (80, 24), (17, 66)):
        dense = (rng.random(shape) < 0.2).astype(float)
        dense[3:19, 4:20] = 5.0  # a planted window
        coo = COOMatrix.from_dense(dense)
        partition = partition_regions(coo)
        _assert_loss_free_cover(coo, partition)


def test_single_skewed_row_becomes_a_skew_region():
    n = 80
    ii = list(range(n)) + [7] * (n // 2)
    jj = list(range(n)) + list(range(0, n, 2))
    coo = COOMatrix.from_entries((n, n), ii, jj, np.ones(len(ii)))
    partition = partition_regions(coo)
    _assert_loss_free_cover(coo, partition)
    kinds = {r.kind for r in partition.regions if r.coo.nnz}
    assert "skew" in kinds
    skew = next(r for r in partition.regions if r.kind == "skew")
    assert set(np.unique(skew.coo.row)) == {7}


def test_config_thresholds_are_respected():
    """A hub row shorter than SKEW_MIN is never peeled, even far above
    SKEW_FACTOR times the mean row length."""
    n = 80
    extra = [0, 2, 4, 10, 12, 14]  # row 7: its diagonal plus these
    ii = list(range(n)) + [7] * len(extra)
    jj = list(range(n)) + extra
    coo = COOMatrix.from_entries((n, n), ii, jj, np.ones(len(ii)))
    assert SKEW_FACTOR * coo.nnz / n <= 1 + len(extra) < SKEW_MIN
    partition = partition_regions(coo)
    _assert_loss_free_cover(coo, partition)
    assert "skew" not in {r.kind for r in partition.regions}
