"""The structure analyzer: profiles must serialize (and reject foreign
documents), fingerprints must separate structure (not data), and the
block partition must *cover* — every stored entry inside some block."""

import json

import numpy as np
import pytest

from repro.analysis import StructureProfile, analyze_structure
from repro.analysis.structure import _block_partition, _inode_features
from repro.errors import ReproError
from repro.formats import COOMatrix
from repro.graphs.inodes import find_inodes
from repro.matrices import fem_matrix
from tests.conftest import case_rng
from tests.generators import STRUCTURE_CLASSES

# stable per-class stream id (hash() is randomized per interpreter run)
CLASS_ID = {name: i for i, name in enumerate(sorted(STRUCTURE_CLASSES))}

@pytest.mark.parametrize("cls", sorted(STRUCTURE_CLASSES))
def test_profile_round_trips_through_json(cls):
    coo = STRUCTURE_CLASSES[cls](case_rng(0, 7), 40)
    profile = analyze_structure(coo)
    back = StructureProfile.from_json(profile.to_json())
    assert back == profile
    assert back.fingerprint() == profile.fingerprint()


def test_fingerprint_separates_structure_not_data():
    rng = case_rng(1)
    banded = STRUCTURE_CLASSES["banded"](case_rng(2, 0), 48)
    skewed = STRUCTURE_CLASSES["power_law"](case_rng(2, 1), 48)
    assert banded.shape == skewed.shape
    assert (
        analyze_structure(banded).fingerprint()
        != analyze_structure(skewed).fingerprint()
    )
    # same pattern, fresh values -> same fingerprint (structure, not data)
    revalued = COOMatrix.from_entries(
        banded.shape,
        banded.row,
        banded.col,
        rng.integers(1, 9, banded.nnz).astype(float),
    )
    assert (
        analyze_structure(revalued).fingerprint()
        == analyze_structure(banded).fingerprint()
    )


@pytest.mark.parametrize("cls", sorted(STRUCTURE_CLASSES))
@pytest.mark.parametrize("rep", range(2))
def test_block_partition_covers_every_entry(cls, rep):
    """The interval sweep must never produce a partition that would make
    ``BlockDiagonalMatrix.from_coo_blocks`` silently drop entries."""
    coo = STRUCTURE_CLASSES[cls](case_rng(rep, 13), 36)
    ptr = _block_partition(coo)
    assert len(ptr) >= 2 and ptr[0] == 0 and ptr[-1] == coo.shape[0]
    starts = np.asarray(ptr[:-1])
    blk_of_row = np.searchsorted(starts, coo.row, side="right") - 1
    blk_of_col = np.searchsorted(starts, coo.col, side="right") - 1
    assert np.array_equal(blk_of_row, blk_of_col), (
        f"{cls}: partition splits entries across blocks"
    )


def _block_partition_loop(coo):
    """The earlier scalar sweep, kept as the oracle of the vectorized one."""
    n = coo.shape[0]
    if n == 0 or coo.shape[0] != coo.shape[1]:
        return ()
    reach = np.arange(n, dtype=np.int64)
    if coo.nnz:
        np.maximum.at(reach, coo.row, coo.col)
        np.maximum.at(reach, coo.col, coo.row)
    ptr = [0]
    end = 0
    for i in range(n):
        end = max(end, int(reach[i]))
        if i == end:
            ptr.append(i + 1)
    return tuple(ptr)


@pytest.mark.parametrize("cls", sorted(STRUCTURE_CLASSES))
def test_block_partition_matches_the_scalar_sweep(cls):
    rng = case_rng(CLASS_ID[cls], 14)
    cases = [STRUCTURE_CLASSES[cls](rng, n) for n in (16, 36, 101)]
    cases += [COOMatrix((7, 7), [], [], []), COOMatrix((5, 8), [0], [7], [1.0])]
    for coo in cases:
        got = _block_partition(coo)
        assert got == _block_partition_loop(coo)
        assert all(type(p) is int for p in got)


def _inode_count_of_every_row(coo):
    """The reference: ``find_inodes`` over all nonempty rows."""
    starts = np.flatnonzero(np.r_[True, coo.row[1:] != coo.row[:-1]])
    return len(find_inodes(np.append(starts, coo.nnz), coo.col)[0]) - 1 if coo.nnz else 0


def _inode_cases():
    for cls in sorted(STRUCTURE_CLASSES):
        rng = case_rng(CLASS_ID[cls], 15)
        yield from (STRUCTURE_CLASSES[cls](rng, n) for n in (16, 36, 101))
    for dof in (1, 2, 3, 4):  # few rows alone (the candidate scan) to all of them (the full one)
        yield fem_matrix(points=40, dof=dof, rng=dof)
    yield COOMatrix((7, 7), [], [], [])
    yield COOMatrix.from_entries((5, 9), [0, 1, 1, 3, 4], [2, 2, 8, 2, 2], [1.0] * 5)


def test_the_inode_count_scans_only_rows_that_could_share_a_pattern():
    for coo in _inode_cases():
        coo = coo.canonicalized()
        assert _inode_features(coo) == _inode_count_of_every_row(coo)


def test_empty_and_tiny_matrices_profile_cleanly():
    empty = COOMatrix.from_entries((5, 5), [], [], [])
    p = analyze_structure(empty)
    assert (p.nnz, p.row_max, p.ell_stored, p.ndiags, p.diag_stored) == (0, 0, 0, 0, 0)
    assert (p.nblocks, p.block_stored, p.ninodes) == (5, 5, 0)
    one = COOMatrix.from_entries((1, 1), [0], [0], [3.0])
    p1 = analyze_structure(one)
    assert (p1.nnz, p1.ell_stored, p1.diag_stored, p1.block_stored, p1.ninodes) == (1, 1, 1, 1, 1)


#: a version-1 profile of a 4x4 upper-bidiagonal matrix, as v1 wrote it
V1_DOC = (
    '{"bandwidth_lower": 0, "bandwidth_upper": 1, "block_fill": 0.4375, '
    '"block_max": 4, "block_stored": 16, "blockptr": [0, 4], "density": 0.4375, '
    '"diag_fill": 1.0, "diag_stored": 7, "ell_fill": 0.875, "ell_stored": 8, '
    '"inode_ratio": 1.0, "nblocks": 1, "ncols": 4, "ndiags": 2, "ninodes": 4, '
    '"nnz": 7, "nrows": 4, "pattern_symmetry": 0.5714285714285714, '
    '"row_cv": 0.24743582965269675, "row_max": 2, "row_mean": 1.75, '
    '"skew_ratio": 1.1428571428571428, "tags": ["diagonal", "banded"], '
    '"value_symmetry": false, "version": 1}'
)


def _current(mutate):
    doc = json.loads(analyze_structure(STRUCTURE_CLASSES["banded"](case_rng(0, 8), 24)).to_json())
    return json.dumps(mutate(doc))


@pytest.mark.parametrize(
    "text",
    [
        _current(lambda d: dict(d, version=99)),
        V1_DOC,
        _current(lambda d: {k: v for k, v in d.items() if k != "ninodes"}),
        "[1, 2, 3]",
    ],
    ids=["foreign-version", "v1-document", "missing-key", "non-object"],
)
def test_from_dict_rejects_documents_of_another_schema(text):
    with pytest.raises(ReproError, match="structure profile"):
        StructureProfile.from_json(text)
