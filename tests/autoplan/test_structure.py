"""The structure analyzer: planted structures must be detected, profiles
must serialize, fingerprints must separate structure (not data), and the
block partition must *cover* — every stored entry inside some block."""

import numpy as np
import pytest

from repro.analysis import StructureProfile, analyze_structure, audit_format_choice
from repro.analysis.structure import _block_partition
from repro.formats import COOMatrix
from tests.conftest import case_rng
from tests.generators import STRUCTURE_CLASSES

# stable per-class stream id (hash() is randomized per interpreter run)
CLASS_ID = {name: i for i, name in enumerate(sorted(STRUCTURE_CLASSES))}

# class -> tag the analyzer must plant / must NOT plant
EXPECTED_TAG = {
    "block_diag": "blockdiag",
    "banded": "banded",
    "diagonal": "diagonal",
    "power_law": "skewed",
    "symmetric": "symmetric",
}
FORBIDDEN_TAG = {
    "near_banded": "banded",
    "near_block_diag": "blockdiag",
    "uniform": "blockdiag",
}


@pytest.mark.parametrize("cls", sorted(EXPECTED_TAG))
@pytest.mark.parametrize("rep", range(3))
def test_planted_structure_is_detected(cls, rep):
    coo = STRUCTURE_CLASSES[cls](case_rng(rep, CLASS_ID[cls]), 60)
    profile = analyze_structure(coo)
    assert profile.has(EXPECTED_TAG[cls]), (
        f"{cls}: expected tag {EXPECTED_TAG[cls]!r}, got {profile.tags}"
    )


@pytest.mark.parametrize("cls", sorted(FORBIDDEN_TAG))
@pytest.mark.parametrize("rep", range(3))
def test_near_miss_structure_is_rejected(cls, rep):
    coo = STRUCTURE_CLASSES[cls](case_rng(rep, CLASS_ID[cls]), 60)
    profile = analyze_structure(coo)
    assert not profile.has(FORBIDDEN_TAG[cls]), (
        f"{cls}: adversarial near-miss wrongly tagged {FORBIDDEN_TAG[cls]!r} "
        f"(tags: {profile.tags})"
    )


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


def test_audit_flags_mismatched_choices():
    banded = STRUCTURE_CLASSES["banded"](case_rng(3), 60)
    profile = analyze_structure(banded)
    assert audit_format_choice(profile, "CRS").ok  # never flagged
    skewed = analyze_structure(STRUCTURE_CLASSES["power_law"](case_rng(4), 60))
    assert any(
        d.code == "BER051" for d in audit_format_choice(skewed, "ITPACK").warnings()
    )
    assert any(
        d.code == "BER052" for d in audit_format_choice(skewed, "Diagonal").warnings()
    )
    assert any(
        d.code == "BER054" for d in audit_format_choice(skewed, "Dense").warnings()
    )
    rect = COOMatrix.from_entries((4, 6), [0, 2], [1, 5], [1.0, 2.0])
    rect_prof = analyze_structure(rect)
    assert not audit_format_choice(rect_prof, "BlockDiag").ok  # BER053 error


def test_empty_and_tiny_matrices_profile_cleanly():
    empty = COOMatrix.from_entries((5, 5), [], [], [])
    p = analyze_structure(empty)
    assert p.nnz == 0 and p.has("empty")
    one = COOMatrix.from_entries((1, 1), [0], [0], [3.0])
    p1 = analyze_structure(one)
    assert p1.nnz == 1 and p1.density == 1.0
