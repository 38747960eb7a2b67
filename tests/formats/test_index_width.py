"""Index width is a storage parameter.

CRS, CCS, CCCS, SparseVector, JDiag and ITPACK store int32 index arrays
while every value they may hold fits int32, and int64 past that; the
2**31 boundary is pinned on both sides with hand-built arrays of huge
extent and a few entries (nothing large is allocated).  No constructor
truncates or wraps an index: a fraction, a NaN or an int64 outside int32
is a ``FormatError``.
"""

import numpy as np
import pytest

from repro.compiler import clear_kernel_cache, compile_kernel, native
from repro.errors import FormatError
from repro.formats import (
    FORMAT_NAMES,
    CCCSMatrix,
    CCSMatrix,
    COOMatrix,
    CRSMatrix,
    ELLMatrix,
    JaggedDiagonalMatrix,
    SparseVector,
    base,
)

#: one past the largest int32 index
N = 2**31

#: format -> (extent, [index]) -> one stored entry at that index along an
#: axis of that extent (every other axis has extent 1)
ONE_ENTRY = {
    "CRS": lambda ext, i: CRSMatrix((1, ext), [0, 1], i, [1.0]),
    "CCS": lambda ext, i: CCSMatrix((ext, 1), [0, 1], i, [1.0]),
    "CCCS": lambda ext, i: CCCSMatrix((ext, ext), i, [0, 1], i, [1.0]),
    "SparseVector": lambda ext, i: SparseVector(ext, i, [1.0]),
    "JDiag": lambda ext, i: JaggedDiagonalMatrix((1, ext), [0], [0, 1], i, [1.0]),
    "ITPACK": lambda ext, i: ELLMatrix((1, ext), [i], [[1.0]], [1]),
}
#: format -> its index arrays, the one holding that index first
INDEX_ARRAYS = {
    "CRS": ("colind", "rowptr"),
    "CCS": ("rowind", "colp"),
    "CCCS": ("rowind", "colind", "colp"),
    "SparseVector": ("ind",),
    "JDiag": ("jdcol", "perm", "jdptr"),
    "ITPACK": ("colind2d", "rowlen"),
}


def _widths(fmt, A):
    return {getattr(A, a).dtype for a in INDEX_ARRAYS[fmt]}


@pytest.mark.parametrize("fmt", ONE_ENTRY)
def test_the_2_31_boundary_on_both_sides(fmt):
    below = ONE_ENTRY[fmt](N, [N - 1])
    assert _widths(fmt, below) == {np.dtype(np.int32)}
    above = ONE_ENTRY[fmt](N + 1, [N])
    assert _widths(fmt, above) == {np.dtype(np.int64)}
    for A, i in ((below, N - 1), (above, N)):
        assert getattr(A, INDEX_ARRAYS[fmt][0]).ravel().tolist() == [i]


def test_a_search_midpoint_bounds_the_stored_count():
    # the Python tier sums two positions as int32: their sum must fit too
    assert base.index_width((1,), 2**30 - 1) is np.int32
    assert base.index_width((1,), 2**30) is np.int64
    assert base.index_width((N,), 0) is np.int32
    assert base.index_width((N + 1,), 0) is np.int64


@pytest.mark.parametrize("bad", [1.5, np.nan, np.int64(2**32 + 1)], ids=["fraction", "nan", "2**32+1"])
@pytest.mark.parametrize("fmt", ONE_ENTRY)
def test_an_index_that_would_change_is_a_format_error(fmt, bad):
    with pytest.raises(FormatError, match="index values must"):
        ONE_ENTRY[fmt](3, np.array([bad]))


def test_fractions_are_refused_not_truncated():
    with pytest.raises(FormatError):
        CRSMatrix((2, 3), [0, 1, 2], [1.7, 2.2], [1.0, 2.0])
    with pytest.raises(FormatError):
        JaggedDiagonalMatrix((2, 3), [0, 1], [0, 2], [1.9, 0.5], [1.0, 2.0])
    with pytest.raises(FormatError):
        ELLMatrix((2, 3), [[1.6], [2.5]], [[1.0], [2.0]], [1, 1])
    with pytest.raises(FormatError):
        SparseVector.from_entries(4, [2.5, 1.0], [1.0, 2.0])


@pytest.mark.parametrize("fmt", ["CRS", "CCS", "CCCS", "JDiag", "ITPACK"])
def test_from_coo_narrows_unless_the_bound_forbids(fmt, monkeypatch):
    coo = COOMatrix.from_entries((4, 5), [0, 1, 3, 3], [1, 4, 0, 2], [1.0, 2.0, 3.0, 4.0])
    narrow = FORMAT_NAMES[fmt].from_coo(coo)
    monkeypatch.setattr(base, "NARROW_MAX", -1)
    wide = FORMAT_NAMES[fmt].from_coo(coo)
    assert _widths(fmt, narrow) == {np.dtype(np.int32)}
    assert _widths(fmt, wide) == {np.dtype(np.int64)}
    assert np.array_equal(narrow.to_dense(), coo.to_dense())
    assert np.array_equal(wide.to_dense(), coo.to_dense())


@pytest.mark.parametrize("tier", ["gcc", "no-compiler"])
def test_a_kernel_reads_indices_at_the_boundary(tier, monkeypatch):
    if tier == "gcc" and native.find_compiler() is None:
        pytest.skip("no C compiler on PATH")
    if tier == "no-compiler":
        monkeypatch.setattr(native, "find_compiler", lambda: None)
    clear_kernel_cache()
    for ext in (N, N + 1):
        X = SparseVector(ext, [5, ext - 3, ext - 1], [1.0, 2.0, 3.0])
        Y = SparseVector(ext, [ext - 3, ext - 2, ext - 1], [10.0, 20.0, 30.0])
        kern = compile_kernel("for i in 0:n { s += X[i] * Y[i] }", {"X": X, "Y": Y})
        assert kern(X=X, Y=Y) == {"s": 110.0}
        assert kern.native.reason == (None if tier == "gcc" else "no-compiler")
