"""Unit + property tests for the COO exchange format."""

import numpy as np
import pytest
from hypothesis import given, settings

from repro.compiler import compile_kernel
from repro.errors import CompileError, FormatError
from repro.formats import COOMatrix, CRSMatrix, DenseMatrix
from repro.formats.inode import InodeMatrix
from repro.formats.base import Emitter
from tests.conftest import coo_matrices

ENTRYWISE = "for i in 0:n { for j in 0:m { C[i,j] += A[i,j] * B[i,j] } }"


def _entrywise(a, b, backend, **opts):
    """``C = A .* B`` with ``A`` in CRS and ``B`` as given, and its plan."""
    A = CRSMatrix.from_coo(a)
    C = DenseMatrix(np.zeros(a.shape))
    kern = compile_kernel(ENTRYWISE, {"A": A, "B": b, "C": C}, backend=backend, cache=False, **opts)
    kern(A=A, B=b, C=C)
    return C.vals, [(s.kind, s.term) for s in kern.units[0].plan.steps]


def test_from_dense_roundtrip(paper_matrix):
    dense = paper_matrix.to_dense()
    again = COOMatrix.from_dense(dense)
    assert again == paper_matrix


def test_from_entries_sums_duplicates():
    m = COOMatrix.from_entries((3, 3), [0, 0, 1], [1, 1, 2], [2.0, 3.0, 4.0])
    assert m.nnz == 2
    assert m.to_dense()[0, 1] == 5.0


def test_from_entries_sorts_row_major():
    m = COOMatrix.from_entries((3, 3), [2, 0, 1], [0, 2, 1], [1.0, 2.0, 3.0])
    assert m.row.tolist() == [0, 1, 2]
    assert m.col.tolist() == [2, 1, 0]


def test_out_of_bounds_rejected():
    with pytest.raises(FormatError):
        COOMatrix((2, 2), [2], [0], [1.0])
    with pytest.raises(FormatError):
        COOMatrix((2, 2), [0], [5], [1.0])


def test_length_mismatch_rejected():
    with pytest.raises(FormatError):
        COOMatrix((2, 2), [0, 1], [0], [1.0])


@pytest.mark.parametrize("bad", [0.5, 1.7, np.nan, np.inf, -np.inf, 2.0**70], ids=str)
@pytest.mark.parametrize("where", ["row", "col"])
def test_non_integer_index_is_a_format_error_not_a_truncation(bad, where):
    """A fractional, NaN, infinite or out-of-int64 index is refused by both
    constructors; none is truncated into a valid coordinate."""
    idx = {"row": [0, 1], "col": [1, 2]}
    idx[where] = [idx[where][0], bad]
    with pytest.raises(FormatError, match="integers"):
        COOMatrix((2, 3), idx["row"], idx["col"], [1.0, 2.0])
    with pytest.raises(FormatError, match="integers"):
        COOMatrix.from_entries((2, 3), idx["row"], idx["col"], [1.0, 2.0])


def test_integral_float_and_narrow_int_indices_are_kept(monkeypatch):
    m = COOMatrix((2, 3), [1.0], [2.0], [1.0])
    assert m.row.tolist() == [1] and m.col.tolist() == [2]
    # int32 -> int64 cannot change a value: no O(nnz) comparison is made
    monkeypatch.setattr(np, "array_equal", lambda *a, **k: pytest.fail("compared a safe cast"))
    m = COOMatrix.from_entries((2, 3), np.array([1, 0], np.int32), np.array([0, 2], np.int32), [1.0, 2.0])
    assert m.row.dtype == m.col.dtype == np.int64 and m.row.tolist() == [0, 1]


def test_identity():
    m = COOMatrix.identity(4)
    assert np.array_equal(m.to_dense(), np.eye(4))


def test_transpose(paper_matrix):
    t = paper_matrix.transpose()
    assert np.array_equal(t.to_dense(), paper_matrix.to_dense().T)


def test_prune():
    m = COOMatrix.from_entries((2, 2), [0, 1], [0, 1], [1.0, 0.0])
    assert m.nnz == 2  # structural zero kept
    assert m.prune().nnz == 1


def test_row_col_counts(paper_matrix):
    assert paper_matrix.row_counts().tolist() == [2, 1, 1, 1, 1, 0]
    assert paper_matrix.col_counts().tolist() == [2, 1, 0, 1, 2, 0]


def test_diagonal():
    m = COOMatrix.from_entries((3, 3), [0, 1, 2, 0], [0, 1, 2, 2], [5.0, 6.0, 7.0, 9.0])
    assert m.diagonal().tolist() == [5.0, 6.0, 7.0]


def test_select_rows(paper_matrix):
    sub = paper_matrix.select_rows([2, 0])
    dense = paper_matrix.to_dense()
    assert np.array_equal(sub.to_dense(), dense[[2, 0], :])


def test_permuted():
    m = COOMatrix.from_entries((2, 2), [0, 1], [0, 1], [1.0, 2.0])
    p = m.permuted(row_perm=[1, 0])
    assert p.to_dense().tolist() == [[0.0, 2.0], [1.0, 0.0]]


def test_search():
    """A compiled kernel searches B's (row, col) key: a hit, misses inside
    a row, below and above a row's entries, and on an empty row."""
    m = COOMatrix.from_entries((4, 4), [0, 1, 2, 2], [1, 2, 0, 3], [1.0, 2.0, 3.0, 4.0])
    # (1, 2) hits; (1, 1) misses inside row 1; (0, 0) is below row 0's
    # column, (0, 3) above it; (2, 0) and (2, 3) are row 2's first and
    # last slots; row 3 is empty
    probe = COOMatrix.from_entries(
        (4, 4), [1, 1, 0, 0, 2, 2, 3], [2, 1, 0, 3, 0, 3, 3], np.ones(7)
    )
    want = np.zeros((4, 4))
    want[1, 2], want[2, 0], want[2, 3] = 2.0, 3.0, 4.0
    for backend in ("interpreted", "vectorized"):
        c, steps = _entrywise(probe, m, backend, force_driver="A")
        assert ("search", "B") in steps
        assert np.array_equal(c, want), backend


def test_search_requires_canonical():
    m = COOMatrix((2, 2), [1, 0], [0, 0], [1.0, 2.0], canonical=False)
    (level,) = m.levels()
    assert not level.searchable
    with pytest.raises(FormatError):
        level.emit_search(Emitter(), "B", None, {0: "i", 1: "j"})


@pytest.mark.parametrize("backend", ["interpreted", "vectorized"])
def test_a_non_canonical_operand_is_enumerated_not_searched(backend):
    a = COOMatrix.random(9, 9, 0.4, rng=1)
    b = COOMatrix.random(9, 9, 0.4, rng=2)
    order = np.random.default_rng(3).permutation(b.nnz)
    unsorted = COOMatrix(b.shape, b.row[order], b.col[order], b.vals[order])
    c, steps = _entrywise(a, unsorted, backend)
    assert ("enumerate", "B") in steps
    assert np.allclose(c, a.to_dense() * b.to_dense())


@pytest.mark.parametrize("backend", ["interpreted", "vectorized"])
def test_a_kernel_that_searches_a_canonical_operand_rejects_an_unsorted_one(backend):
    """Canonical is part of COO's spec: a kernel compiled to search a
    canonical B refuses an unsorted B at call and bind time, and the plan
    cache compiles the unsorted one separately (enumerate, not search)."""
    a = COOMatrix.random(9, 9, 0.4, rng=4)
    b = COOMatrix.random(9, 9, 0.4, rng=5)
    order = np.random.default_rng(6).permutation(b.nnz)
    unsorted = COOMatrix(b.shape, b.row[order], b.col[order], b.vals[order])
    A, C = CRSMatrix.from_coo(a), DenseMatrix(np.zeros(a.shape))
    kern = compile_kernel(ENTRYWISE, {"A": A, "B": b, "C": C}, backend=backend)
    assert ("search", "B") in [(s.kind, s.term) for s in kern.units[0].plan.steps]
    with pytest.raises(CompileError, match="spec"):
        kern(A=A, B=unsorted, C=C)
    with pytest.raises(CompileError, match="spec"):
        kern.bind(A=A, B=unsorted, C=C)
    other = compile_kernel(ENTRYWISE, {"A": A, "B": unsorted, "C": C}, backend=backend)
    assert other is not kern
    assert ("enumerate", "B") in [(s.kind, s.term) for s in other.units[0].plan.steps]
    other(A=A, B=unsorted, C=C)
    assert np.allclose(C.vals, a.to_dense() * b.to_dense())


def test_random_density():
    m = COOMatrix.random(50, 50, 0.1, rng=0)
    assert 0 < m.nnz <= 250
    assert m.canonical


def test_random_symmetric():
    m = COOMatrix.random(20, 20, 0.2, rng=1, symmetric=True)
    d = m.to_dense()
    assert np.allclose(d, d.T)


@given(coo_matrices())
@settings(max_examples=50, deadline=None)
def test_dense_roundtrip_property(m):
    assert COOMatrix.from_dense(m.to_dense()) == m.prune(0.0)


@given(coo_matrices())
@settings(max_examples=50, deadline=None)
def test_transpose_involution(m):
    assert m.transpose().transpose() == m


def _support_cases():
    """Random, empty, duplicated (non-canonical) and rectangular COO."""
    rng = np.random.default_rng(4101)
    yield COOMatrix.random(40, 40, 0.1, rng)
    yield COOMatrix((0, 0), [], [], [])
    yield COOMatrix((7, 9), [], [], [])
    r, c = rng.integers(0, 12, 60), rng.integers(0, 12, 60)
    yield COOMatrix((12, 12), np.r_[r, r], np.r_[c, c], rng.standard_normal(120))  # duplicates, unsorted
    yield COOMatrix.random(25, 70, 0.08, rng)
    yield COOMatrix.random(70, 25, 0.08, rng)
    i = np.arange(30)
    yield COOMatrix((30, 30), np.r_[i, i, i], np.r_[i, i, (i + 3) % 30], np.r_[-np.zeros(30), rng.standard_normal(60)])


@pytest.mark.parametrize("k", range(7))
def test_column_support_and_diagonal_match_unique_and_add_at(k):
    """The mask/bincount forms are byte-identical to ``np.unique`` and
    ``np.add.at`` (dtype included: the support keys schedule caches)."""
    m = list(_support_cases())[k]
    want = np.zeros(min(m.shape))
    on = m.row == m.col
    np.add.at(want, m.row[on], m.vals[on])
    for got, ref in [(m.column_support(), np.unique(m.col)), (m.diagonal(), want)]:
        assert got.dtype == ref.dtype and got.shape == ref.shape and got.tobytes() == ref.tobytes()
    if m.shape[0] == m.shape[1]:
        inode = InodeMatrix.from_coo(m)
        got, ref = inode.column_support(), np.unique(inode.cols)
        assert got.dtype == ref.dtype and got.tobytes() == ref.tobytes()
