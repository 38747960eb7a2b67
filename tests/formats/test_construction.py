"""JDiag and Diagonal builders against the per-diagonal loop builders they
replaced.

The library builds both formats in one counting pass (count, prefix sum,
scatter).  The oracle below is the older form: one whole-matrix scan per
diagonal.  Every array and dtype must match it byte for byte, so that
``spec()``, the kernel cache key and the generated source cannot move.
The malformed-structure cases must raise :class:`FormatError` when the
format is constructed, before any backend sees the arrays.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.compiler import compile_kernel, parse
from repro.compiler.plan_cache import kernel_cache_key
from repro.errors import FormatError
from repro.formats import COOMatrix, DenseVector, DiagonalMatrix, JaggedDiagonalMatrix
from repro.kernels.spmv import SPMV_SRC
from tests.conftest import case_rng


def oracle_jdiag(coo: COOMatrix) -> JaggedDiagonalMatrix:
    coo = coo.canonicalized()
    n = coo.shape[0]
    counts = coo.row_counts()
    perm = np.argsort(-counts, kind="stable").astype(np.int64)
    rowstart = np.zeros(n + 1, dtype=np.int64)
    np.cumsum(counts, out=rowstart[1:])
    jdptr, jdcol_parts, jdval_parts = [0], [], []
    for d in range(int(counts.max(initial=0))):
        rows = perm[counts[perm] > d]
        pos = rowstart[rows] + d
        jdcol_parts.append(coo.col[pos])
        jdval_parts.append(coo.vals[pos])
        jdptr.append(jdptr[-1] + len(rows))
    jdcol = np.concatenate(jdcol_parts) if jdcol_parts else np.empty(0, dtype=np.int64)
    jdval = np.concatenate(jdval_parts) if jdval_parts else np.empty(0)
    return JaggedDiagonalMatrix(coo.shape, perm, np.asarray(jdptr, dtype=np.int64), jdcol, jdval)


def oracle_diagonal(coo: COOMatrix) -> DiagonalMatrix:
    coo = coo.canonicalized()
    d = coo.col - coo.row
    offsets = np.unique(d)
    dptr, first, runs = [0], [], []
    for off in offsets:
        on = d == off
        rows = coo.row[on]
        lo, hi = int(rows.min()), int(rows.max())
        run = np.zeros(hi - lo + 1)
        run[rows - lo] = coo.vals[on]
        first.append(lo)
        runs.append(run)
        dptr.append(dptr[-1] + len(run))
    vals = np.concatenate(runs) if runs else np.empty(0)
    return DiagonalMatrix(coo.shape, offsets, np.asarray(dptr), np.asarray(first, dtype=np.int64), vals)


ARRAYS = {
    JaggedDiagonalMatrix: ("perm", "jdptr", "jdcol", "jdval"),
    DiagonalMatrix: ("offsets", "dptr", "first", "vals"),
}
ORACLES = {JaggedDiagonalMatrix: oracle_jdiag, DiagonalMatrix: oracle_diagonal}


def _random(rng, shape, nnz) -> COOMatrix:
    n, m = shape
    if n == 0 or m == 0:
        return COOMatrix(shape, [], [], [])
    return COOMatrix(
        shape, rng.integers(0, n, nnz), rng.integers(0, m, nnz), rng.standard_normal(nnz)
    )


def _hub(rng) -> COOMatrix:
    n = 40
    band = np.arange(n)
    hub = np.full(n, int(rng.integers(n)))
    return COOMatrix.from_entries(
        (n, n), np.concatenate([band, hub]), np.concatenate([band, np.arange(n)]),
        rng.standard_normal(2 * n),
    )


def _explicit_zeros(rng) -> COOMatrix:
    coo = _random(rng, (12, 12), 50).canonicalized()
    vals = coo.vals.copy()
    vals[::3] = 0.0
    return COOMatrix(coo.shape, coo.row, coo.col, vals, canonical=True)


def _unsorted_duplicates(rng) -> COOMatrix:
    row = rng.integers(0, 9, 60)
    col = rng.integers(0, 11, 60)
    return COOMatrix((9, 11), row, col, rng.standard_normal(60))  # canonical=False


CASES = {
    "empty": lambda rng: COOMatrix((0, 0), [], [], []),
    "0xm": lambda rng: COOMatrix((0, 5), [], [], []),
    "nx0": lambda rng: COOMatrix((5, 0), [], [], []),
    "no_entries": lambda rng: COOMatrix((6, 4), [], [], []),
    "one": lambda rng: COOMatrix((1, 1), [0], [0], [2.5]),
    "square": lambda rng: _random(rng, (30, 30), 200),
    "tall": lambda rng: _random(rng, (40, 7), 90),
    "wide": lambda rng: _random(rng, (7, 40), 90),
    "hub_row": _hub,
    "explicit_zeros": _explicit_zeros,
    "unsorted_duplicates": _unsorted_duplicates,
}


def _spmv_args(A):
    n, m = A.shape
    return {"A": A, "X": DenseVector(np.ones(m)), "Y": DenseVector.zeros(n)}


@pytest.mark.parametrize("cls", list(ARRAYS), ids=lambda c: c.format_name)
@pytest.mark.parametrize("case", sorted(CASES))
@pytest.mark.parametrize("rep", range(3))
def test_builder_is_byte_identical_to_oracle(cls, case, rep):
    coo = CASES[case](case_rng(rep, sorted(CASES).index(case)))
    got, want = cls.from_coo(coo), ORACLES[cls](coo)
    assert got.shape == want.shape
    for name in ARRAYS[cls]:
        a, b = getattr(got, name), getattr(want, name)
        assert a.dtype == b.dtype, name
        assert a.tobytes() == b.tobytes(), name


@pytest.mark.parametrize("cls", list(ARRAYS), ids=lambda c: c.format_name)
@pytest.mark.parametrize("case", ["square", "tall", "wide", "hub_row", "explicit_zeros"])
def test_kernel_source_and_cache_key_match_oracle(cls, case):
    coo = CASES[case](case_rng(0, sorted(CASES).index(case)))
    got, want = _spmv_args(cls.from_coo(coo)), _spmv_args(ORACLES[cls](coo))
    program = parse(SPMV_SRC)
    assert kernel_cache_key(program, got, "vectorized") == kernel_cache_key(program, want, "vectorized")
    src = lambda fmts: compile_kernel(SPMV_SRC, fmts, cache=False).source
    assert src(got) == src(want)


@pytest.mark.parametrize("cls", list(ARRAYS), ids=lambda c: c.format_name)
@pytest.mark.parametrize("case", sorted(CASES))
def test_round_trip(cls, case):
    coo = CASES[case](case_rng(7, sorted(CASES).index(case))).canonicalized()
    back = cls.from_coo(coo).to_coo()
    if cls is DiagonalMatrix:
        coo = coo.prune(0.0)  # Diagonal stores zeros as padding, not structure
    assert back.shape == coo.shape
    assert np.array_equal(back.row, coo.row) and np.array_equal(back.col, coo.col)
    assert np.array_equal(back.vals, coo.vals)


MALFORMED = {
    "jdptr_decreasing": lambda: JaggedDiagonalMatrix((3, 3), [0, 1, 2], [0, 5, 3], [0, 1, 2], [1, 2, 3]),
    "jdiag_longer_than_nrows": lambda: JaggedDiagonalMatrix((2, 3), [0, 1], [0, 3], [0, 1, 2], [1, 2, 3]),
    "jdcol_out_of_range": lambda: JaggedDiagonalMatrix((2, 2), [0, 1], [0, 2], [0, 2], [1, 2]),
    "diag_leaves_columns": lambda: DiagonalMatrix((3, 3), [5], [0, 1], [0], [1]),
    "diag_past_last_row": lambda: DiagonalMatrix((3, 3), [0], [0, 3], [1], [1, 1, 1]),
    "diag_first_negative": lambda: DiagonalMatrix((3, 3), [0], [0, 2], [-1], [1, 1]),
}


@pytest.mark.parametrize("case", sorted(MALFORMED))
def test_malformed_structure_rejected_at_construction(case):
    with pytest.raises(FormatError):
        MALFORMED[case]()


@pytest.mark.parametrize(
    "perm", [[0, 0, 1], [0, 1, 3], [-1, 0, 1], [2, 2, 2]], ids=["repeat", "too_big", "negative", "constant"]
)
def test_jdiag_perm_must_be_a_permutation(perm):
    with pytest.raises(FormatError, match="perm is not a permutation of the rows"):
        JaggedDiagonalMatrix((3, 3), perm, [0], [], [])
