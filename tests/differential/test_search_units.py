"""Searched units run C, byte for byte the interpreted backend.

Every searchable sorted level emits its own binary search
(``Emitter.search``), so a nest that searches a level translates to C
like any other.  Three nests search: SpMV with a sparse ``x`` and merges
off, the diagonal access ``A[i,i]``, and the entrywise product of two
sparse operands.  Over every searchable level — CRS, CCS, both CCCS
levels, Coordinate, ITPACK, SparseVector and a ``PermutedMatrix`` over
CRS — on both backends, bound and unbound, with gcc and with no
compiler, ``Y`` is the interpreted backend's bytes, and with gcc every
unit runs C.  The matrices cover n = 1, empty segments, a key at the
first or last slot of a segment, keys below and above every stored index
of a segment, and an all-zero sparse ``x``.
"""

import zlib

import numpy as np
import pytest

from repro.compiler import compile_kernel, native
from repro.formats import (
    CCCSMatrix,
    CCSMatrix,
    COOMatrix,
    CRSMatrix,
    DenseMatrix,
    DenseVector,
    DiagonalMatrix,
    ELLMatrix,
    PermutedMatrix,
    SparseVector,
)
from repro.formats.permutation import Permutation
from tests.conftest import case_rng

SPMV = "for i in 0:n { for j in 0:m { Y[i] += A[i,j] * X[j] } }"
DIAG = "for i in 0:n { Y[i] += A[i,i] * Z[i] }"
ENTRYWISE = "for i in 0:n { for j in 0:m { C[i,j] += D[i,j] * A[i,j] } }"


def _permuted(coo):
    rng = case_rng(zlib.crc32(b"search-perm"), coo.shape[0])
    return PermutedMatrix.build(
        CRSMatrix, coo, Permutation.random(coo.shape[0], rng), Permutation.random(coo.shape[1], rng)
    )


FORMATS = {
    "CRS": CRSMatrix.from_coo,
    "CCS": CCSMatrix.from_coo,
    "CCCS": CCCSMatrix.from_coo,
    "Coordinate": COOMatrix.from_coo,
    "ITPACK": ELLMatrix.from_coo,
    "Permuted-CRS": _permuted,
}
#: a level that binds both axes (Diagonal's run level) is filtered, not searched
DIAG_FORMATS = {**FORMATS, "Diagonal": DiagonalMatrix.from_coo}
#: every searchable level the cases below must reach
SEARCHED_LEVELS = {
    "CompressedLevel",
    "CompressedOuterLevel",
    "CoordinateLevel",
    "EllEntryLevel",
    "SparseVectorLevel",
    "_PermutedLevel",
}


def _edge(n=7):
    """Row 0 empty; row 1 holds only column 0; the diagonal key sits at the
    first slot of row 2, the last slot of row 3 and alone in row 6; it is
    below every stored column of row 4 and above every one of row 5.  The
    columns (CCS/CCCS segments) vary the same way: column 0 is stored
    thrice, column 4 never."""
    rows = [1, 2, 2, 3, 3, 4, 4, 5, 5, 6]
    cols = [0, 2, 6, 0, 3, 5, 6, 0, 1, 6]
    return rows, cols


def _matrix(case, n, rng):
    if case == "edge":
        rows, cols = _edge(n)
        return COOMatrix.from_entries((n, n), rows, cols, rng.standard_normal(len(rows)))
    return COOMatrix.random(n, n, 0.3, rng=rng)


def _sparse_x(case, n, rng):
    x = np.zeros(n)
    if case == "one":  # A's columns fall below and above the single stored index
        x[n // 2] = rng.standard_normal()
    elif case == "random":
        x = rng.standard_normal(n) * (rng.random(n) < 0.4)
    elif case == "full":
        x = rng.standard_normal(n) + 4.0
    return SparseVector.from_dense(x)


MATRICES = [("random", 1), ("random", 7), ("edge", 7), ("random", 29)]
CASES = (
    [("spmv", f, m, n, x) for f in FORMATS for m, n in MATRICES for x in ("zero", "one", "random", "full")]
    + [("diag", f, m, n, None) for f in DIAG_FORMATS for m, n in MATRICES]
    + [("entrywise", f, m, n, None) for f in FORMATS for m, n in MATRICES]
)


def _operands(nest, fmt, matrix, n, x):
    """Fresh operands for one case (same seed, same values every call)."""
    rng = case_rng(zlib.crc32(f"search:{nest}:{fmt}:{matrix}:{n}:{x}".encode()))
    coo = _matrix(matrix, n, rng)
    build = DIAG_FORMATS[fmt]
    if nest == "spmv":
        return SPMV, {"A": build(coo), "X": _sparse_x(x, n, rng), "Y": DenseVector(rng.standard_normal(n))}
    if nest == "diag":
        return DIAG, {"A": build(coo), "Z": DenseVector(rng.standard_normal(n)), "Y": DenseVector(rng.standard_normal(n))}
    driver = COOMatrix.random(n, n, 0.5, rng=rng)
    return ENTRYWISE, {"D": CRSMatrix.from_coo(driver), "A": build(coo), "C": DenseMatrix(rng.standard_normal((n, n)))}


def _expected(nest, fm):
    a = fm["A"].to_dense()
    if nest == "spmv":
        return fm["Y"].vals + a @ fm["X"].to_dense()
    if nest == "diag":
        return fm["Y"].vals + np.diag(a) * fm["Z"].vals
    return fm["C"].vals + fm["D"].to_dense() * a


def _compile(case, backend="vectorized"):
    """The case's kernel (the product driven by ``D``, so ``A`` is
    searched) and fresh operands."""
    src, fm = _operands(*case)
    opts = {"force_driver": "D"} if case[0] == "entrywise" else {}
    return compile_kernel(src, fm, backend=backend, allow_merge=False, cache=False, **opts), fm


def _run(case, backend, bound):
    """``(output bytes, kernel)`` of one call on fresh operands."""
    nest = case[0]
    kern, fm = _compile(case, backend)
    want = _expected(nest, fm)
    (kern.bind(**fm) if bound else lambda: kern(**fm))()
    out = fm["C" if nest == "entrywise" else "Y"].vals
    np.testing.assert_allclose(out, want, rtol=1e-12, atol=1e-12)
    return out.tobytes(), kern


@pytest.mark.parametrize("cc", ["gcc", "no-compiler"])
@pytest.mark.parametrize("case", CASES, ids=["-".join(map(str, c)) for c in CASES])
def test_searched_nest_is_bitwise_the_interpreted_backend(case, cc, monkeypatch):
    if cc == "gcc" and native.find_compiler() is None:
        pytest.skip("no C compiler on PATH")
    if cc == "no-compiler":
        monkeypatch.setattr(native, "find_compiler", lambda: None)
    ref, _ = _run(case, "interpreted", bound=False)
    for backend in ("interpreted", "vectorized"):
        for bound in (True, False):
            out, kern = _run(case, backend, bound)
            assert out == ref, (backend, bound)
            if cc == "gcc" and backend == "vectorized":
                assert kern.native.reason is None, str(kern.native)


def test_the_cases_search_every_searchable_level():
    seen = set()
    for case in CASES:
        kern, fm = _compile(case)
        seen |= {
            type(fm[s.term].levels()[s.level_index]).__name__
            for u in kern.units
            for s in u.plan.steps
            if s.kind == "search"
        }
    assert SEARCHED_LEVELS <= seen, SEARCHED_LEVELS - seen
