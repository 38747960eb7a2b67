"""Permuted matrix views (paper Sec. 2.2) + the Permutation relation."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.compiler import compile_kernel
from repro.errors import FormatError
from repro.formats import (
    CCSMatrix,
    COOMatrix,
    CRSMatrix,
    DenseMatrix,
    DenseVector,
    ELLMatrix,
    Permutation,
)
from repro.formats.permuted import PermutedMatrix
from repro.kernels.spmv import SPMV_SRC
from tests.conftest import coo_matrices


class TestPermutation:
    def test_identity(self):
        p = Permutation.identity(4)
        assert np.array_equal(p.perm, [0, 1, 2, 3])
        assert p.inverse() == p

    def test_apply_and_inverse(self):
        p = Permutation([2, 0, 1])
        assert p(0) == 2
        assert np.array_equal(p.iperm[p.perm], np.arange(3))
        assert p.inverse().inverse() == p

    def test_not_a_permutation(self):
        with pytest.raises(FormatError):
            Permutation([0, 0, 1])

    def test_compose(self):
        p = Permutation([1, 2, 0])
        q = Permutation([2, 1, 0])
        pq = p.compose(q)
        for i in range(3):
            assert pq(i) == p(q(i))

    def test_compose_size_mismatch(self):
        with pytest.raises(FormatError):
            Permutation([0, 1]).compose(Permutation([0, 1, 2]))

    def test_apply_to_vector(self):
        p = Permutation([2, 0, 1])
        x = np.array([10.0, 20.0, 30.0])
        y = p.apply_to_vector(x)
        for i in range(3):
            assert y[p(i)] == x[i]

    def test_as_relation(self):
        rel = Permutation([1, 0]).as_relation()
        assert rel.to_set() == {(0, 1), (1, 0)}

    def test_from_inverse(self):
        p = Permutation([2, 0, 1])
        assert Permutation.from_inverse(p.iperm) == p


def make_view(rng=0, n=9, m=7, base_cls=CRSMatrix, rows=True, cols=True):
    r = np.random.default_rng(rng)
    dense = r.standard_normal((n, m)) * (r.random((n, m)) < 0.4)
    coo = COOMatrix.from_dense(dense)
    rp = Permutation.random(n, rng=r) if rows else None
    cp = Permutation.random(m, rng=r) if cols else None
    view = PermutedMatrix.build(base_cls, coo, rp, cp)
    return view, dense


@pytest.mark.parametrize("base_cls", [CRSMatrix, CCSMatrix, COOMatrix, ELLMatrix], ids=lambda c: c.__name__)
def test_view_roundtrip(base_cls):
    view, dense = make_view(base_cls=base_cls)
    assert np.allclose(view.to_dense(), dense)


def test_row_only_and_col_only():
    for rows, cols in ((True, False), (False, True)):
        view, dense = make_view(rng=3, rows=rows, cols=cols)
        assert np.allclose(view.to_dense(), dense)


def test_wrapping_dense_rejected():
    with pytest.raises(FormatError):
        PermutedMatrix(DenseMatrix.zeros(3, 3), Permutation.identity(3))


def test_size_mismatch_rejected():
    coo = COOMatrix.random(4, 5, 0.5, rng=0)
    with pytest.raises(FormatError):
        PermutedMatrix(CRSMatrix.from_coo(coo), row_perm=Permutation.identity(5))


@pytest.mark.parametrize("base_cls", [CRSMatrix, CCSMatrix, COOMatrix], ids=lambda c: c.__name__)
@pytest.mark.parametrize("backend", ["interpreted", "vectorized"], ids=["scalar", "vector"])
def test_compiled_spmv_through_view(base_cls, backend):
    """Eq. 6: the compiler handles the permutation join unmodified."""
    view, dense = make_view(rng=1, base_cls=base_cls)
    x = np.linspace(-1, 1, dense.shape[1])
    X, Y = DenseVector(x), DenseVector.zeros(dense.shape[0])
    k = compile_kernel(SPMV_SRC, {"A": view, "X": X, "Y": Y}, backend=backend, cache=False)
    k(A=view, X=X, Y=Y)
    assert np.allclose(Y.vals, dense @ x), k.source


@pytest.mark.parametrize("backend", ["interpreted", "vectorized"], ids=["scalar", "vector"])
def test_compiled_transpose_spmv_through_view(backend):
    view, dense = make_view(rng=2)
    xt = np.linspace(0, 1, dense.shape[0])
    X, Z = DenseVector(xt), DenseVector.zeros(dense.shape[1])
    src = "for i in 0:n { for j in 0:m { Z[j] += A[i,j] * X[i] } }"
    k = compile_kernel(src, {"A": view, "X": X, "Z": Z}, backend=backend, cache=False)
    k(A=view, X=X, Z=Z)
    assert np.allclose(Z.vals, dense.T @ xt), k.source


def test_view_search_translates():
    """A searched permuted term: Y[i] += A[i,j]*B[i,j] with B permuted."""
    r = np.random.default_rng(5)
    da = r.standard_normal((6, 6)) * (r.random((6, 6)) < 0.5)
    db = r.standard_normal((6, 6)) * (r.random((6, 6)) < 0.5)
    A = CRSMatrix.from_coo(COOMatrix.from_dense(da))
    B = PermutedMatrix.build(
        CRSMatrix,
        COOMatrix.from_dense(db),
        Permutation.random(6, rng=1),
        Permutation.random(6, rng=2),
    )
    Y = DenseVector.zeros(6)
    src = "for i in 0:n { for j in 0:n { Y[i] += A[i,j] * B[i,j] } }"
    k = compile_kernel(src, {"A": A, "B": B, "Y": Y}, cache=False)
    k(A=A, B=B, Y=Y)
    assert np.allclose(Y.vals, (da * db).sum(axis=1)), k.source


@given(coo=coo_matrices(max_n=8, max_m=8), seed=st.integers(0, 100))
@settings(max_examples=20, deadline=None)
def test_view_spmv_property(coo, seed):
    r = np.random.default_rng(seed)
    rp = Permutation.random(coo.shape[0], rng=r)
    cp = Permutation.random(coo.shape[1], rng=r)
    view = PermutedMatrix.build(CRSMatrix, coo, rp, cp)
    x = np.linspace(-1, 1, coo.shape[1])
    X, Y = DenseVector(x), DenseVector.zeros(coo.shape[0])
    k = compile_kernel(SPMV_SRC, {"A": view, "X": X, "Y": Y}, cache=False)
    k(A=view, X=X, Y=Y)
    assert np.allclose(Y.vals, coo.to_dense() @ x, atol=1e-9)
