"""Code-generation golden tests: the emitted source has the expected shape
per backend (one printer: the scalar nest, plus ``block-gemv`` for dense
blocks), and the backends agree numerically on awkward inputs."""

import numpy as np
import pytest

from repro.analysis.contracts import block_formats
from repro.compiler import codegen, compile_kernel, get_backend
from repro.compiler.kernels import clear_kernel_cache
from repro.formats import (
    FORMAT_NAMES,
    BlockDiagonalMatrix,
    CCSMatrix,
    COOMatrix,
    CRSMatrix,
    DenseVector,
    DiagonalMatrix,
    ELLMatrix,
    InodeMatrix,
    JaggedDiagonalMatrix,
    TranslatedVector,
)
from repro.kernels.spmv import SPMV_SRC


@pytest.fixture(autouse=True)
def _fresh():
    clear_kernel_cache()


def source_for(A, src=SPMV_SRC, X=None, backend="vectorized"):
    n, m = A.shape
    X = X if X is not None else DenseVector(np.ones(m))
    Y = DenseVector.zeros(n)
    return compile_kernel(src, {"A": A, "X": X, "Y": Y}, backend=backend, cache=False).source


@pytest.mark.parametrize("backend", ["interpreted", "vectorized"])
def test_generate_source_takes_the_checked_backend_name(backend):
    """The call form ``benchmarks/pipeline/compile_mix.py`` times code generation with."""
    A = CRSMatrix.from_coo(COOMatrix.random(10, 10, 0.3, rng=0))
    fmts = {"A": A, "X": DenseVector(np.ones(10)), "Y": DenseVector.zeros(10)}
    k = compile_kernel(SPMV_SRC, fmts, backend=backend, cache=False)
    got = codegen.generate_source(k.program, k.units, fmts, k.param_names, backend=get_backend(backend))
    assert got == (k.source, k.unit_backends)


@pytest.mark.parametrize(
    "fmt", ["CRS", "ITPACK", "CCS", "CCCS", "Coordinate", "JDiag", "Diagonal", "Inode", "BlockDiag", "DenseBlocks"]
)
def test_vectorized_prints_the_scalar_nest(fmt):
    """One printer: a unit that is not ``block-gemv`` prints exactly what
    the interpreted backend prints (native runs that print as C).  So do
    the block formats when their blocks are small (here blocks of 1 to 4
    rows)."""
    build = {**{n: f.from_coo for n, f in FORMAT_NAMES.items()}, **block_formats()}[fmt]
    A = build(COOMatrix.random(10, 10, 0.3, rng=0))
    s = source_for(A)
    assert s == source_for(A, backend="interpreted")
    assert "for " in s and "np." not in s


def test_ccs_uses_fancy_scatter():
    A = CCSMatrix.from_coo(COOMatrix.random(10, 10, 0.3, rng=0))
    s = source_for(A)
    assert "np.add.at" not in s  # rows unique within a column


def test_diagonal_uses_affine_slices():
    A = DiagonalMatrix.from_coo(COOMatrix.random(10, 10, 0.3, rng=0))
    s = source_for(A)
    assert "A_offsets" in s and "+=" in s
    assert "np.add.at" not in s  # affine scatter


def test_inode_uses_block_gemv():
    # two 16x16 i-nodes: blocks at or above the cut run BLAS
    A = InodeMatrix.from_coo(COOMatrix.from_dense(np.kron(np.eye(2), np.ones((16, 16)))))
    s = source_for(A)
    assert ".reshape(" in s and "@" in s


def test_blockdiag_uses_block_gemv():
    dense = np.zeros((28, 28))
    dense[:14, :14] = np.arange(196).reshape(14, 14) + 1
    dense[14:, 14:] = np.eye(14)
    A = BlockDiagonalMatrix.from_coo_blocks(COOMatrix.from_dense(dense), [0, 14, 28])
    s = source_for(A)
    assert "@" in s and ".reshape(" in s


def test_scalar_backend_has_plain_loops():
    A = CRSMatrix.from_coo(COOMatrix.random(10, 10, 0.3, rng=0))
    s = source_for(A, backend="interpreted")
    assert "np.add.reduceat" not in s and "np.dot" not in s
    assert s.count("for ") == 2


def test_translated_vector_double_gather():
    coo = COOMatrix.random(10, 10, 0.3, rng=0)
    A = CRSMatrix.from_coo(coo)
    buf = np.arange(10, dtype=float)
    tv = TranslatedVector(10, buf, np.arange(10)[::-1].copy())
    s = source_for(A, X=tv)
    assert "X_vals[X_map[" in s  # the extra level of indirection


def test_translated_vector_numerics():
    coo = COOMatrix.random(12, 12, 0.4, rng=1)
    A = CRSMatrix.from_coo(coo)
    rng = np.random.default_rng(2)
    perm = rng.permutation(12)
    buf = rng.standard_normal(12)
    tv = TranslatedVector(12, buf, perm)
    Y = DenseVector.zeros(12)
    k = compile_kernel(SPMV_SRC, {"A": A, "X": tv, "Y": Y}, cache=False)
    k(A=A, X=tv, Y=Y)
    assert np.allclose(Y.vals, coo.to_dense() @ buf[perm])


def test_translated_vector_scalar_path():
    coo = COOMatrix.random(12, 12, 0.4, rng=1)
    A = CRSMatrix.from_coo(coo)
    rng = np.random.default_rng(2)
    perm = rng.permutation(12)
    buf = rng.standard_normal(12)
    tv = TranslatedVector(12, buf, perm)
    Y = DenseVector.zeros(12)
    k = compile_kernel(SPMV_SRC, {"A": A, "X": tv, "Y": Y}, backend="interpreted", cache=False)
    k(A=A, X=tv, Y=Y)
    assert np.allclose(Y.vals, coo.to_dense() @ buf[perm])


def test_segmented_with_row_factor():
    """y[i] += d[i] * A[i,j] * x[j]: the per-row factor multiplies the
    reduced segment sums, not the flat product."""
    coo = COOMatrix.random(10, 10, 0.4, rng=3)
    A = CRSMatrix.from_coo(coo)
    rng = np.random.default_rng(4)
    d, x = rng.standard_normal(10), rng.standard_normal(10)
    src = "for i in 0:n { for j in 0:n { Y[i] += D[i] * A[i,j] * X[j] } }"
    for backend in ("vectorized", "interpreted"):
        Y = DenseVector.zeros(10)
        k = compile_kernel(
            src, {"A": A, "D": DenseVector(d), "X": DenseVector(x), "Y": Y},
            backend=backend, cache=False,
        )
        k(A=A, D=DenseVector(d), X=DenseVector(x), Y=Y)
        assert np.allclose(Y.vals, d * (coo.to_dense() @ x)), k.source


def test_segmented_with_scalar_and_division():
    coo = COOMatrix.random(10, 10, 0.4, rng=5)
    A = CRSMatrix.from_coo(coo)
    rng = np.random.default_rng(6)
    d = np.abs(rng.standard_normal(10)) + 1
    x = rng.standard_normal(10)
    src = "for i in 0:n { for j in 0:n { Y[i] += 2 * A[i,j] * X[j] / D[i] } }"
    Y = DenseVector.zeros(10)
    fm = {"A": A, "D": DenseVector(d), "X": DenseVector(x), "Y": Y}
    k = compile_kernel(src, fm, cache=False)
    k(**fm)
    assert np.allclose(Y.vals, 2 * (coo.to_dense() @ x) / d), k.source


def test_block_with_row_and_col_factors():
    coo = COOMatrix.random(9, 9, 0.5, rng=7)
    A = InodeMatrix.from_coo(coo)
    rng = np.random.default_rng(8)
    d, z, x = rng.standard_normal(9), rng.standard_normal(9) + 2, rng.standard_normal(9)
    src = "for i in 0:n { for j in 0:n { Y[i] += D[i] * A[i,j] * X[j] / Z[j] } }"
    for backend in ("vectorized", "interpreted"):
        Y = DenseVector.zeros(9)
        fm = {"A": A, "D": DenseVector(d), "X": DenseVector(x), "Z": DenseVector(z), "Y": Y}
        k = compile_kernel(src, fm, backend=backend, cache=False)
        k(**fm)
        want = d * (coo.to_dense() @ (x / z))
        assert np.allclose(Y.vals, want), k.source


def test_negated_statement():
    coo = COOMatrix.random(8, 8, 0.4, rng=9)
    A = CRSMatrix.from_coo(coo)
    x = np.arange(8, dtype=float)
    src = "for i in 0:n { for j in 0:n { Y[i] += -(A[i,j] * X[j]) } }"
    for backend in ("vectorized", "interpreted"):
        Y = DenseVector.zeros(8)
        k = compile_kernel(src, {"A": A, "X": DenseVector(x), "Y": Y}, backend=backend, cache=False)
        k(A=A, X=DenseVector(x), Y=Y)
        assert np.allclose(Y.vals, -(coo.to_dense() @ x)), k.source


def test_empty_matrix_all_backends():
    empty = COOMatrix((5, 5), [], [], [])
    for fmt in (CRSMatrix, CCSMatrix, ELLMatrix, DiagonalMatrix, InodeMatrix):
        A = fmt.from_coo(empty)
        Y = DenseVector.zeros(5)
        k = compile_kernel(SPMV_SRC, {"A": A, "X": DenseVector(np.ones(5)), "Y": Y}, cache=False)
        k(A=A, X=DenseVector(np.ones(5)), Y=Y)
        assert np.allclose(Y.vals, 0.0)


@pytest.mark.parametrize("fmt", [COOMatrix, DiagonalMatrix, JaggedDiagonalMatrix], ids=lambda f: f.__name__)
@pytest.mark.parametrize("backend", ["vectorized", "interpreted"])
def test_one_level_binding_an_index_twice_filters_on_it(fmt, backend):
    """``A[i,i]`` on a level that binds row and column at once: the second
    binding is a filter, not an overwrite of ``i``."""
    coo = COOMatrix.random(9, 9, 0.4, rng=4)
    A, z = fmt.from_coo(coo), np.arange(1.0, 10.0)
    fm = {"A": A, "Z": DenseVector(z), "Y": DenseVector.zeros(9)}
    k = compile_kernel("for i in 0:n { Y[i] += A[i,i] * Z[i] }", fm, backend=backend, cache=False)
    k(**fm)
    Y = fm["Y"]
    assert np.array_equal(Y.vals, np.diag(coo.to_dense()) * z), k.source


@pytest.mark.parametrize("backend", ["vectorized", "interpreted"])
def test_one_nest_shares_its_dense_loop_and_stores_plain_assignments(backend):
    """The statements of a single-loop nest print in one loop; a plain
    assignment there is a store, so a ``-0.0`` product stays ``-0.0``
    (a zero fill then ``+=`` would leave ``0.0``)."""
    src = "for i in 0:n { X[i] += a * P[i]  Z[i] = D[i] * X[i]  s += X[i] * Z[i] }"
    x, p, d = np.array([0.0, 1.0, -2.0]), np.array([0.0, 2.0, 1.0]), np.array([-1.0, 3.0, 0.5])
    fm = {name: DenseVector(v.copy()) for name, v in dict(X=x, P=p, D=d, Z=np.ones(3)).items()}
    k = compile_kernel(src, fm, backend=backend)
    assert k.source.count("for i in range") == 1 and "Z_vals[:]" not in k.source
    got = k(**fm, a=0.5)
    want_x = x + 0.5 * p
    want_z = d * want_x
    assert np.signbit(fm["Z"].vals[0]) and fm["Z"].vals.tobytes() == want_z.tobytes()
    assert got == {"a": 0.5, "s": float(np.cumsum(want_x * want_z)[-1])}
