"""A result's bits do not depend on the toolchain.

Over every kernel x format pair of :mod:`tests.differential.test_prepare_run`,
and the dense-block formats built with small blocks, on random-float
operands, the ``vectorized`` result is bitwise the ``interpreted`` one:
with a C compiler (the scalar nest runs as C) and without one
(``find_compiler`` patched to None: the same nest runs as Python).  So is
the SpMV of each BlockSolve rank piece (3x3 cliques, i-nodes).  Only
blocks at or above the small-block cut are lowered ``block-gemv``; those
run BLAS and are skipped.  The same holds for multi-nest programs with
scalar reductions: CG's iteration program on every format, and the dot
product on a dense and a sparse vector.  Nor do they depend on a format's
index width: int32 and int64 storage give the same bits on both tiers.  A
program whose units run on both tiers hands its scalars across them.
"""

import numpy as np
import pytest

from repro.analysis.contracts import block_formats
from repro.compiler import clear_kernel_cache, compile_kernel, native
from repro.distribution import MultiBlockDistribution
from repro.formats import FORMAT_NAMES, BlockSolveMatrix, COOMatrix, DenseVector, SparseVector, base, blocks
from repro.formats.blockdiag import BlockDiagonalMatrix
from repro.formats.denseblocks import DenseBlocksMatrix
from repro.formats.inode import InodeMatrix
from repro.kernels.vecops import DOT_SRC, dot
from repro.matrices import fem_matrix
from repro.parallel.spmd_blocksolve import BSFragments
from repro.solvers.cg import PCG_SRC
from tests.differential.test_prepare_run import COMPILED, KERNELS, _clone, _operands, _rng

#: a builder from COO per compiled format: Table 1's, and the dense-block
#: formats with small blocks (``block_formats``: blocks of a few rows)
BUILD = {**{n: FORMAT_NAMES[n].from_coo for n in COMPILED}, **block_formats()}


def _tier(tier, monkeypatch):
    if tier == "gcc" and native.find_compiler() is None:
        pytest.skip("no C compiler on PATH")
    if tier == "no-compiler":
        monkeypatch.setattr(native, "find_compiler", lambda: None)
    clear_kernel_cache()  # a cached kernel keeps the tiers its earlier binds chose


@pytest.mark.parametrize("tier", ["gcc", "no-compiler"])
@pytest.mark.parametrize("kernel", KERNELS)
@pytest.mark.parametrize("fmt", BUILD)
def test_vectorized_is_interpreted_bitwise_on_every_tier(fmt, kernel, tier, monkeypatch):
    _tier(tier, monkeypatch)
    rng = _rng(f"tier-bits/{fmt}/{kernel}")
    # ~16 random-float entries a row: any lowering that reorders a row's
    # sums (a segmented or pairwise reduction) changes the last bits
    coo = COOMatrix.random(40, 40, 0.4, rng=rng)
    fm, out = _operands(kernel, BUILD[fmt](coo), rng)
    for name, f in fm.items():
        if name != "A":
            f.vals[...] = rng.standard_normal(f.vals.shape)
    kern = compile_kernel(KERNELS[kernel], fm)
    if "block-gemv" in kern.unit_backends:  # only blocks at or above the cut
        assert not fm["A"].small_blocks
        pytest.skip("block-gemv runs BLAS")
    oracle = compile_kernel(KERNELS[kernel], fm, backend="interpreted")
    got, want = _clone(fm), _clone(fm)
    kern(**got)
    oracle(**want)
    assert kern.native.reason == (None if tier == "gcc" else "no-compiler"), kern.native
    assert got[out].vals.tobytes() == want[out].vals.tobytes(), kern.source


@pytest.mark.parametrize("tier", ["gcc", "no-compiler"])
@pytest.mark.parametrize("kernel", KERNELS)
@pytest.mark.parametrize("fmt", COMPILED)
def test_the_index_width_changes_no_bit(fmt, kernel, tier, monkeypatch):
    """One kernel bound to a format's int32 build, then to its int64 build
    (forced by lowering the narrowing bound): the same bits."""
    _tier(tier, monkeypatch)
    rng = _rng(f"tier-bits/{fmt}/{kernel}/width")
    coo = COOMatrix.random(40, 40, 0.4, rng=rng)
    fm, out = _operands(kernel, FORMAT_NAMES[fmt].from_coo(coo), rng)
    for name, f in fm.items():
        if name != "A":
            f.vals[...] = rng.standard_normal(f.vals.shape)
    with monkeypatch.context() as m:
        m.setattr(base, "NARROW_MAX", -1)
        wide = FORMAT_NAMES[fmt].from_coo(coo)
    kern = compile_kernel(KERNELS[kernel], fm)
    narrow, wide = _clone(fm), {**_clone(fm), "A": wide}
    kern(**narrow)
    assert kern.native.reason in (None if tier == "gcc" else "no-compiler", "block-gemv"), kern.native
    kern(**wide)
    assert narrow[out].vals.tobytes() == wide[out].vals.tobytes(), kern.source


def _pcg_run(A, vecs, backend, runs=2):
    """``PCG_SRC`` bound on private copies of ``vecs`` and run ``runs``
    times; returns the kernel, the vectors and the slot array."""
    got = {k: DenseVector(v.vals.copy()) for k, v in vecs.items()}
    kern = compile_kernel(PCG_SRC, {"A": A, **got}, backend=backend)
    run = kern.bind(A=A, rz=1.25, **got)
    for _ in range(runs):  # a reduced scalar restarts at zero on every run
        run()
    return kern, got, run.scalars


@pytest.mark.parametrize("tier", ["gcc", "no-compiler"])
@pytest.mark.parametrize("fmt", BUILD)
def test_pcg_program_is_interpreted_bitwise_on_every_tier(fmt, tier, monkeypatch):
    _tier(tier, monkeypatch)
    rng = _rng(f"tier-bits/{fmt}/pcg")
    A = BUILD[fmt](COOMatrix.random(40, 40, 0.4, rng=rng))
    vecs = {k: DenseVector(rng.standard_normal(40)) for k in "XRZPQD"}
    kern, got, slots = _pcg_run(A, vecs, None)
    _, want, want_slots = _pcg_run(A, vecs, "interpreted")
    assert kern.native.reason == (None if tier == "gcc" else "no-compiler"), kern.native
    for k in "XRZPQ":
        assert got[k].vals.tobytes() == want[k].vals.tobytes(), (k, kern.source)
    assert slots.tobytes() == want_slots.tobytes()


@pytest.mark.parametrize("tier", ["gcc", "no-compiler"])
@pytest.mark.parametrize("piece", ["A_D", "A_SL", "A_SNL_global"])
def test_blocksolve_pieces_are_interpreted_bitwise_on_every_tier(piece, tier, monkeypatch):
    """Rank 0's pieces of a 3-dof FEM matrix on two ranks: 3x3 clique
    blocks and i-nodes a few rows deep print the scalar nest."""
    _tier(tier, monkeypatch)
    bs = BlockSolveMatrix.from_coo(fem_matrix(points=12, dof=3, rng=4))
    A = getattr(BSFragments(0, MultiBlockDistribution.from_color_classes(bs.clique_ptr, bs.colors, 2), bs), piece)
    rng = _rng(f"tier-bits/bs/{piece}")
    fm = {"A": A, "X": DenseVector(rng.standard_normal(A.shape[1])), "Y": DenseVector(rng.standard_normal(A.shape[0]))}
    kern = compile_kernel(KERNELS["spmv"], fm)
    got, want = _clone(fm), _clone(fm)
    kern(**got)
    compile_kernel(KERNELS["spmv"], fm, backend="interpreted")(**want)
    assert A.small_blocks and kern.unit_backends == ("scalar",)
    assert kern.native.reason == (None if tier == "gcc" else "no-compiler"), kern.native
    assert got["Y"].vals.tobytes() == want["Y"].vals.tobytes(), kern.source


ONE_BLOCK = {"Inode": InodeMatrix.from_coo, "BlockDiag": BlockDiagonalMatrix.from_coo, "DenseBlocks": DenseBlocksMatrix.from_coo}


@pytest.mark.parametrize(("fmt", "under"), [("Inode", (13, 15)), ("BlockDiag", (13, 13)), ("DenseBlocks", (13, 15))])
def test_the_cut_sends_smaller_blocks_to_c_and_the_rest_to_blas(fmt, under):
    """One dense block: just under the cut it prints the scalar nest and
    runs as C; at the cut it is ``block-gemv``."""
    if native.find_compiler() is None:
        pytest.skip("no C compiler on PATH")
    assert under[0] * under[1] < blocks._SMALL_BLOCK == 14 * 14
    rng = _rng(f"tier-bits/cut/{fmt}")
    for (r, c), label in ((under, "scalar"), ((14, 14), "block-gemv")):
        dense = rng.standard_normal((r, c))
        A = ONE_BLOCK[fmt](COOMatrix.from_dense(dense))
        fm = {"A": A, "X": DenseVector(rng.standard_normal(c)), "Y": DenseVector.zeros(r)}
        kern = compile_kernel(KERNELS["spmv"], fm)
        kern(**fm)
        assert getattr(A, A.layout.count) == 1 and kern.unit_backends == (label,)
        assert kern.native.reason == (None if label == "scalar" else "block-gemv"), kern.native
        np.testing.assert_allclose(fm["Y"].vals, dense @ fm["X"].vals, rtol=1e-12, atol=1e-12)


@pytest.mark.parametrize("tier", ["gcc", "no-compiler"])
@pytest.mark.parametrize("sparse", [False, True])
def test_dot_is_interpreted_bitwise_on_every_tier(sparse, tier, monkeypatch):
    _tier(tier, monkeypatch)
    rng = _rng(f"tier-bits/dot/{sparse}")
    x = rng.standard_normal(300) * (rng.random(300) < 0.3)
    y = rng.standard_normal(300)
    X = SparseVector.from_dense(x) if sparse else DenseVector(x)
    got = dot(X, y)
    Y = DenseVector(y)
    want = compile_kernel(DOT_SRC, {"X": X, "Y": Y}, backend="interpreted")(X=X, Y=Y)["s"]
    # one sum, in index order
    assert got == want == np.cumsum(x * y)[-1]


def test_scalars_cross_tiers_in_unit_order():
    """The SpMV of an i-node matrix with blocks above the cut (two 15x15)
    runs BLAS (``block-gemv``), the rest of the iteration C: the Python
    unit between two C runs sees the scalars the first left and leaves
    them for the next."""
    if native.find_compiler() is None:
        pytest.skip("no C compiler on PATH")
    clear_kernel_cache()
    rng = _rng("tier-bits/inode/pcg")
    dense = np.kron(np.eye(2), np.ones((15, 15))) + np.eye(30)
    A = InodeMatrix.from_coo(COOMatrix.from_dense(dense))
    vecs = {k: DenseVector(rng.standard_normal(30)) for k in "XRZPQD"}
    kern, got, slots = _pcg_run(A, vecs, None, runs=1)
    assert "block-gemv" in kern.unit_backends and kern.native.reason == "block-gemv"
    assert {u.reason for u in kern.native.units} == {None, "block-gemv"}
    v = {k: f.vals.copy() for k, f in vecs.items()}
    q = dense @ v["P"]
    pq = v["P"] @ q
    x, r = v["X"] + 1.25 / pq * v["P"], v["R"] - 1.25 / pq * q
    z = v["D"] * r
    p = z + (r @ z) / 1.25 * v["P"]
    for name, want in dict(Q=q, X=x, R=r, Z=z, P=p).items():
        np.testing.assert_allclose(got[name].vals, want, rtol=1e-12, atol=1e-12)
    np.testing.assert_allclose(slots[[kern.slots.index(s) for s in ("pq", "rzn", "rr")]], [pq, r @ z, r @ r], rtol=1e-12)
