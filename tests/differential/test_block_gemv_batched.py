"""The shape-batched block-GEMV lowering, differentially.

``prepare`` groups a blocked format's blocks by ``(nrows, ncols)``;
``run`` does one reshape + one batched product + one scatter per shape.
Hand-packed Inode / BlockDiag / DenseBlocks structures pin every branch
of that grouping — value slice vs gather index, lone block, row-sharing
windows, empty and zero-width blocks — against the dense reference and
the interpreted backend.
"""

import zlib

import numpy as np
import pytest

from repro.analysis.lint import lint_kernel
from repro.compiler import compile_kernel
from repro.compiler.codegen import block_groups
from repro.formats import DenseVector
from repro.formats.blockdiag import BlockDiagonalMatrix
from repro.formats.denseblocks import DenseBlocksMatrix
from repro.formats.inode import InodeMatrix
from tests.conftest import case_rng
from tests.generators import integer_vector

KERNELS = {
    "spmv": ("for i in 0:n { for j in 0:m { Y[i] += A[i,j] * X[j] } }", lambda D, x, d: D @ x),
    "rowscaled": (
        "for i in 0:n { for j in 0:m { Y[i] += D[i] * A[i,j] * X[j] * 2 } }",
        lambda D, x, d: 2 * d * (D @ x),
    ),
    "rowsum": ("for i in 0:n { for j in 0:m { Y[i] += A[i,j] } }", lambda D, x, d: D.sum(axis=1)),
}


def _rng(tag: str):
    return case_rng(zlib.crc32(tag.encode()))


def _ptr(lengths):
    return np.concatenate(([0], np.cumsum(lengths))).astype(np.int64)


def _inode(rng, n, blocks):
    """InodeMatrix + its dense form from ``(rows, cols)`` index lists."""
    D = np.zeros((n, n))
    vals = []
    for rows, cols in blocks:
        blk = rng.integers(1, 8, (len(rows), len(cols))).astype(float)
        D[np.ix_(rows, cols)] += blk
        vals.append(blk.ravel())
    A = InodeMatrix(
        (n, n),
        np.concatenate([r for r, _ in blocks] or [[]]).astype(np.int64),
        _ptr([len(r) for r, _ in blocks]),
        np.concatenate([c for _, c in blocks] or [[]]).astype(np.int64),
        _ptr([len(c) for _, c in blocks]),
        np.concatenate(vals or [[]]),
        _ptr([len(r) * len(c) for r, c in blocks]),
    )
    return A, D


def _blockdiag(rng, widths):
    n = int(sum(widths))
    D = np.zeros((n, n))
    vals, lo = [], 0
    for w in widths:
        blk = rng.integers(1, 8, (w, w)).astype(float)
        D[lo : lo + w, lo : lo + w] = blk
        vals.append(blk.ravel())
        lo += w
    sq = [w * w for w in widths]
    return BlockDiagonalMatrix(n, _ptr(widths), np.concatenate(vals or [[]]), _ptr(sq)), D


def _windows(rng, n, wins):
    D = np.zeros((n, n))
    vals = []
    for r0, c0, h, w in wins:
        blk = rng.integers(1, 8, (h, w)).astype(float)
        D[r0 : r0 + h, c0 : c0 + w] = blk
        vals.append(blk.ravel())
    r0, c0, h, w = (list(v) for v in zip(*wins)) if wins else ([], [], [], [])
    A = DenseBlocksMatrix(
        (n, n), r0, c0, h, w, np.concatenate(vals or [[]]), _ptr([a * b for a, b in zip(h, w)])
    )
    return A, D


def _case(name):
    """(matrix, dense form) of one named structure."""
    rng = _rng(f"block-batched/{name}")
    r = np.arange
    if name == "inode-interleaved":  # 3 shapes, same-shape blocks apart: gather
        return _inode(rng, 14, [
            (r(0, 2), [1, 5, 9]), ([2], [0, 3]), (r(3, 5), [2, 6, 13]),
            (r(5, 8), [4, 7]), ([8], [9, 10]), (r(9, 11), [0, 1, 2]), (r(11, 14), [3, 8]),
        ])
    if name == "inode-contiguous":  # same-shape runs + one lone block: slices
        return _inode(rng, 12, [
            (r(0, 2), [1, 5, 9]), (r(2, 4), [0, 3, 7]), (r(4, 6), [2, 6, 11]),
            ([6], [4, 7]), ([7], [8, 9]), (r(8, 12), [0, 5, 10]),
        ])
    if name == "inode-zero-width":  # i-nodes with no columns, no rows
        return _inode(rng, 8, [
            (r(0, 2), []), (r(2, 4), [1, 6]), ([], [3, 4]), (r(4, 6), [0, 7]), ([6], []),
        ])
    if name == "inode-shared-rows":  # a row in two same-shape i-nodes
        return _inode(rng, 8, [(r(0, 2), [0, 1]), ([1, 2], [4, 5]), ([3], [2, 6, 7])])
    if name == "inode-empty":
        return _inode(rng, 5, [])
    if name == "blockdiag-interleaved":
        return _blockdiag(rng, [2, 3, 2, 4, 3, 2, 1])
    if name == "blockdiag-contiguous":
        return _blockdiag(rng, [3, 3, 3, 2, 2, 4])
    if name == "blockdiag-empty":
        return _blockdiag(rng, [])
    if name == "windows":  # 3 shapes, a lone window, same-shape windows apart
        return _windows(rng, 20, [
            (0, 0, 3, 4), (3, 6, 2, 2), (5, 10, 3, 4), (9, 0, 5, 6), (14, 8, 2, 2), (16, 12, 3, 4),
        ])
    if name == "windows-shared-rows":  # two same-shape windows on the same rows
        return _windows(rng, 12, [(2, 0, 3, 3), (2, 5, 3, 3), (7, 2, 2, 4)])
    if name == "windows-big":  # same-shape blocks of >= 4096 values, apart in storage
        return _windows(rng, 200, [(0, 10, 64, 64), (70, 90, 3, 5), (100, 120, 64, 64)])
    if name == "windows-empty":
        return _windows(rng, 6, [])
    raise KeyError(name)


CASES = [
    "inode-interleaved", "inode-contiguous", "inode-zero-width", "inode-shared-rows",
    "inode-empty", "blockdiag-interleaved", "blockdiag-contiguous", "blockdiag-empty",
    "windows", "windows-shared-rows", "windows-big", "windows-empty",
]


def _operands(A, rng):
    n = A.shape[0]
    return {
        "A": A,
        "X": DenseVector(integer_vector(rng, n)),
        "D": DenseVector(integer_vector(rng, n)),
        "Y": DenseVector(integer_vector(rng, n)),
    }


@pytest.mark.parametrize("kernel", KERNELS)
@pytest.mark.parametrize("case", CASES)
def test_batched_lowering_matches_dense_and_interpreted(case, kernel):
    A, D = _case(case)
    src, ref = KERNELS[kernel]
    rng = _rng(f"operands/{case}/{kernel}")
    fm = {k: v for k, v in _operands(A, rng).items() if f"{k}[" in src}
    y0 = fm["Y"].vals.copy()
    kern = compile_kernel(src, fm, cache=False)
    assert kern.unit_backends == ("block-gemv",)
    assert not lint_kernel(kern, fm).errors(), kern.source  # BER035 among them

    def want():
        d = fm["D"].vals if "D" in fm else None
        return y0 + ref(D, fm["X"].vals if "X" in fm else None, d)

    bound = kern.bind(**fm)
    bound()
    np.testing.assert_allclose(fm["Y"].vals, want(), rtol=0, atol=1e-12)

    oracle_fm = {**fm, "Y": DenseVector(y0.copy())}
    compile_kernel(src, oracle_fm, backend="interpreted", cache=False)(**oracle_fm)
    np.testing.assert_allclose(fm["Y"].vals, oracle_fm["Y"].vals, rtol=0, atol=1e-12)

    # aux holds indices, never values: an in-place edit of A.vals after
    # bind() is what the next bound call multiplies
    A.vals *= -3.0
    D *= -3.0
    fm["Y"].vals[:] = y0
    bound()
    np.testing.assert_allclose(fm["Y"].vals, want(), rtol=0, atol=1e-12)


def _groups(A):
    """``block_groups`` on the arrays the format's block view names."""
    if isinstance(A, InodeMatrix):
        return block_groups(
            np.diff(A.inodeptr), np.diff(A.colptr), A.voff, A.inodeptr, A.rows, A.colptr, A.cols
        )
    if isinstance(A, BlockDiagonalMatrix):
        w = np.diff(A.blockptr)
        return block_groups(w, w, A.voff, A.blockptr, None, A.blockptr, None)
    return block_groups(A.bh, A.bw, A.voff, A.r0, None, A.c0, None)


def test_grouping_picks_slice_gather_lone_block_and_scatter_kind():
    """Which branch each structure exercises — so the cases above keep
    covering all of them if the generators are edited."""
    kinds = {case: _groups(_case(case)[0]) for case in CASES}
    is_slice = lambda g: isinstance(g[2], slice)  # noqa: E731

    assert len(kinds["inode-interleaved"]) == 3
    assert not any(is_slice(g) for g in kinds["inode-interleaved"] if len(g[3]) == 3)
    assert all(is_slice(g) for g in kinds["inode-contiguous"])
    assert sorted(len(g[3]) for g in kinds["inode-contiguous"]) == [2, 3, 3]  # one lone block
    assert len(kinds["inode-zero-width"]) == 1  # zero-area blocks carry no work
    assert [g[4] for g in kinds["inode-shared-rows"]] == [False, True]
    assert [is_slice(g) for g in kinds["blockdiag-contiguous"]] == [True, True, True]
    assert not all(is_slice(g) for g in kinds["blockdiag-interleaved"])
    assert len(kinds["windows"]) == 3 and sum(len(g[3]) == 2 for g in kinds["windows"]) == 1
    assert [g[4] for g in kinds["windows-shared-rows"]] == [False, True]
    # big blocks never batch: copying their values would cost more than a trip each
    assert sorted(g[3] for g in kinds["windows-big"]) == [(3, 5), (64, 64), (64, 64)]
    assert all(is_slice(g) for g in kinds["windows-big"])
    for empty in ("inode-empty", "blockdiag-empty", "windows-empty"):
        assert kinds[empty] == []
    # a lone block is a 2-D view of the value array: one BLAS gemv, no copy
    A = _case("windows")[0]
    lone = next(g for g in kinds["windows"] if len(g[3]) == 2)
    assert np.shares_memory(A.vals[lone[2]].reshape(lone[3]), A.vals)
