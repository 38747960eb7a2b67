"""The dense-block formats — Inode, BlockDiag, DenseBlocks — and the one
description they share (``repro.formats.blocks``).

* The library ``matvec`` caches the grouping of blocks by shape (indices)
  and reads ``vals`` at every call: a value edited in place is what the
  next product multiplies, for BS95's components too.
* The contract sweep audits all three, each built with several blocks of
  several shapes.
* Each constructor refuses an index array that int64 would change (a
  fraction or a NaN) with ``FormatError``, instead of truncating it.
"""

import numpy as np
import pytest

from repro.analysis.contracts import audit_registered_formats, block_formats, default_probes
from repro.errors import FormatError
from repro.formats import BlockSolveMatrix, COOMatrix
from repro.formats.blockdiag import BlockDiagonalMatrix
from repro.formats.denseblocks import DenseBlocksMatrix
from repro.formats.inode import InodeMatrix
from repro.matrices.fem import fem_matrix

BLOCK = sorted(block_formats())
BAD = pytest.mark.parametrize("bad", [0.4, 1.5, np.nan], ids=["0.4", "1.5", "nan"])


def _fem():
    return fem_matrix(points=12, dof=3, rng=4)


@pytest.mark.parametrize("name", BLOCK)
def test_matvec_reads_values_edited_in_place(name):
    A = block_formats()[name](_fem())
    x = np.random.default_rng(1).standard_normal(A.shape[1])
    first = A.matvec(x)
    A.vals *= 2.0  # a power of two: every product and sum scales exactly
    assert np.array_equal(A.matvec(x), 2.0 * first)


def test_blocksolve_matvec_reads_component_values_edited_in_place():
    bs = BlockSolveMatrix.from_coo(_fem())
    x = np.random.default_rng(2).standard_normal(bs.shape[1])
    first = bs.matvec(x)
    bs.dense_blocks.vals *= 2.0
    bs.offdiag.vals *= 2.0
    assert np.array_equal(bs.matvec(x), 2.0 * first)


@pytest.mark.parametrize("name", BLOCK)
def test_block_formats_hold_several_blocks_of_several_shapes(name):
    A = block_formats()[name](default_probes()[0])
    assert getattr(A, A.layout.count) >= 3
    assert len(A.groups) >= 2


def test_contract_sweep_audits_every_block_format():
    report = audit_registered_formats(names=BLOCK)
    assert not report.errors(), report.errors()
    assert sorted(d.location for d in report.by_code("BER028")) == [
        f"format {name}" for name in BLOCK
    ]


@BAD
def test_inode_refuses_an_index_it_would_change(bad):
    with pytest.raises(FormatError, match="index values must"):  # row 0.4 was row 0
        InodeMatrix((2, 2), [bad, 1], [0, 2], [0, 1], [0, 2], np.ones(4), [0, 4])
    with pytest.raises(FormatError, match="index values must"):
        InodeMatrix((2, 2), [0, 1], [0, 2], [0, 1], [0, bad], np.ones(4), [0, 4])


@BAD
def test_blockdiag_refuses_an_index_it_would_change(bad):
    with pytest.raises(FormatError, match="index values must"):  # [0, 1.5, 2] was [0, 1, 2]
        BlockDiagonalMatrix(2, [0, bad, 2], np.ones(2), [0, 1, 2])
    with pytest.raises(FormatError, match="index values must"):
        BlockDiagonalMatrix(2, [0, 1, 2], np.ones(2), [0, bad, 2])
    with pytest.raises(FormatError, match="index values must"):
        BlockDiagonalMatrix.from_coo_blocks(COOMatrix.identity(2), [0, bad, 2])


@BAD
def test_denseblocks_refuses_an_index_it_would_change(bad):
    with pytest.raises(FormatError, match="index values must"):
        DenseBlocksMatrix((2, 2), [bad], [0], [1], [1], [1.0], [0, 1])
    with pytest.raises(FormatError, match="index values must"):
        DenseBlocksMatrix((2, 2), [0], [0], [1], [bad], [1.0], [0, 1])
