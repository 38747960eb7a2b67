"""Tests for the workload generators and MatrixMarket I/O."""

import io

import numpy as np
import pytest
import scipy.io
import scipy.sparse as sp

from repro.errors import FormatError, ReproError
from repro.formats import COOMatrix
from repro.graphs import adjacency_csr, find_inodes
from repro.matrices import (
    TABLE1_MATRICES,
    fem_matrix,
    grid_laplacian,
    read_matrix_market,
    stencil_matrix,
    table1_matrix,
    write_matrix_market,
)
from repro.matrices.mmio import dumps


def test_grid_laplacian_1d():
    m = grid_laplacian((4,))
    dense = m.to_dense()
    assert np.allclose(np.diag(dense), 2.0)
    assert np.allclose(np.diag(dense, 1), -1.0)
    assert dense[0, 2] == 0.0


def test_grid_laplacian_2d_is_5_point():
    m = grid_laplacian((3, 3))
    assert m.shape == (9, 9)
    assert m.row_counts().max() == 5
    d = m.to_dense()
    assert np.allclose(d, d.T)
    # center point couples to its 4 neighbors
    assert d[4, 1] == d[4, 3] == d[4, 5] == d[4, 7] == -1.0
    assert d[4, 0] == 0.0  # no diagonal neighbor in a 5-point stencil


def test_grid_laplacian_3d_is_7_point():
    m = grid_laplacian((3, 3, 3))
    assert m.shape == (27, 27)
    assert m.row_counts().max() == 7
    assert np.allclose(np.diag(m.to_dense()), 6.0)


def test_grid_laplacian_spd():
    d = grid_laplacian((5, 5)).to_dense()
    w = np.linalg.eigvalsh(d)
    assert w.min() > 0


def test_grid_laplacian_bad_dims():
    with pytest.raises(ReproError):
        grid_laplacian((0,))
    with pytest.raises(ReproError):
        grid_laplacian((2, 2, 2, 2))


def test_stencil_matrix_dof1_is_laplacian():
    assert stencil_matrix((4, 4), dof=1) == grid_laplacian((4, 4))


def test_stencil_matrix_dof_structure():
    """The paper's problem: each grid point's dof rows are an i-node."""
    m = stencil_matrix((3, 3, 3), dof=5, rng=0)
    assert m.shape == (135, 135)
    gptr, _ = find_inodes(*adjacency_csr(m))
    assert (np.diff(gptr) == 5).all()
    d = m.to_dense()
    assert np.allclose(d, d.T)
    assert np.linalg.eigvalsh(d).min() > 0  # SPD for CG


def test_stencil_matrix_deterministic():
    a = stencil_matrix((3, 3), dof=3, rng=42)
    b = stencil_matrix((3, 3), dof=3, rng=42)
    assert a == b


def test_fem_matrix_structure():
    m = fem_matrix(points=10, dof=3, rng=0)
    assert m.shape == (30, 30)
    d = m.to_dense()
    assert np.allclose(d, d.T)
    gptr, _ = find_inodes(*adjacency_csr(m))
    # each point's dof rows share a pattern; points with identical
    # neighborhoods may merge, so groups are nonzero multiples of dof
    assert ((np.diff(gptr) % 3 == 0) & (np.diff(gptr) >= 3)).all()


def test_fem_matrix_single_point():
    m = fem_matrix(points=1, dof=2, rng=0)
    assert m.shape == (2, 2)
    assert np.abs(m.to_dense()).sum() > 0


@pytest.mark.parametrize("name", sorted(TABLE1_MATRICES))
def test_table1_suite_builds(name):
    m = table1_matrix(name)
    assert m.nnz > 0
    assert m.shape[0] == m.shape[1]
    # deterministic
    assert table1_matrix(name) == m


def test_table1_unknown_name():
    with pytest.raises(KeyError):
        table1_matrix("nope")


def test_memplus_like_row_skew():
    m = table1_matrix("memplus")
    counts = m.row_counts()
    assert counts.max() > 20 * np.median(counts)  # hub rows dominate


def test_gr_30_30_exact_shape():
    m = table1_matrix("gr_30_30")
    assert m.shape == (900, 900)
    assert m.row_counts().max() == 9


def test_mmio_roundtrip(paper_matrix):
    text = dumps(paper_matrix, comment="paper example")
    again = read_matrix_market(io.StringIO(text))
    assert again == paper_matrix


def test_mmio_matches_scipy(tmp_path, paper_matrix):
    p = tmp_path / "m.mtx"
    write_matrix_market(paper_matrix, p)
    ref = scipy.io.mmread(str(p))
    assert np.allclose(sp.coo_matrix(ref).toarray(), paper_matrix.to_dense())


def test_mmio_reads_scipy_output(tmp_path, paper_matrix):
    p = tmp_path / "m.mtx"
    scipy.io.mmwrite(str(p), sp.coo_matrix(paper_matrix.to_dense()))
    assert read_matrix_market(p) == paper_matrix


def test_mmio_symmetric():
    text = (
        "%%MatrixMarket matrix coordinate real symmetric\n"
        "3 3 2\n"
        "2 1 5.0\n"
        "3 3 7.0\n"
    )
    m = read_matrix_market(io.StringIO(text))
    d = m.to_dense()
    assert d[1, 0] == d[0, 1] == 5.0
    assert d[2, 2] == 7.0


def test_mmio_pattern():
    text = "%%MatrixMarket matrix coordinate pattern general\n2 2 1\n1 2\n"
    m = read_matrix_market(io.StringIO(text))
    assert m.to_dense()[0, 1] == 1.0


def test_mmio_bad_header():
    with pytest.raises(FormatError):
        read_matrix_market(io.StringIO("%%NotMM matrix coordinate real general\n"))


def test_mmio_wrong_count():
    text = "%%MatrixMarket matrix coordinate real general\n2 2 2\n1 1 1.0\n"
    with pytest.raises(FormatError):
        read_matrix_market(io.StringIO(text))
