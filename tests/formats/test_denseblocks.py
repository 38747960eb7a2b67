"""DenseBlocksMatrix: free-floating dense windows for region specialization.

Construction invariants (disjointness, voff consistency, bounds), COO
round-trips, and — the point of the format — the block-GEMV lowering:
an SpMV over planted windows must compile to a ``@``/``reshape`` matmul
per window and agree **bitwise** with the dense oracle.
"""

import numpy as np
import pytest

from repro.analysis.contracts import audit_format, default_probes
from repro.compiler import compile_kernel
from repro.errors import FormatError
from repro.formats.denseblocks import DenseBlocksMatrix
from repro.formats.coo import COOMatrix
from repro.formats.dense import DenseVector
from repro.kernels.spmv import SPMV_SRC, SPMV_T_SRC
from tests.conftest import case_rng
from tests.generators import integer_vector


def _windowed_matrix(rng, n=40, windows=((4, 20, 8, 10), (24, 2, 10, 8))):
    """A COO with integer entries planted inside the given windows plus a
    few entries outside (which from_coo_windows must ignore)."""
    ii, jj = [], []
    for r0, c0, h, w in windows:
        rr, cc = np.meshgrid(np.arange(r0, r0 + h), np.arange(c0, c0 + w),
                             indexing="ij")
        keep = rng.random(h * w) < 0.8
        ii.append(rr.ravel()[keep])
        jj.append(cc.ravel()[keep])
    ii = np.concatenate(ii)
    jj = np.concatenate(jj)
    vals = rng.integers(1, 7, size=len(ii)).astype(float)
    return COOMatrix.from_entries((n, n), ii, jj, vals)


def test_from_coo_windows_round_trips_window_entries():
    rng = case_rng(5601)
    windows = ((4, 20, 8, 10), (24, 2, 10, 8))
    coo = _windowed_matrix(rng, windows=windows)
    fmt = DenseBlocksMatrix.from_coo_windows(coo, windows)
    assert fmt.nblocks == 2
    # every slot of every window is stored (explicit zeros included)
    assert fmt.stored_count == sum(h * w for _, _, h, w in windows)
    assert np.array_equal(fmt.to_coo().to_dense(), coo.to_dense())


def test_off_window_entries_are_ignored_not_smeared():
    coo = COOMatrix.from_entries(
        (20, 20), [0, 10, 19], [0, 10, 19], [1.0, 2.0, 3.0]
    )
    fmt = DenseBlocksMatrix.from_coo_windows(coo, [(8, 8, 4, 4)])
    dense = fmt.to_coo().to_dense()
    assert dense[10, 10] == 2.0
    assert dense[0, 0] == 0.0 and dense[19, 19] == 0.0
    assert fmt.nnz == 1


def test_from_coo_windows_matches_a_full_scan_on_ragged_edges():
    """The row-slice gather stores exactly what one full-nnz pass per
    window stores, bit for bit, for windows on the last (partial) tile
    row and column of a 45x37 matrix."""
    rng = case_rng(5605)
    n, m = 45, 37
    windows = ((37, 29, 8, 8), (0, 21, 45, 8), (29, 0, 16, 21), (2, 2, 3, 3))
    ii, jj = np.divmod(np.flatnonzero(rng.random(n * m) < 0.6), m)
    coo = COOMatrix.from_entries((n, m), ii, jj, rng.standard_normal(len(ii)))
    fmt = DenseBlocksMatrix.from_coo_windows(coo, windows)
    want = np.zeros(fmt.voff[-1])
    for b, (r0, c0, h, w) in enumerate(windows):
        r, c = coo.row - r0, coo.col - c0
        keep = (r >= 0) & (r < h) & (c >= 0) & (c < w)
        want[fmt.voff[b] + r[keep] * w + c[keep]] = coo.vals[keep]
    assert fmt.vals.tobytes() == want.tobytes()


def test_from_coo_whole_matrix_window_and_empty():
    rng = case_rng(5602)
    coo = _windowed_matrix(rng, n=24, windows=((0, 0, 12, 12),))
    fmt = DenseBlocksMatrix.from_coo(coo)
    assert fmt.nblocks == 1 and fmt.stored_count == 24 * 24
    assert np.array_equal(fmt.to_coo().to_dense(), coo.to_dense())
    # no stored entries: still one all-zero window (structure, no values)
    hollow = DenseBlocksMatrix.from_coo(COOMatrix((6, 6), [], [], []))
    assert hollow.nblocks == 1 and hollow.nnz == 0
    assert hollow.to_coo().nnz == 0
    # zero-extent shape: a zero-area window is invalid, so zero windows
    empty = DenseBlocksMatrix.from_coo(COOMatrix((0, 5), [], [], []))
    assert empty.nblocks == 0 and empty.nnz == 0


@pytest.mark.parametrize(
    "kwargs,match",
    [
        (dict(r0=[0, 1], c0=[0], bh=[2, 2], bw=[2, 2],
              vals=np.zeros(8), voff=[0, 4, 8]), "equal lengths"),
        (dict(r0=[0], c0=[0], bh=[0], bw=[2],
              vals=np.zeros(0), voff=[0, 0]), "non-empty"),
        (dict(r0=[9], c0=[0], bh=[4], bw=[2],
              vals=np.zeros(8), voff=[0, 8]), "exceeds"),
        (dict(r0=[0], c0=[0], bh=[2], bw=[2],
              vals=np.zeros(8), voff=[0, 8]), "voff inconsistent"),
        (dict(r0=[0], c0=[0], bh=[2], bw=[2],
              vals=np.zeros(3), voff=[0, 4]), "vals length"),
        (dict(r0=[0, 1], c0=[0, 1], bh=[4, 4], bw=[4, 4],
              vals=np.zeros(32), voff=[0, 16, 32]), "overlap"),
    ],
)
def test_constructor_rejects_malformed_storage(kwargs, match):
    with pytest.raises(FormatError, match=match):
        DenseBlocksMatrix((10, 10), **kwargs)


def test_touching_windows_are_not_overlapping():
    # edge-adjacent windows share a boundary line but no cell
    fmt = DenseBlocksMatrix(
        (10, 10), r0=[0, 0], c0=[0, 4], bh=[4, 4], bw=[4, 4],
        vals=np.arange(32, dtype=float), voff=[0, 16, 32],
    )
    assert fmt.nblocks == 2


@pytest.mark.parametrize("src", [SPMV_SRC, SPMV_T_SRC], ids=["spmv", "spmv_t"])
def test_compiled_spmv_is_bitwise_exact(src):
    rng = case_rng(5603)
    n = 40
    windows = ((4, 20, 8, 10), (24, 2, 10, 8))
    coo = _windowed_matrix(rng, n=n, windows=windows)
    A = DenseBlocksMatrix.from_coo_windows(coo, windows)
    x = integer_vector(rng, n)
    y0 = integer_vector(rng, n)
    dense = {"A": coo.to_dense()}
    for backend in ("vectorized", "interpreted"):
        formats = {
            "A": A,
            "X": DenseVector(x.copy()),
            "Y": DenseVector(y0.copy()),
        }
        kernel = compile_kernel(src, formats, backend=backend)
        kernel(**formats)
        if src is SPMV_SRC:
            want = y0 + dense["A"] @ x
        else:
            want = y0 + dense["A"].T @ x
        got = formats["Y"].vals
        assert (got + 0.0).tobytes() == (want + 0.0).tobytes(), backend


def test_spmv_lowers_to_block_gemv():
    rng = case_rng(5604)
    n = 40
    windows = ((0, 8, 16, 16),)
    coo = _windowed_matrix(rng, n=n, windows=windows)
    A = DenseBlocksMatrix.from_coo_windows(coo, windows)
    formats = {
        "A": A,
        "X": DenseVector(np.zeros(n)),
        "Y": DenseVector.zeros(n),
    }
    kernel = compile_kernel(SPMV_SRC, formats, backend="vectorized")
    assert "block-gemv" in kernel.unit_backends
    assert "@" in kernel.source and ".reshape(" in kernel.source


def test_instances_pass_the_format_contract_audit():
    audited = 0
    for probe in default_probes():
        fmt = DenseBlocksMatrix.from_coo(probe)
        report = audit_format(fmt)
        assert report.ok, report.render()
        audited += 1
    assert audited >= 2
