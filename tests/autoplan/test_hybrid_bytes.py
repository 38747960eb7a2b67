"""A hybrid plan is one ordinary kernel, byte for byte the region chain.

``plan_hybrid(coo).compile()`` returns one :class:`CompiledKernel` with
one unit per region, in partition order.  On every hybrid-tagged
generator class with random float values (so any change of summation
order shows in the bytes) its output must equal, byte for byte, one
single-statement SpMV kernel per region run in partition order — bound
and unbound, with a C compiler on ``PATH`` and without one.  With a
compiler, exactly the ``block-gemv`` units stay numpy.
"""

import zlib

import pytest

from repro.compiler import compile_kernel, native, plan_hybrid
from repro.formats import COOMatrix, DenseVector
from repro.kernels.spmv import SPMV_SRC
from tests.conftest import case_rng
from tests.generators import HYBRID_CLASSES

CASES = [(cls, n) for cls in sorted(HYBRID_CLASSES) for n in (96, 200)]


def _bound(kernel, formats):
    kernel.bind(**formats)()


def _unbound(kernel, formats):
    kernel(**formats)


def _region_chain(hybrid, x, y0, call):
    """The reference: one ``SPMV_SRC`` kernel per region, accumulating
    into one ``Y`` in partition order."""
    y = DenseVector(y0.copy())
    for fmt in hybrid.build():
        formats = {"A": fmt, "X": DenseVector(x.copy()), "Y": y}
        call(compile_kernel(SPMV_SRC, formats, cache=False), formats)
    return y.vals


@pytest.mark.parametrize("toolchain", ["gcc", "none"])
@pytest.mark.parametrize("call", [_bound, _unbound], ids=["bound", "unbound"])
@pytest.mark.parametrize("cls,n", CASES)
def test_hybrid_kernel_is_the_region_chain_byte_for_byte(cls, n, call, toolchain, monkeypatch):
    if toolchain == "gcc" and native.find_compiler() is None:
        pytest.skip("no C compiler on PATH")
    if toolchain == "none":
        monkeypatch.setattr(native, "find_compiler", lambda: None)
    rng = case_rng(zlib.crc32(f"hybrid-bytes/{cls}/{n}".encode()))
    planted = HYBRID_CLASSES[cls](rng, n)
    coo = COOMatrix(planted.shape, planted.row, planted.col, rng.standard_normal(planted.nnz), canonical=True)
    x, y0 = rng.standard_normal(n), rng.standard_normal(n)

    hybrid = plan_hybrid(coo)
    assert hybrid.feasible
    kernel, formats = hybrid.compile(
        extra={"X": DenseVector(x.copy()), "Y": DenseVector(y0.copy())}, cache=False
    )
    assert [u.plan.driver for u in kernel.units] == [f"A{r}" for r in range(len(hybrid.partition.regions))]
    call(kernel, formats)
    assert formats["Y"].vals.tobytes() == _region_chain(hybrid, x, y0, call).tobytes()

    tiers = [u.reason for u in kernel.native.units]
    if toolchain == "none":
        assert set(tiers) <= {"block-gemv", "no-compiler"}
    else:
        assert tiers ==["block-gemv" if lb == "block-gemv" else None for lb in kernel.unit_backends]
