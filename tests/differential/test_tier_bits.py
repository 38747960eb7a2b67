"""A result's bits do not depend on the toolchain.

Over every kernel x format pair of :mod:`tests.differential.test_prepare_run`,
on random-float operands, the ``vectorized`` result is bitwise the
``interpreted`` one: with a C compiler (the scalar nest runs as C) and
without one (``find_compiler`` patched to None: the same nest runs as
Python).  ``block-gemv`` units run BLAS and are skipped.
"""

import pytest

from repro.compiler import clear_kernel_cache, compile_kernel, native
from repro.formats import FORMAT_NAMES, COOMatrix
from tests.differential.test_prepare_run import COMPILED, KERNELS, _clone, _operands, _rng


@pytest.mark.parametrize("tier", ["gcc", "no-compiler"])
@pytest.mark.parametrize("kernel", KERNELS)
@pytest.mark.parametrize("fmt", COMPILED)
def test_vectorized_is_interpreted_bitwise_on_every_tier(fmt, kernel, tier, monkeypatch):
    if tier == "gcc" and native.find_compiler() is None:
        pytest.skip("no C compiler on PATH")
    if tier == "no-compiler":
        monkeypatch.setattr(native, "find_compiler", lambda: None)
    clear_kernel_cache()  # a cached kernel keeps the tiers its earlier binds chose
    rng = _rng(f"tier-bits/{fmt}/{kernel}")
    # ~16 random-float entries a row: any lowering that reorders a row's
    # sums (a segmented or pairwise reduction) changes the last bits
    coo = COOMatrix.random(40, 40, 0.4, rng=rng)
    fm, out = _operands(kernel, FORMAT_NAMES[fmt].from_coo(coo), rng)
    for name, f in fm.items():
        if name != "A":
            f.vals[...] = rng.standard_normal(f.vals.shape)
    kern = compile_kernel(KERNELS[kernel], fm)
    if "block-gemv" in kern.unit_backends:
        pytest.skip("block-gemv runs BLAS")
    oracle = compile_kernel(KERNELS[kernel], fm, backend="interpreted")
    got, want = _clone(fm), _clone(fm)
    kern(**got)
    oracle(**want)
    assert kern.native.reason == (None if tier == "gcc" else "no-compiler"), kern.native
    assert got[out].vals.tobytes() == want[out].vals.tobytes(), kern.source
