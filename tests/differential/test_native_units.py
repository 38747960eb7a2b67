"""The native tier decides per unit, in any kernel — not only hybrids.

A two-statement nest — a CRS SpMV, then a product whose sparse vector is
searched through its ``_find`` callback — runs the first unit as C and
the second on numpy.  Its output is byte for byte the two
single-statement kernels run in sequence (each on its own tier), bound
and unbound; with no compiler the whole kernel runs numpy, again byte
for byte the two kernels in sequence.
"""

import zlib

import numpy as np
import pytest

from repro.compiler import compile_kernel, native
from repro.formats import COOMatrix, CRSMatrix, DenseVector, SparseVector
from repro.observability import metrics
from tests.conftest import case_rng
from tests.generators import gen_power_law

SPMV = "Y[i] += A[i,j] * X[j]"
SEARCHED = "Y[i] += B[i,j] * S[j]"


def _compile(*stmts):
    """One nest over ``stmts``; merges off, so ``S`` is searched."""
    src = "for i in 0:n { for j in 0:m { " + "  ".join(stmts) + " } }"
    return compile_kernel(src, _operands(), allow_merge=False, cache=False)


def _operands(n=29):
    rng = case_rng(zlib.crc32(b"native-units"))

    def matrix():
        coo = gen_power_law(rng, n)
        vals = rng.standard_normal(coo.nnz)
        return CRSMatrix.from_coo(COOMatrix(coo.shape, coo.row, coo.col, vals, canonical=True))

    s = rng.standard_normal(n) * (rng.random(n) < 0.4)
    return {
        "A": matrix(),
        "B": matrix(),
        "X": DenseVector(rng.standard_normal(n)),
        "S": SparseVector.from_dense(s),
        "Y": DenseVector(rng.standard_normal(n)),
    }


def _run(kernel, fm, bound):
    if bound:
        kernel.bind(**fm)()
    else:
        kernel(**fm)


def _in_sequence(bound):
    """``Y`` after the two single-statement kernels, one after the other."""
    fm = _operands()
    for stmt in (SPMV, SEARCHED):
        _run(_compile(stmt), fm, bound)
    return fm["Y"].vals


@pytest.mark.skipif(native.find_compiler() is None, reason="no C compiler on PATH")
@pytest.mark.parametrize("bound", [True, False], ids=["bound", "unbound"])
def test_a_callback_unit_runs_numpy_while_its_sibling_runs_c(bound):
    kernel, fm = _compile(SPMV, SEARCHED), _operands()
    with metrics.scoped() as registry:
        _run(kernel, fm, bound)
        snap = registry.snapshot()
    assert [u.reason for u in kernel.native.units] == [None, "callback"]
    assert kernel.native.reason == "callback"
    assert snap["compiler.native.declined{reason=callback}"] == 1
    assert "[0] native C" in str(kernel.native)
    assert fm["Y"].vals.tobytes() == _in_sequence(bound).tobytes()


@pytest.mark.parametrize("bound", [True, False], ids=["bound", "unbound"])
def test_without_a_compiler_the_whole_kernel_runs_numpy(bound, monkeypatch):
    monkeypatch.setattr(native, "find_compiler", lambda: None)
    kernel, fm = _compile(SPMV, SEARCHED), _operands()
    with metrics.scoped() as registry:
        _run(kernel, fm, bound)
        snap = registry.snapshot()
    assert [u.reason for u in kernel.native.units] == ["no-compiler", "callback"]
    assert snap["compiler.native.declined{reason=no-compiler}"] == 1
    assert fm["Y"].vals.tobytes() == _in_sequence(bound).tobytes()
    assert not np.array_equal(fm["Y"].vals, _operands()["Y"].vals)
