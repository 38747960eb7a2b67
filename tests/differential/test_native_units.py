"""The native tier decides per unit, in any kernel — not only hybrids.

A two-statement nest — a CRS SpMV, then a product whose sparse vector is
searched — runs both units as C, byte for byte the interpreted backend.
A nest whose second statement reads an ``InodeMatrix`` of i-nodes
above the small-block cut (lowered ``block-gemv``, which stays on numpy)
runs the first unit as C and the second on numpy; its output is byte for byte the two single-statement
kernels run in sequence (each on its own tier), bound and unbound.  With
no compiler the whole kernel runs numpy, again byte for byte the
statements' kernels in sequence.  A bind translates each run of C units
once, as one nest, whichever unit beside it stays on numpy.
"""

import zlib

import numpy as np
import pytest

from repro.compiler import compile_kernel, native, plan_hybrid
from repro.formats import COOMatrix, CRSMatrix, DenseVector, InodeMatrix, SparseVector
from repro.observability import metrics
from tests.conftest import case_rng
from tests.generators import gen_hybrid, gen_power_law

SPMV = "Y[i] += A[i,j] * X[j]"
SEARCHED = "Y[i] += B[i,j] * S[j]"
BLOCKED = "Y[i] += C[i,j] * X[j]"

needs_cc = pytest.mark.skipif(native.find_compiler() is None, reason="no C compiler on PATH")
bound_or_not = pytest.mark.parametrize("bound", [True, False], ids=["bound", "unbound"])


def _compile(*stmts, backend="vectorized"):
    """One nest over ``stmts``; merges off, so ``S`` is searched."""
    src = "for i in 0:n { for j in 0:m { " + "  ".join(stmts) + " } }"
    return compile_kernel(src, _operands(), backend=backend, allow_merge=False, cache=False)


def _operands(n=29):
    rng = case_rng(zlib.crc32(b"native-units"))

    def matrix():
        coo = gen_power_law(rng, n)
        vals = rng.standard_normal(coo.nnz)
        return COOMatrix(coo.shape, coo.row, coo.col, vals, canonical=True)

    def blocked():
        """Two i-nodes, 15x20 and 14x18: blocks above the cut."""
        pattern = np.zeros((n, n), dtype=bool)
        pattern[:15, rng.choice(n, 20, replace=False)] = True
        pattern[15:, rng.choice(n, 18, replace=False)] = True
        return COOMatrix.from_dense(np.where(pattern, rng.standard_normal((n, n)), 0.0))

    s = rng.standard_normal(n) * (rng.random(n) < 0.4)
    return {
        "A": CRSMatrix.from_coo(matrix()),
        "B": CRSMatrix.from_coo(matrix()),
        "C": InodeMatrix.from_coo(blocked()),
        "X": DenseVector(rng.standard_normal(n)),
        "S": SparseVector.from_dense(s),
        "Y": DenseVector(rng.standard_normal(n)),
    }


def _run(kernel, fm, bound):
    if bound:
        kernel.bind(**fm)()
    else:
        kernel(**fm)


def _in_sequence(bound, *stmts):
    """``Y`` after the single-statement kernels, one after the other."""
    fm = _operands()
    for stmt in stmts:
        _run(_compile(stmt), fm, bound)
    return fm["Y"].vals


@needs_cc
@bound_or_not
def test_a_searched_unit_runs_c_bitwise_equal_to_interpreted(bound):
    kernel, fm = _compile(SPMV, SEARCHED), _operands()
    with metrics.scoped() as registry:
        _run(kernel, fm, bound)
        snap = registry.snapshot()
    assert ("search", "S") in [(s.kind, s.term) for s in kernel.units[1].plan.steps]
    assert [u.reason for u in kernel.native.units] == [None, None]
    assert kernel.native.reason is None
    assert not any(k.startswith("compiler.native.declined") for k in snap)
    ref = _operands()
    _run(_compile(SPMV, SEARCHED, backend="interpreted"), ref, bound)
    assert fm["Y"].vals.tobytes() == ref["Y"].vals.tobytes()


@needs_cc
@bound_or_not
def test_block_gemv_unit_stays_numpy_beside_a_c_sibling(bound):
    kernel, fm = _compile(SPMV, BLOCKED), _operands()
    with metrics.scoped() as registry:
        _run(kernel, fm, bound)
        snap = registry.snapshot()
    assert [u.reason for u in kernel.native.units] == [None, "block-gemv"]
    assert kernel.native.reason == "block-gemv"
    assert snap["compiler.native.declined{reason=block-gemv}"] == 1
    assert "[0] native C" in str(kernel.native)
    assert fm["Y"].vals.tobytes() == _in_sequence(bound, SPMV, BLOCKED).tobytes()


@bound_or_not
def test_without_a_compiler_the_whole_kernel_runs_numpy(bound, monkeypatch):
    monkeypatch.setattr(native, "find_compiler", lambda: None)
    kernel, fm = _compile(SPMV, SEARCHED, BLOCKED), _operands()
    with metrics.scoped() as registry:
        _run(kernel, fm, bound)
        snap = registry.snapshot()
    assert [u.reason for u in kernel.native.units] == ["no-compiler", "no-compiler", "block-gemv"]
    assert snap["compiler.native.declined{reason=no-compiler}"] == 1
    assert fm["Y"].vals.tobytes() == _in_sequence(bound, SPMV, SEARCHED, BLOCKED).tobytes()
    assert not np.array_equal(fm["Y"].vals, _operands()["Y"].vals)


def _translations(monkeypatch) -> list:
    """The sources every later ``native.translate`` call is given."""
    calls, translate = [], native.translate
    monkeypatch.setattr(native, "translate", lambda source, kinds: calls.append(source) or translate(source, kinds))
    return calls


def test_a_bind_translates_each_c_run_once(monkeypatch):
    calls = _translations(monkeypatch)
    kernel = _compile(SPMV, BLOCKED)
    kernel.bind(**_operands())
    assert [u.reason for u in kernel.native.units][1] == "block-gemv"
    assert len(calls) == 1

    coo = gen_hybrid(np.random.default_rng([7303, 0]), 300)  # a fixed stream: the shape is asserted
    kernel, fm = plan_hybrid(coo).compile(coo, cache=False)
    del calls[:]
    kernel.bind(**fm)
    assert kernel.unit_backends == ("block-gemv", "scalar", "scalar", "scalar")
    assert [u.reason for u in kernel.native.units][0] == "block-gemv"
    assert len(calls) == 1
