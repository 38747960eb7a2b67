"""``compile_kernel`` as a pass list: front_end → gate, then key → lookup
with a cache, then plan → lower on a miss or recheck on a hit
(repro.compiler.kernels).  A miss prints the nest once and ``exec``-s
nothing: a kernel that binds on the C tier never defines its Python pair."""

import itertools

import numpy as np
import pytest

from repro.compiler import codegen, compile_kernel, kernel_cache_stats, native
from repro.compiler.kernels import (
    KERNEL_CACHE,
    MISS_PASSES,
    REQUEST_PASSES,
    CompileRequest,
    clear_kernel_cache,
    compile_request,
)
from repro.compiler.plan_cache import PlanCache
from repro.errors import CompileError, VerificationError
from repro.formats import COOMatrix, CRSMatrix, DenseVector
from repro.observability import metrics
from repro.observability.trace import disable_tracing, enable_tracing

MISS_SPANS = (
    "compiler.parser.parse",
    "analysis.depend.classify",
    "compiler.sparsity.split",
    "compiler.query_extract.extract",
    "compiler.scheduling.plan",
    "compiler.codegen.generate",
)
#: gate-clean, but extract_query refuses two index tuples on one array
TWO_TUPLES = "for i in 0:n { for j in 0:n { Y[i] += A[i,j] * A[j,i] } }"
GAUSS_SEIDEL = "for i in 0:n { for j in 0:n { X[i] = X[i] - A[i,j] * X[j] } }"
_fresh = itertools.count()


def _fmts(n=6, *names):
    A = CRSMatrix.from_coo(COOMatrix.random(n, n, 0.5, rng=3))
    return {"A": A, **{v: DenseVector(np.ones(n)) for v in names}}


def _never_seen_spmv():
    """SpMV over array names no other test uses: the parse, classification
    and program-key memos are all cold for it."""
    y = f"Ypl{next(_fresh)}"
    return f"for i in 0:n {{ for j in 0:n {{ {y}[i] += A[i,j] * X[j] }} }}", y


def _children(tracer):
    """Names of the spans directly under ``compiler.compile_kernel``."""
    (top,) = [r for r in tracer.records if r.name == "compiler.compile_kernel"]
    inside = [
        r for r in tracer.records
        if r.depth == top.depth + 1 and top.ts <= r.ts <= top.ts + top.dur
    ]
    return [r.name for r in sorted(inside, key=lambda r: r.ts)]


@pytest.fixture
def tracer():
    clear_kernel_cache()
    yield enable_tracing()
    disable_tracing()
    clear_kernel_cache()


def test_the_pass_lists_are_plain_functions():
    assert [p.__name__ for p in REQUEST_PASSES] == ["front_end", "gate"]
    assert [p.__name__ for p in MISS_PASSES] == ["plan", "lower"]


def test_cold_compile_traces_the_six_miss_spans_in_order_and_warm_none(tracer):
    src, y = _never_seen_spmv()
    fmts = _fmts(6, "X", y)
    kern = compile_kernel(src, fmts)
    cold = _children(tracer)
    assert set(cold) == set(MISS_SPANS)
    # split runs once for the key's sparsity predicates (first time a
    # program is keyed) and once to plan; everything else exactly once
    assert cold.count("compiler.sparsity.split") == 2
    assert tuple(k for k, _ in itertools.groupby(cold)) == MISS_SPANS

    tracer.clear()
    assert compile_kernel(src, fmts) is kern
    assert _children(tracer) == []
    assert [r.name for r in tracer.records] == ["compiler.compile_kernel"]


@pytest.mark.skipif(native.find_compiler() is None, reason="no C compiler on PATH")
def test_a_c_tier_kernel_prints_its_nest_once_and_execs_no_python(tracer, monkeypatch):
    """Compile, bind and call a default-backend CRS SpMV: one print, which
    the bind translates to C, and no ``codegen.define`` anywhere."""
    define, defined = codegen.define, []
    monkeypatch.setattr(codegen, "define", lambda source: defined.append(source) or define(source))
    src, y = _never_seen_spmv()
    fmts = _fmts(6, "X", y)
    kern = compile_kernel(src, fmts)
    kern.bind(**fmts)()
    kern(**fmts)
    assert kern.native.reason is None, kern.native
    names = [r.name for r in tracer.records]
    assert names.count("compiler.codegen.generate") == 1
    assert "compiler.codegen.exec" not in names
    assert defined == []


def test_uncached_compile_runs_every_miss_pass_and_touches_no_counter(tracer):
    src, y = _never_seen_spmv()
    fmts = _fmts(6, "X", y)
    compile_kernel(src, fmts)  # warm every memo and the cache
    before = kernel_cache_stats()
    tracer.clear()
    with metrics.scoped() as registry:
        fresh = compile_kernel(src, fmts, cache=False)
        snap = registry.snapshot()
    assert _children(tracer) == list(MISS_SPANS[2:])
    assert fresh is not compile_kernel(src, fmts)
    assert kernel_cache_stats() == {**before, "hits": before["hits"] + 1}
    assert not [k for k in snap if k.startswith("compiler.cache_")]
    assert snap["compiler.compilations"] == 1


@pytest.mark.parametrize("private", [False, True], ids=["global", "private"])
def test_a_raising_pass_leaves_nothing_in_flight_and_nothing_cached(private):
    clear_kernel_cache()
    cache = PlanCache("compiler") if private else KERNEL_CACHE

    def request(src, fmts, **kw):
        if private:
            return compile_request(CompileRequest(src, fmts, **kw), cache).kernel
        return compile_kernel(src, fmts, **kw)

    for _ in range(2):  # the second attempt would hang on a stuck in-flight entry
        with pytest.raises(CompileError, match="two different index tuples"):
            request(TWO_TUPLES, _fmts(6, "Y"))
    assert cache.stats()["misses"] == 2 and len(cache) == 0
    with pytest.raises(VerificationError):
        request(GAUSS_SEIDEL, _fmts(6, "X"))
    assert cache.stats()["misses"] == 2  # the gate runs before the lookup
    assert cache._inflight == {} and len(cache) == 0
    # and the cache still works
    src, y = _never_seen_spmv()
    assert request(src, _fmts(6, "X", y)) is request(src, _fmts(6, "X", y))
    clear_kernel_cache()
