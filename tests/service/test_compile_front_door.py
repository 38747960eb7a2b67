"""The service's compile handler is the compiler's one front door.

``handle_compile`` used to run its own parse → key → single-flight around an
uncached ``compile_kernel``, with the dependence gate *inside* the build
closure — so a gate-rejected nest compiled once under ``verify="off"`` was
served as a hit to every later default request, a tampered certificate was
accepted on a hit, and a ``Program``-typed source was keyed un-normalized.
These pin the fixes: every request, cached or not, goes front_end → gate →
key before the lookup and is re-checked after a hit.
"""

from __future__ import annotations

import numpy as np

from repro.analysis.depend import classify_source
from repro.compiler.ast_nodes import Assign, BinOp, LoopSpec, Program, Ref
from repro.compiler.parser import parse
from repro.compiler.plan_cache import PlanCache
from repro.formats import COOMatrix, CRSMatrix, DenseVector
from repro.kernels.spmv import SPMV_SRC
from repro.service import CompileSolveService, ServiceConfig

#: statement [1] reads Y[i] while statement [0] reduces into it over j:
#: BER013, yet every pass after the gate compiles it
REJECTED = "for i in 0:n { for j in 0:n { Y[i] += A[i,j]*X[j]  Z[i] += A[i,j]*Y[i] } }"
ROWPROD = "for i in 0:n { for j in 0:m { Y[i] = Y[i] * A[i,j] } }"
GAUSS_SEIDEL = "for i in 0:n { for j in 0:n { X[i] = X[i] - A[i,j] * X[j] } }"


def _fmts(n=6, *names):
    A = CRSMatrix.from_coo(COOMatrix.random(n, n, 0.5, rng=4))
    return {"A": A, **{v: DenseVector(np.ones(n)) for v in names}}


def _service():
    cache = PlanCache("compiler")
    return CompileSolveService(ServiceConfig(workers=2, plan_cache=cache)), cache


def test_gate_rejected_nest_compiled_under_verify_off_is_never_served_as_a_hit():
    fmts = _fmts(6, "X", "Y", "Z")
    svc, cache = _service()
    with svc:
        first = svc.compile(REJECTED, fmts, tenant="a")
        assert first.status == "error" and first.error.startswith("VerificationError")
        assert "BER013" in first.error
        unchecked = svc.compile(REJECTED, fmts, tenant="a", verify="off")
        assert unchecked.ok and unchecked.value["outcome"] == "compiled"
        for tenant in ("a", "b"):
            later = svc.compile(REJECTED, fmts, tenant=tenant)
            assert later.status == "error", later.value
            assert later.error.startswith("VerificationError")
        # the unchecked kernel stays reachable for requests that opt out again
        again = svc.compile(REJECTED, fmts, verify="off")
        assert again.ok and again.value["outcome"] == "hit"
        assert again.value["kernel"] is unchecked.value["kernel"]
    assert cache.stats()["misses"] == 1


def test_non_format_binding_is_an_error_response():
    fmts = _fmts(5, "X", "Y")
    svc, cache = _service()
    with svc:
        bad = svc.compile(SPMV_SRC, {**fmts, "A": np.eye(5)})
        assert bad.status == "error" and bad.error.startswith("CompileError")
        assert "'A'" in bad.error and "ndarray" in bad.error
        assert svc.compile(SPMV_SRC, fmts).ok  # the worker survived
    assert cache.stats()["misses"] == 1


def test_unknown_backend_is_an_error_response():
    fmts = _fmts(5, "X", "Y")
    svc, cache = _service()
    with svc:
        for backend in ("auto", "nope"):
            bad = svc.compile(SPMV_SRC, fmts, backend=backend)
            assert bad.status == "error" and bad.error.startswith("CompileError")
            assert "available: interpreted, vectorized" in bad.error
        assert svc.compile(SPMV_SRC, fmts).ok  # the worker survived
    assert cache.stats()["misses"] == 1


def test_sequential_nest_is_refused_on_every_service_request():
    fmts = _fmts(6, "X")
    svc, cache = _service()
    with svc:
        for _ in range(3):
            resp = svc.compile(GAUSS_SEIDEL, fmts)
            assert resp.status == "error"
            assert resp.error.startswith("VerificationError")
            assert "BER012" in resp.error and "BER062" in resp.error
    assert cache.stats() == {"hits": 0, "misses": 0, "coalesced": 0, "evictions": 0, "size": 0}


def test_tampered_certificate_fails_the_next_service_hit():
    # the service-side twin of test_cache_hit_revalidates_certificate
    # (tests/analysis/test_depend.py)
    fmts = _fmts(4, "Y")
    svc, _cache = _service()
    with svc:
        k1 = svc.compile(ROWPROD, fmts).value["kernel"]
        warm = svc.compile(ROWPROD, fmts)
        assert warm.value["outcome"] == "hit" and warm.value["kernel"] is k1
        good = k1.certificate
        k1.certificate = classify_source(SPMV_SRC).certificate
        bad = svc.compile(ROWPROD, fmts)
        assert bad.status == "error" and bad.error.startswith("VerificationError")
        assert "BER064" in bad.error
        k1.certificate = good
        assert svc.compile(ROWPROD, fmts).value["kernel"] is k1


def test_text_and_unnormalized_program_share_one_cache_entry():
    fmts = _fmts(4, "Y")
    raw = Program(
        loops=(LoopSpec("i", "0", "n"), LoopSpec("j", "0", "m")),
        body=(
            Assign(
                Ref("Y", ("i",)),
                BinOp("*", Ref("Y", ("i",)), Ref("A", ("i", "j"))),
                reduce=False,
            ),
        ),
    )
    assert raw != parse(ROWPROD)  # the parser already rewrote it to a '*'-reduction
    svc, cache = _service()
    with svc:
        from_text = svc.compile(ROWPROD, fmts)
        from_ast = svc.compile(raw, fmts)
    assert from_text.value["outcome"] == "compiled"
    assert from_ast.value["outcome"] == "hit"
    assert from_ast.value["kernel"] is from_text.value["kernel"]
    assert from_ast.value["key_fingerprint"] == from_text.value["key_fingerprint"]
    assert cache.stats()["misses"] == 1
