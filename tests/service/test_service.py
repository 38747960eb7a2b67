"""End-to-end tests of the compile-and-solve service.

Correctness first (a service response must be bitwise the single-threaded
answer), then the admission-control behaviors the tentpole promises:
bounded queue with shed, per-tenant quotas, dequeue-time timeouts, and
single-flight compilation across concurrent tenants — plus the
observability contract (spans and metrics per request).
"""

from __future__ import annotations

import asyncio
import threading
import time

import numpy as np
import pytest

from repro.compiler import clear_kernel_cache
from repro.compiler.plan_cache import PlanCache
from repro.errors import ServiceError
from repro.formats import COOMatrix, CRSMatrix, DenseVector
from repro.kernels.spmv import SPMV_SRC
from repro.observability import metrics
from repro.observability.trace import disable_tracing, enable_tracing
from repro.service import CompileSolveService, ServiceConfig, TenantQuota
from repro.solvers.cg import cg
from repro.solvers.jacobi import jacobi


def _poisson(n=48):
    dense = np.zeros((n, n))
    np.fill_diagonal(dense, 4.0)
    for i in range(n - 1):
        dense[i, i + 1] = dense[i + 1, i] = -1.0
    return CRSMatrix.from_coo(COOMatrix.from_dense(dense))


def _spmv_fmts(A):
    n = A.shape[0]
    return {"A": A, "X": DenseVector(np.ones(n)), "Y": DenseVector.zeros(n)}


@pytest.fixture(autouse=True)
def fresh_kernel_cache():
    clear_kernel_cache()
    yield
    clear_kernel_cache()


# ----------------------------------------------------------------------
# correctness: service answers == single-threaded oracle, bitwise
# ----------------------------------------------------------------------
def test_concurrent_solves_match_single_threaded_oracle():
    A = _poisson()
    rng = np.random.default_rng(3)
    bs = [rng.standard_normal(A.shape[0]) for _ in range(12)]
    oracle_cg = [cg(A, b, maxiter=20, tol=0.0) for b in bs]
    oracle_jac = [jacobi(A, b, maxiter=40, tol=0.0) for b in bs]

    async def storm(svc):
        cgs = [
            svc.request_async("solve_cg", {"A": A, "b": b, "maxiter": 20, "tol": 0.0},
                              tenant=f"t{i % 3}")
            for i, b in enumerate(bs)
        ]
        jacs = [
            svc.request_async("solve_jacobi", {"A": A, "b": b, "maxiter": 40, "tol": 0.0},
                              tenant=f"t{i % 3}")
            for i, b in enumerate(bs)
        ]
        return await asyncio.gather(*cgs), await asyncio.gather(*jacs)

    with CompileSolveService(ServiceConfig(workers=4)) as svc:
        got_cg, got_jac = asyncio.run(storm(svc))
    for resp, want in zip(got_cg, oracle_cg):
        assert resp.ok, resp
        assert np.array_equal(resp.value["x"], want.x)
        assert resp.value["iterations"] == want.iterations
    for resp, (x, its, res) in zip(got_jac, oracle_jac):
        assert resp.ok, resp
        assert np.array_equal(resp.value["x"], x)
        assert resp.value["iterations"] == its


def test_compiled_kernel_through_service_runs_correctly():
    A = _poisson(16)
    fmts = _spmv_fmts(A)
    with CompileSolveService() as svc:
        resp = svc.compile(SPMV_SRC, fmts)
        assert resp.ok
        k = resp.value["kernel"]
    k(**fmts)
    want = A.to_coo().to_dense() @ np.ones(16)
    assert np.allclose(fmts["Y"].vals, want)


# ----------------------------------------------------------------------
# single-flight across the service
# ----------------------------------------------------------------------
def test_identical_structural_keys_compile_exactly_once():
    A = _poisson(16)
    fmts = _spmv_fmts(A)
    cache = PlanCache("compiler")
    config = ServiceConfig(workers=8, plan_cache=cache)

    async def storm(svc):
        return await asyncio.gather(*[
            svc.request_async("compile", {"source": SPMV_SRC, "formats": fmts},
                              tenant=f"t{i % 4}")
            for i in range(32)
        ])

    with CompileSolveService(config) as svc:
        responses = asyncio.run(storm(svc))
    kernels = {id(r.value["kernel"]) for r in responses if r.ok}
    assert all(r.ok for r in responses)
    assert len(kernels) == 1, "every tenant must share the one compiled kernel"
    stats = cache.stats()
    assert stats["misses"] == 1  # exactly one compilation, ever
    assert stats["hits"] + stats["coalesced"] == 31


# ----------------------------------------------------------------------
# admission: quotas, shed, timeout
# ----------------------------------------------------------------------
def _slow_handler(payload, ctx):
    time.sleep(payload.get("sleep", 0.05))
    return {"slept": True}


def _gated_handler(payload, ctx):
    payload["running"].set()
    payload["gate"].wait(5.0)
    return {"ran": True}


def _gate():
    return {"gate": threading.Event(), "running": threading.Event()}


def test_per_tenant_quota_rejects_excess_inflight():
    config = ServiceConfig(
        workers=1,
        quotas={"greedy": TenantQuota(max_inflight=2)},
    )
    svc = CompileSolveService(config).start()
    svc.register("gated", _gated_handler)
    svc.register("sleep", _slow_handler)
    try:
        gates = [_gate() for _ in range(2)]
        held = [svc.submit("gated", g, tenant="greedy") for g in gates]
        gates[0]["running"].wait(5.0)  # one running, one queued: inflight == 2
        rejected = [svc.submit("gated", _gate(), tenant="greedy") for _ in range(4)]
        # an unconstrained tenant is not affected by greedy's quota
        polite = svc.submit("sleep", {"sleep": 0.0}, tenant="polite")
        # rejections resolved immediately, while greedy's work is still held
        assert [f.result().status for f in rejected] == ["rejected"] * 4
        for g in gates:
            g["gate"].set()
        assert all(f.result().status == "ok" for f in held)
        assert polite.result().status == "ok"
    finally:
        svc.stop()
    assert svc.stats()["responses"]["rejected"] == 4


def test_full_queue_sheds_instead_of_queueing_to_death():
    config = ServiceConfig(workers=1, max_queue=2)
    svc = CompileSolveService(config).start()
    svc.register("gated", _gated_handler)
    svc.register("sleep", _slow_handler)
    try:
        blocker_gate = _gate()
        blocker = svc.submit("gated", blocker_gate)
        blocker_gate["running"].wait(5.0)  # worker busy, queue empty
        queued = [svc.submit("sleep", {"sleep": 0.0}) for _ in range(2)]
        shed = [svc.submit("sleep", {"sleep": 0.0}) for _ in range(6)]
        # shed responses resolved immediately, never occupying a worker
        assert [f.result().status for f in shed] == ["shed"] * 6
        assert all(f.result().handle_ms == 0.0 for f in shed)
        blocker_gate["gate"].set()
        assert blocker.result().status == "ok"
        assert all(f.result().status == "ok" for f in queued)
    finally:
        svc.stop()


def test_stale_requests_time_out_at_dequeue():
    config = ServiceConfig(workers=1, queue_timeout=0.05)
    svc = CompileSolveService(config).start()
    svc.register("gated", _gated_handler)
    svc.register("sleep", _slow_handler)
    try:
        blocker_gate = _gate()
        # the blocker itself gets a generous deadline; only the requests
        # queued behind it live under the tight service-wide timeout
        blocker = svc.submit("gated", blocker_gate, timeout=10.0)
        blocker_gate["running"].wait(5.0)
        stale = [svc.submit("sleep", {"sleep": 0.0}) for _ in range(3)]
        time.sleep(0.1)  # let every queued deadline lapse
        blocker_gate["gate"].set()
        assert blocker.result().status == "ok"
        assert [f.result().status for f in stale] == ["timed_out"] * 3
        # timed-out work was dropped, not run: no handle time was spent
        assert all(f.result().handle_ms == 0.0 for f in stale)
    finally:
        svc.stop()


def test_per_request_timeout_overrides_config():
    config = ServiceConfig(workers=1, queue_timeout=None)
    svc = CompileSolveService(config).start()
    svc.register("gated", _gated_handler)
    svc.register("sleep", _slow_handler)
    try:
        blocker_gate = _gate()
        blocker = svc.submit("gated", blocker_gate)
        blocker_gate["running"].wait(5.0)
        stale = svc.submit("sleep", {"sleep": 0.0}, timeout=0.01)
        patient = svc.submit("sleep", {"sleep": 0.0})
        time.sleep(0.05)
        blocker_gate["gate"].set()
        assert blocker.result().status == "ok"
        assert stale.result().status == "timed_out"
        assert patient.result().status == "ok"
    finally:
        svc.stop()


# ----------------------------------------------------------------------
# lifecycle + misuse
# ----------------------------------------------------------------------
def test_unknown_kind_and_stopped_service_raise():
    svc = CompileSolveService(ServiceConfig(workers=1))
    with pytest.raises(ServiceError, match="not running"):
        svc.submit("compile", {})
    svc.start()
    with pytest.raises(ServiceError, match="unknown request kind"):
        svc.submit("nope", {})
    svc.stop()
    with pytest.raises(ServiceError, match="not running"):
        svc.submit("compile", {})
    svc.stop()  # idempotent


def test_stop_drains_the_backlog():
    config = ServiceConfig(workers=2)
    svc = CompileSolveService(config).start()
    svc.register("sleep", _slow_handler)
    futs = [svc.submit("sleep", {"sleep": 0.01}) for _ in range(10)]
    svc.stop()
    assert all(f.result().status == "ok" for f in futs)


def test_handler_failure_is_a_response_not_a_dead_worker():
    svc = CompileSolveService(ServiceConfig(workers=1)).start()
    try:
        bad = svc.request("solve_cg", {"A": "not a matrix", "b": np.ones(3)})
        assert bad.status == "error"
        assert bad.error  # the failure is named, not swallowed
        # the worker survived: the next request succeeds
        A = _poisson(16)
        good = svc.solve_cg(A, np.ones(16), maxiter=5, tol=0.0)
        assert good.ok
    finally:
        svc.stop()


def test_missing_payload_fields_are_service_errors():
    with CompileSolveService(ServiceConfig(workers=1)) as svc:
        r = svc.request("compile", {"formats": {}})
        assert r.status == "error"
        assert "source" in r.error


@pytest.mark.parametrize("kind, stale", [
    ("compile", {"verify": "off"}),
    ("solve_cg", {"backend": "interpreted", "maxiters": 5}),
    ("solve_jacobi", {"backend": "interpreted"}),
])
def test_a_payload_key_the_handler_does_not_read_is_an_error(kind, stale):
    """A misspelt or retired option is named in an error response, never
    dropped (``maxiters`` would otherwise run the default 10·n iterations)."""
    A = _poisson(16)
    payload = {"A": A, "b": np.ones(16)}
    if kind == "compile":
        payload = {"source": SPMV_SRC, "formats": _spmv_fmts(A)}
    with CompileSolveService(ServiceConfig(workers=1)) as svc:
        r = svc.request(kind, {**payload, **stale})
        assert r.status == "error" and r.error.startswith("ServiceError")
        assert all(repr(k) in r.error for k in stale)
        assert svc.request(kind, payload).ok  # the same request without them runs


# ----------------------------------------------------------------------
# observability: every request is attributable
# ----------------------------------------------------------------------
def test_requests_emit_spans_and_metrics():
    A = _poisson(16)
    fmts = _spmv_fmts(A)
    tracer = enable_tracing()
    try:
        with metrics.scoped() as registry:
            with CompileSolveService(ServiceConfig(workers=2)) as svc:
                ok = svc.compile(SPMV_SRC, fmts, tenant="alice")
                assert ok.ok
            snap = registry.snapshot()
    finally:
        disable_tracing()
    assert snap["service.requests{kind=compile,status=ok,tenant=alice}"] == 1
    assert snap["service.admitted{tenant=alice}"] == 1
    assert snap["service.total_ms{kind=compile}"]["count"] == 1
    spans = [r for r in tracer.records if r.name == "service.request"]
    assert len(spans) == 1
    assert spans[0].args["tenant"] == "alice"
    assert spans[0].args["kind"] == "compile"
    assert spans[0].args["status"] == "ok"
    assert spans[0].args["cache_outcome"] in ("compiled", "hit", "coalesced")


def test_shed_and_quota_metrics_are_labeled_by_reason():
    with metrics.scoped() as registry:
        # roomy queue so the *quota* is the bound that trips, not queue_full
        config = ServiceConfig(
            workers=1, max_queue=64, quotas={"g": TenantQuota(max_inflight=1)}
        )
        svc = CompileSolveService(config).start()
        svc.register("sleep", _slow_handler)
        try:
            futs = [svc.submit("sleep", {"sleep": 0.05}, tenant="g") for _ in range(4)]
            [f.result() for f in futs]
        finally:
            svc.stop()
        snap = registry.snapshot()
    assert snap["service.shed{reason=quota,tenant=g}"] == 3
    assert snap["service.requests{kind=sleep,status=rejected,tenant=g}"] == 3


def test_latency_split_is_recorded():
    with CompileSolveService(ServiceConfig(workers=1)) as svc:
        svc.register("sleep", _slow_handler)
        r = svc.request("sleep", {"sleep": 0.02})
    assert r.ok
    assert r.handle_ms >= 20.0 * 0.9
    assert r.total_ms >= r.handle_ms
    assert r.queue_ms >= 0.0
