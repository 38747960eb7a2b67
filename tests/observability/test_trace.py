"""Span tracer: nesting, exception safety, Chrome round-trip, overhead."""

import json
import time

import numpy as np
import pytest

from repro import CRSMatrix, DenseVector, compile_kernel, table1_matrix
from repro.errors import CommFailureError
from repro.kernels.spmv import SPMV_SRC
from repro.observability import trace
from repro.observability.trace import (
    Tracer,
    disable_tracing,
    enable_tracing,
    get_tracer,
    span,
    tracing_enabled,
)
from repro.runtime import DeliveryConfig, FaultPlan, Machine


@pytest.fixture(autouse=True)
def _clean_tracer():
    disable_tracing()
    yield
    disable_tracing()


def test_spans_nest_and_carry_attributes():
    tracer = enable_tracing()
    with span("outer", a=1):
        with span("inner") as s:
            s.set(found=3)
    recs = tracer.records
    # inner closes (and records) before outer
    assert [r.name for r in recs] == ["inner", "outer"]
    inner, outer = recs
    assert outer.depth == 0 and inner.depth == 1
    assert inner.tid == outer.tid
    assert outer.args == {"a": 1}
    assert inner.args == {"found": 3}
    # containment: inner interval lies inside outer's
    assert outer.ts <= inner.ts
    assert inner.ts + inner.dur <= outer.ts + outer.dur + 1e-6
    tree = tracer.render_tree()
    assert "  outer" in tree and "    inner" in tree  # indented one deeper


def test_span_records_and_propagates_exception():
    tracer = enable_tracing()
    with pytest.raises(ValueError, match="boom"):
        with span("outer"):
            with span("failing"):
                raise ValueError("boom")
    recs = {r.name: r for r in tracer.records}
    assert set(recs) == {"outer", "failing"}  # both closed despite the raise
    assert recs["failing"].error == "ValueError: boom"
    assert recs["outer"].error == "ValueError: boom"
    # depth bookkeeping survived the unwind: a new span is top-level again
    with span("after"):
        pass
    assert [r for r in tracer.records if r.name == "after"][0].depth == 0


def test_disabled_span_is_shared_null_object():
    assert not tracing_enabled()
    assert get_tracer() is None
    s1 = span("anything", big=list(range(100)))
    s2 = span("else")
    assert s1 is s2  # one preallocated null span, no per-call allocation
    with s1 as s:
        s.set(x=1)  # all no-ops


def test_chrome_roundtrip(tmp_path):
    tracer = enable_tracing(process_name="unit")
    with span("compiler.parse", chars=55):
        pass
    tracer.instant("comm_matrix", tid="machine", matrix=[[0, 1], [2, 0]])
    doc = tracer.to_chrome()
    assert set(doc) == {"traceEvents", "displayTimeUnit"}
    phs = {e["name"]: e["ph"] for e in doc["traceEvents"]}
    assert phs == {"compiler.parse": "X", "comm_matrix": "i"}

    path = tmp_path / "t.json"
    tracer.save(path)
    loaded = Tracer.load(path)
    orig, back = tracer.records, loaded.records
    assert [(r.name, r.tid, r.args) for r in back] == [
        (r.name, r.tid, r.args) for r in orig
    ]
    assert back[0].dur == pytest.approx(orig[0].dur)
    assert back[1].dur is None  # instant stays instant
    # the saved file is plain Chrome-trace JSON
    raw = json.loads(path.read_text())
    assert raw["traceEvents"][0]["pid"] == "unit"


def test_numpy_attrs_serialize():
    tracer = enable_tracing()
    with span("k", nnz=np.int64(7), flops=np.float64(3.5), m=np.eye(2)):
        pass
    ev = tracer.to_chrome()["traceEvents"][0]
    assert ev["args"] == {"nnz": 7, "flops": 3.5, "m": [[1.0, 0.0], [0.0, 1.0]]}
    json.dumps(ev)  # round-trippable


def test_disabled_tracer_overhead_under_5_percent():
    """The disabled fast path (flag checks + null span) must cost well
    under 5% of one Table-1-sized SpMV execution."""
    from repro.observability import metrics as _metrics

    coo = table1_matrix("small")
    A = CRSMatrix.from_coo(coo)
    X = DenseVector(np.ones(A.shape[1]))
    Y = DenseVector.zeros(A.shape[0])
    k = compile_kernel(SPMV_SRC, {"A": A, "X": X, "Y": Y})

    def kernel_once():
        t0 = time.perf_counter()
        k(A=A, X=X, Y=Y)
        return time.perf_counter() - t0

    kernel_once()  # warm caches
    t_kernel = min(kernel_once() for _ in range(20))

    n = 20000
    t0 = time.perf_counter()
    for _ in range(n):
        # everything a disabled instrumentation point executes
        _metrics.metrics_enabled()
        trace.tracing_enabled()
        with span("x"):
            pass
    t_checks = (time.perf_counter() - t0) / n

    assert t_checks < 0.05 * t_kernel, (
        f"disabled-path cost {t_checks * 1e9:.0f}ns vs kernel {t_kernel * 1e6:.1f}us"
    )


def test_abort_mid_run_still_yields_parseable_trace():
    """A CommFailureError mid-run must not leak open spans: the Chrome
    trace stays parseable and still carries the comm matrix and a
    machine.abort marker."""
    plan = FaultPlan(seed=8, drop=1.0)
    m = Machine(2, faults=plan, delivery=DeliveryConfig(max_retries=2))

    def prog(p):
        yield ("phase", "executor")
        yield ("alltoallv", {1 - p: np.ones(4)})
        return p

    tracer = enable_tracing()
    try:
        with pytest.raises(CommFailureError):
            m.run(prog)
    finally:
        disable_tracing()
    doc = json.loads(json.dumps(tracer.to_chrome()))  # parseable JSON
    reloaded = Tracer.from_chrome(doc)
    names = [r.name for r in reloaded.records]
    assert "machine.abort" in names
    assert "comm_matrix" in names
    abort = next(r for r in reloaded.records if r.name == "machine.abort")
    assert "CommFailureError" in abort.error
    # rank windows were flushed despite the unwind: complete spans exist
    assert any(r.dur is not None and r.name.startswith("rank") for r in reloaded.records)
