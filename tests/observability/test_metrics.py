"""Metrics registry and the SPMD communication reports."""

import numpy as np
import pytest

from repro.observability import metrics
from repro.observability.metrics import (
    REGISTRY,
    Counter,
    Histogram,
    disable_metrics,
    enable_metrics,
    metrics_enabled,
    phase_breakdown,
    record,
    render_comm_matrix,
    render_phase_breakdown,
)
from repro.runtime import CommModel, Machine


@pytest.fixture(autouse=True)
def _clean_metrics():
    disable_metrics()
    REGISTRY.reset()
    yield
    disable_metrics()
    REGISTRY.reset()


def test_counter_gauge_histogram():
    c = REGISTRY.counter("kernel.flops", format="crs")
    c.inc(100)
    c.inc(50)
    assert c.value == 150
    with pytest.raises(ValueError):
        c.inc(-1)

    g = REGISTRY.gauge("cache.size")
    g.set(3)
    g.dec()
    assert g.value == 2

    h = REGISTRY.histogram("msg.bytes")
    for v in (10, 30, 20):
        h.observe(v)
    assert (h.count, h.total, h.min, h.max) == (3, 60, 10, 30)
    assert h.mean == 20

    # same name+labels resolves to the same instrument; labels distinguish
    assert REGISTRY.counter("kernel.flops", format="crs") is c
    assert REGISTRY.counter("kernel.flops", format="ccs") is not c

    snap = REGISTRY.snapshot()
    assert snap["kernel.flops{format=crs}"] == 150
    assert snap["msg.bytes"]["mean"] == 20
    assert "kernel.flops{format=crs}  150" in REGISTRY.render()


def test_record_is_noop_when_disabled():
    record("some.count", 5)
    assert REGISTRY.snapshot() == {}
    assert not metrics_enabled()
    enable_metrics()
    record("some.count", 5)
    assert REGISTRY.snapshot()["some.count"] == 5


def test_machine_records_collective_metrics():
    enable_metrics()
    m = Machine(2)

    def prog(p):
        yield ("alltoallv", {1 - p: np.ones(4)})
        _ = yield ("allreduce", 1.0)
        return None

    _, stats = m.run(prog)
    snap = REGISTRY.snapshot()
    assert snap["machine.collectives{kind=alltoallv}"] == 1
    assert snap["machine.collectives{kind=allreduce}"] == 1
    assert snap["machine.bytes{kind=alltoallv}"] == stats.phases[0].nbytes.sum()


def test_comm_matrix_total_equals_total_nbytes():
    m = Machine(4)

    def prog(p):
        yield ("phase", "inspector")
        _ = yield ("alltoallv", {(p + 1) % 4: np.ones(p + 1)})
        yield ("phase", "executor")
        _ = yield ("allreduce", float(p))
        _ = yield ("allgather", p)
        return None

    _, stats = m.run(prog)
    mat = stats.comm_matrix()
    assert mat.shape == (4, 4)
    assert np.all(np.diag(mat) == 0)  # self-sends are free
    assert mat.sum() == stats.total_nbytes()
    # per-phase matrices partition the whole
    insp = stats.phase("inspector").comm_matrix()
    exe = stats.phase("executor").comm_matrix()
    assert (insp + exe == mat).all()
    assert insp.sum() == stats.phase("inspector").total_nbytes()

    text = render_comm_matrix(mat)
    assert f"total bytes: {int(mat.sum())}" in text
    assert "→0" in text


def test_phase_breakdown_matches_windows():
    m = Machine(2)

    def prog(p):
        yield ("phase", "inspector")
        _ = yield ("alltoallv", {1 - p: np.ones(8)})
        yield ("phase", "executor")
        _ = yield ("allreduce", 1.0)
        _ = yield ("allreduce", 1.0)
        return None

    _, stats = m.run(prog)
    model = CommModel()
    rows = phase_breakdown(stats, model)
    assert list(rows) == ["inspector", "executor"]
    assert rows["inspector"]["nbytes"] == stats.phase("inspector").total_nbytes()
    assert rows["executor"]["supersteps"] >= 2
    assert rows["inspector"]["parallel_seconds"] == pytest.approx(
        stats.phase("inspector").parallel_time(model)
    )
    text = render_phase_breakdown(stats, model)
    assert "inspector" in text and "executor" in text
    assert "inspector / executor-superstep ratio" in text


def test_instrument_dataclasses_standalone():
    c = Counter("x")
    c.inc()
    assert c.value == 1
    h = Histogram("y")
    assert h.mean == 0.0  # no observations yet


# ----------------------------------------------------------------------
# percentiles
# ----------------------------------------------------------------------
def test_histogram_percentiles_exact_on_small_samples():
    h = Histogram("lat")
    for v in range(1, 101):  # 1..100, uniform
        h.observe(float(v))
    assert h.p50 == pytest.approx(50.5)
    assert h.p95 == pytest.approx(95.05)
    assert h.p99 == pytest.approx(99.01)
    assert h.percentile(0) == 1.0
    assert h.percentile(100) == 100.0


def test_histogram_percentiles_empty_and_single():
    h = Histogram("lat")
    assert h.p50 is None and h.p95 is None and h.p99 is None
    h.observe(7.0)
    assert h.p50 == 7.0 and h.p99 == 7.0


def test_histogram_sampling_stays_bounded_and_accurate():
    from repro.observability.metrics import _SAMPLE_CAP

    h = Histogram("big")
    n = 3 * _SAMPLE_CAP  # forces at least one decimation
    for v in range(n):
        h.observe(float(v))
    assert len(h._samples) < _SAMPLE_CAP
    assert h.count == n
    # systematic sampling of a uniform stream: quantiles stay close
    assert h.p50 == pytest.approx(0.50 * n, rel=0.02)
    assert h.p95 == pytest.approx(0.95 * n, rel=0.02)
    assert h.p99 == pytest.approx(0.99 * n, rel=0.02)


def test_percentiles_in_snapshot_and_render():
    h = REGISTRY.histogram("comm.overlap_ratio")
    for v in (0.1, 0.5, 0.9):
        h.observe(v)
    snap = REGISTRY.snapshot()["comm.overlap_ratio"]
    assert snap["p50"] == pytest.approx(0.5)
    assert snap["p95"] == pytest.approx(0.86, rel=0.05)
    assert "p50=" in REGISTRY.render() and "p99=" in REGISTRY.render()


# ----------------------------------------------------------------------
# scoped()
# ----------------------------------------------------------------------
def test_scoped_isolates_and_restores():
    enable_metrics(fresh=True)
    record("outer.count", 1)
    with metrics.scoped() as reg:
        record("inner.count", 2)
        assert reg.snapshot() == {"inner.count": 2}
        # the outer registry is invisible inside the scope
        assert "outer.count" not in metrics.REGISTRY.snapshot()
    # outer state restored: counter intact, inner one gone
    assert metrics.REGISTRY.snapshot()["outer.count"] == 1
    assert "inner.count" not in metrics.REGISTRY.snapshot()
    assert metrics_enabled()


def test_scoped_restores_disabled_state():
    assert not metrics_enabled()
    with metrics.scoped() as reg:
        assert metrics_enabled()  # enabled inside by default
        record("x", 1)
        assert reg.snapshot()["x"] == 1
    assert not metrics_enabled()  # back off afterwards
    record("y", 1)  # no-op again
    assert "y" not in metrics.REGISTRY.snapshot()


def test_scoped_restores_on_error():
    with pytest.raises(RuntimeError, match="boom"):
        with metrics.scoped():
            record("z", 1)
            raise RuntimeError("boom")
    assert not metrics_enabled()
    assert "z" not in metrics.REGISTRY.snapshot()


def test_scoped_can_stay_disabled():
    with metrics.scoped(enabled=False) as reg:
        record("w", 1)
        assert reg.snapshot() == {}
