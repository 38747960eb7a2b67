"""Metrics registry: counters, gauges, histograms — plus SPMD reports.

The registry is a process-global, label-aware instrument store in the
Prometheus style::

    from repro.observability import metrics

    metrics.enable_metrics()
    metrics.REGISTRY.counter("machine.bytes", kind="alltoallv").inc(4096)
    print(metrics.REGISTRY.render())

Instrumented library code records through the module helpers
(:func:`record`, :func:`observe`) which are no-ops unless
:func:`enable_metrics` was called — hot loops pay one flag check.

The SPMD-specific reports live here too:

* :func:`render_comm_matrix` — the rank×rank byte matrix of a run
  (``RunStats.comm_matrix()``) as an aligned table,
* :func:`phase_breakdown` — the inspector-vs-executor split of a run,
  mirroring the columns of the paper's Table 3 (per-phase estimated
  parallel time, messages, bytes, slowest-rank compute).
"""

from __future__ import annotations

import contextlib
import threading
from dataclasses import dataclass, field

import numpy as np

__all__ = [
    "Counter",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "REGISTRY",
    "enable_metrics",
    "disable_metrics",
    "metrics_enabled",
    "scoped",
    "record",
    "observe",
    "render_comm_matrix",
    "phase_breakdown",
    "render_phase_breakdown",
]


@dataclass
class Counter:
    """Monotonically increasing count (calls, flops, bytes...)."""

    name: str
    labels: tuple[tuple[str, str], ...] = ()
    value: float = 0.0

    def inc(self, amount: float = 1.0) -> None:
        if amount < 0:
            raise ValueError("counters only go up; use a Gauge")
        self.value += amount


@dataclass
class Gauge:
    """A value that can move both ways (ghost count, cache size...)."""

    name: str
    labels: tuple[tuple[str, str], ...] = ()
    value: float = 0.0

    def set(self, value: float) -> None:
        self.value = float(value)

    def inc(self, amount: float = 1.0) -> None:
        self.value += amount

    def dec(self, amount: float = 1.0) -> None:
        self.value -= amount


#: histogram sample buffer bound; beyond it the buffer decimates 2:1 and
#: doubles its keep-stride (deterministic systematic sampling, no RNG)
_SAMPLE_CAP = 8192


@dataclass
class Histogram:
    """Streaming summary: count / total / min / max plus percentiles.

    Percentiles come from a bounded, deterministic sample: every
    ``_stride``-th observation is kept, and when the buffer hits
    ``_SAMPLE_CAP`` it is decimated 2:1 and the stride doubles — so
    memory is O(1), replayed runs summarize identically, and quantile
    error stays small for the smooth distributions we observe
    (``comm.overlap_ratio``, schedule sizes, span durations)."""

    name: str
    labels: tuple[tuple[str, str], ...] = ()
    count: int = 0
    total: float = 0.0
    min: float = field(default=float("inf"))
    max: float = field(default=float("-inf"))
    _samples: list[float] = field(default_factory=list, repr=False)
    _stride: int = field(default=1, repr=False)

    def observe(self, value: float) -> None:
        v = float(value)
        if self.count % self._stride == 0:
            self._samples.append(v)
            if len(self._samples) >= _SAMPLE_CAP:
                self._samples = self._samples[::2]
                self._stride *= 2
        self.count += 1
        self.total += v
        self.min = min(self.min, v)
        self.max = max(self.max, v)

    @property
    def mean(self) -> float:
        return self.total / self.count if self.count else 0.0

    def percentile(self, q: float) -> float | None:
        """The q-th percentile (0..100) of the sampled observations, or
        None before the first observation."""
        if not self._samples:
            return None
        return float(np.percentile(self._samples, q))

    @property
    def p50(self) -> float | None:
        return self.percentile(50.0)

    @property
    def p95(self) -> float | None:
        return self.percentile(95.0)

    @property
    def p99(self) -> float | None:
        return self.percentile(99.0)


class MetricsRegistry:
    """Thread-safe store of labeled instruments."""

    def __init__(self):
        self._lock = threading.Lock()
        self._instruments: dict[tuple, object] = {}

    def _get(self, cls, name: str, labels: dict):
        key = (cls.__name__, name, tuple(sorted(labels.items())))
        with self._lock:
            inst = self._instruments.get(key)
            if inst is None:
                inst = cls(name, tuple(sorted(labels.items())))
                self._instruments[key] = inst
            return inst

    def counter(self, name: str, **labels) -> Counter:
        return self._get(Counter, name, labels)

    def gauge(self, name: str, **labels) -> Gauge:
        return self._get(Gauge, name, labels)

    def histogram(self, name: str, **labels) -> Histogram:
        return self._get(Histogram, name, labels)

    def reset(self) -> None:
        with self._lock:
            self._instruments.clear()

    def snapshot(self) -> dict[str, object]:
        """``{"name{k=v,...}": value-or-summary}`` for every instrument."""
        out: dict[str, object] = {}
        with self._lock:
            for (_kind, name, labels), inst in sorted(
                self._instruments.items(), key=lambda kv: kv[0][1:]
            ):
                label_txt = ",".join(f"{k}={v}" for k, v in labels)
                key = f"{name}{{{label_txt}}}" if label_txt else name
                if isinstance(inst, Histogram):
                    out[key] = {
                        "count": inst.count,
                        "total": inst.total,
                        "mean": inst.mean,
                        "min": inst.min if inst.count else None,
                        "max": inst.max if inst.count else None,
                        "p50": inst.p50,
                        "p95": inst.p95,
                        "p99": inst.p99,
                    }
                else:
                    out[key] = inst.value
        return out

    def render(self) -> str:
        lines = []
        for key, val in self.snapshot().items():
            if isinstance(val, dict):
                quant = (
                    f" p50={val['p50']:.6g} p95={val['p95']:.6g} "
                    f"p99={val['p99']:.6g}"
                    if val.get("p50") is not None
                    else ""
                )
                lines.append(
                    f"{key}  count={val['count']} total={val['total']:.6g} "
                    f"mean={val['mean']:.6g}" + quant
                )
            else:
                lines.append(f"{key}  {val:.6g}" if isinstance(val, float) else f"{key}  {val}")
        return "\n".join(lines)


#: default registry used by the instrumented library code
REGISTRY = MetricsRegistry()

_enabled = False


def enable_metrics(fresh: bool = True) -> MetricsRegistry:
    """Turn on library-side metric recording; optionally reset first."""
    global _enabled
    if fresh:
        REGISTRY.reset()
    _enabled = True
    return REGISTRY


def disable_metrics() -> None:
    global _enabled
    _enabled = False


def metrics_enabled() -> bool:
    return _enabled


@contextlib.contextmanager
def scoped(enabled: bool = True):
    """Hermetic metrics scope: swap in a fresh registry for the duration
    of the block and restore the previous registry *and* enabled flag on
    exit, success or error.

    Library code records through the module globals (:func:`record` /
    :func:`observe` / ``metrics.REGISTRY``), so everything recorded
    inside the block lands in the scoped registry — counters from other
    tests (e.g. an earlier ``compiler.cache_hits``) can neither leak in
    nor be clobbered::

        with metrics.scoped() as reg:
            run_workload()
            assert reg.snapshot()["compiler.cache_hits"] == 2

    Note: a ``from ... import REGISTRY`` binding taken *before* the block
    still points at the outer registry; read through ``metrics.REGISTRY``
    or the yielded handle inside the block.
    """
    global REGISTRY, _enabled
    prev_registry, prev_enabled = REGISTRY, _enabled
    fresh = MetricsRegistry()
    REGISTRY = fresh
    _enabled = enabled
    try:
        yield fresh
    finally:
        REGISTRY = prev_registry
        _enabled = prev_enabled


def record(name: str, amount: float = 1.0, **labels) -> None:
    """Increment counter ``name`` iff metrics are enabled (hot-path safe)."""
    if _enabled:
        REGISTRY.counter(name, **labels).inc(amount)


def observe(name: str, value: float, **labels) -> None:
    """Observe into histogram ``name`` iff metrics are enabled."""
    if _enabled:
        REGISTRY.histogram(name, **labels).observe(value)


# ----------------------------------------------------------------------
# SPMD communication reports
# ----------------------------------------------------------------------
def render_comm_matrix(matrix: np.ndarray, title: str = "bytes sent, src rank → dst rank") -> str:
    """The rank×rank byte matrix as an aligned text table.

    Row p, column q holds the bytes rank p sent to rank q (allreduce bytes
    are attributed to the ring neighbor, allgather bytes to every peer —
    see ``Machine.run``); the grand total equals ``RunStats.total_nbytes()``.
    """
    m = np.asarray(matrix)
    P = m.shape[0]
    w = max(8, len(f"{int(m.max()) if m.size else 0}") + 2)
    lines = [title]
    lines.append(" " * 6 + "".join(f"→{q}".rjust(w) for q in range(P)) + "row Σ".rjust(w + 2))
    for p in range(P):
        row = "".join(f"{int(m[p, q])}".rjust(w) for q in range(P))
        lines.append(f"  {p:>3} " + row + f"{int(m[p].sum())}".rjust(w + 2))
    lines.append(f"  total bytes: {int(m.sum())}")
    return "\n".join(lines)


def phase_breakdown(stats, model=None) -> dict[str, dict[str, float]]:
    """Per-phase-label split of a run (the Table-3 quantities).

    Returns ``{label: {"parallel_seconds", "msgs", "nbytes",
    "max_compute_seconds", "supersteps"}}`` for every phase label that
    appears in ``stats`` (e.g. ``"inspector"`` and ``"executor"``).
    """
    from repro.runtime.machine import CommModel

    model = model or CommModel()
    out: dict[str, dict[str, float]] = {}
    for label in stats.phase_labels():
        w = stats.phase(label)
        out[label] = {
            "parallel_seconds": w.parallel_time(model),
            "msgs": float(w.total_msgs()),
            "nbytes": float(w.total_nbytes()),
            "max_compute_seconds": float(np.max(w.total_compute())) if w.phases else 0.0,
            "supersteps": float(len(w.phases)),
        }
    return out


def render_phase_breakdown(stats, model=None) -> str:
    """Aligned table of :func:`phase_breakdown` (inspector vs executor)."""
    rows = phase_breakdown(stats, model)
    lines = [
        f"{'phase':<12} {'par time (s)':>13} {'msgs':>9} {'bytes':>12} "
        f"{'max compute (s)':>16} {'steps':>6}"
    ]
    for label, r in rows.items():
        lines.append(
            f"{label:<12} {r['parallel_seconds']:>13.5f} {int(r['msgs']):>9} "
            f"{int(r['nbytes']):>12} {r['max_compute_seconds']:>16.5f} "
            f"{int(r['supersteps']):>6}"
        )
    if "inspector" in rows and "executor" in rows and rows["executor"]["parallel_seconds"]:
        n = max(1.0, rows["executor"]["supersteps"])
        per_iter = rows["executor"]["parallel_seconds"] / n
        lines.append(
            "inspector / executor-superstep ratio: "
            f"{rows['inspector']['parallel_seconds'] / per_iter:.2f}"
        )
    return "\n".join(lines)

