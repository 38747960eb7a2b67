"""Observability: tracing, metrics, and plan explanation.

Four cooperating pieces, all off by default and near-free when off:

* :mod:`repro.observability.trace` — span tracer instrumenting the
  compiler pipeline and the SPMD machine; exports Chrome ``trace_event``
  JSON (``chrome://tracing`` / Perfetto) and a human-readable tree,
* :mod:`repro.observability.metrics` — counters/gauges/histograms for
  collective traffic, inspector schedules, and kernel work (flops, nnz
  touched), plus the rank×rank communication-matrix and
  inspector-vs-executor renderers,
* :mod:`repro.observability.explain` — ``explain(kernel)``: the join
  order, join implementation per term, sparsity predicate, and rejected
  alternatives of every compiled statement,
* :mod:`repro.observability.profile` — critical-path profiler and
  cost-model audit over ``RunStats`` (per-rank compute/comm/idle
  attribution, cross-rank critical path, load imbalance, α+β·n
  prediction error).

``python -m repro.observability.report trace.json`` pretty-prints a trace
saved by ``Tracer.save`` or a benchmark ``--trace`` run;
``--critical-path`` / ``--cost-audit`` run the profiler on the trace's
embedded ``run_stats`` event.
"""

from repro.observability.metrics import (
    REGISTRY,
    MetricsRegistry,
    disable_metrics,
    enable_metrics,
    metrics_enabled,
    phase_breakdown,
    render_comm_matrix,
    render_phase_breakdown,
    scoped,
)
from repro.observability.trace import (
    Tracer,
    disable_tracing,
    enable_tracing,
    get_tracer,
    instant,
    set_tracer,
    span,
    tracing_enabled,
)

__all__ = [
    "Tracer",
    "span",
    "instant",
    "get_tracer",
    "set_tracer",
    "enable_tracing",
    "disable_tracing",
    "tracing_enabled",
    "MetricsRegistry",
    "REGISTRY",
    "enable_metrics",
    "disable_metrics",
    "metrics_enabled",
    "scoped",
    "render_comm_matrix",
    "phase_breakdown",
    "render_phase_breakdown",
    "explain",
]


def explain(obj, formats=None, verbose: bool = True) -> str:
    """Lazy re-export of :func:`repro.observability.explain.explain`
    (deferred so importing the runtime does not pull in the compiler)."""
    from repro.observability.explain import explain as _explain

    return _explain(obj, formats, verbose)
