"""Pretty-print a saved trace: ``python -m repro.observability.report t.json``.

Renders from a Chrome-trace JSON written by ``Tracer.save`` (or any
``--trace out.json`` benchmark run):

* the per-thread span tree (compiler phases nested, per-rank runtime
  windows),
* a summary table aggregating span durations by name,
* every recorded rank×rank communication matrix,
* with ``--critical-path``: per-rank compute/comm/idle attribution, the
  cross-rank critical path, the load-imbalance index, a text flamegraph,
  and an ASCII rank×step timeline (from the embedded ``run_stats`` event
  every traced ``Machine.run`` records),
* with ``--cost-audit``: per-phase α+β·n prediction error of a candidate
  :class:`~repro.runtime.machine.CommModel` vs the run's own fold.

Exit status: 0 on success, 1 on unreadable/malformed traces or when the
requested analysis has no ``run_stats`` event to work from.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

import numpy as np

from repro.errors import ObservabilityError
from repro.observability.metrics import render_comm_matrix
from repro.observability.trace import Tracer

__all__ = ["report", "load_trace", "run_stats_of", "main"]


def _summary(tracer: Tracer) -> str:
    agg: dict[str, list[float]] = {}
    for r in tracer.records:
        if r.dur is not None:
            agg.setdefault(r.name, []).append(r.dur)
    if not agg:
        return "(no spans)"
    lines = [f"{'span':<40} {'count':>6} {'total ms':>10} {'mean ms':>10}"]
    for name, durs in sorted(agg.items(), key=lambda kv: -sum(kv[1])):
        total = sum(durs)
        lines.append(
            f"{name:<40} {len(durs):>6} {total / 1000.0:>10.3f} "
            f"{total / len(durs) / 1000.0:>10.3f}"
        )
    return "\n".join(lines)


def _comm_matrices(tracer: Tracer) -> str:
    blocks = []
    for r in tracer.records:
        if r.name == "comm_matrix" and "matrix" in r.args:
            m = np.asarray(r.args["matrix"], dtype=np.int64)
            blocks.append(
                render_comm_matrix(
                    m,
                    title=(
                        f"comm matrix @ {r.ts / 1000.0:.3f} ms "
                        f"(total {r.args.get('total_bytes', int(m.sum()))} bytes)"
                    ),
                )
            )
    return "\n\n".join(blocks) if blocks else "(no communication matrices recorded)"


def load_trace(path: str) -> Tracer:
    """Load a Chrome-trace file, mapping every malformation — unreadable
    file, invalid JSON, a JSON document with no ``traceEvents`` — to
    :class:`ObservabilityError` (exit code 1 at the CLI)."""
    try:
        with open(path) as f:
            doc = json.load(f)
    except (OSError, json.JSONDecodeError) as e:
        raise ObservabilityError(f"cannot read trace {path!r}: {e}") from e
    if isinstance(doc, dict) and "traceEvents" not in doc:
        raise ObservabilityError(
            f"malformed trace {path!r}: no 'traceEvents' key"
        )
    if not isinstance(doc, (dict, list)):
        raise ObservabilityError(
            f"malformed trace {path!r}: expected an object or array, "
            f"got {type(doc).__name__}"
        )
    try:
        return Tracer.from_chrome(doc)
    except (KeyError, TypeError, ValueError, AttributeError) as e:
        raise ObservabilityError(f"malformed trace {path!r}: {e}") from e


def run_stats_of(tracer: Tracer):
    """The :class:`~repro.runtime.machine.RunStats` of the *last*
    ``run_stats`` instant in a trace, or None if the trace has none
    (e.g. a compiler-only trace)."""
    from repro.runtime.machine import RunStats

    doc = None
    for r in tracer.records:
        if r.name == "run_stats" and "phases" in r.args:
            doc = r.args
    return None if doc is None else RunStats.from_dict(doc)


def _critical_path_sections(tracer: Tracer, path: str, top: int) -> list[str]:
    from repro.observability.profile import (
        profile_run,
        render_attribution,
        render_critical_path,
        render_flamegraph,
        render_timeline,
    )

    stats = run_stats_of(tracer)
    if stats is None:
        raise ObservabilityError(
            f"trace {path!r} has no 'run_stats' event: it traced no "
            "Machine run"
        )
    result = profile_run(stats)
    return [
        "== per-rank attribution ==\n" + render_attribution(result),
        f"== critical path (top {top}) ==\n" + render_critical_path(result, top=top),
        "== rank×step timeline ==\n" + render_timeline(stats),
        "== flamegraph ==\n" + render_flamegraph(tracer),
    ]


def _cost_audit_section(tracer: Tracer, path: str, args) -> str:
    from repro.observability.profile import audit_cost_model, render_cost_audit
    from repro.runtime.machine import CommModel

    stats = run_stats_of(tracer)
    if stats is None:
        raise ObservabilityError(
            f"trace {path!r} has no 'run_stats' event — nothing to audit"
        )
    candidate = None
    if args.alpha is not None or args.beta is not None:
        candidate = CommModel(
            latency=args.alpha if args.alpha is not None else CommModel().latency,
            inv_bandwidth=args.beta if args.beta is not None else CommModel().inv_bandwidth,
        )
    return "== cost-model audit ==\n" + render_cost_audit(
        audit_cost_model(stats, candidate=candidate)
    )


def report(path: str, tree: bool = True, summary: bool = True, comm: bool = True) -> str:
    """The classic text report for one saved trace file (span tree,
    summary table, comm matrices)."""
    tracer = load_trace(path)
    sections = [f"trace: {path} ({len(tracer.records)} events)"]
    if summary:
        sections.append("== span summary ==\n" + _summary(tracer))
    if tree:
        sections.append("== span tree ==\n" + tracer.render_tree())
    if comm:
        sections.append("== communication ==\n" + _comm_matrices(tracer))
    return "\n\n".join(sections)


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(
        prog="python -m repro.observability.report", description=__doc__
    )
    ap.add_argument("trace", help="Chrome-trace JSON written by --trace / Tracer.save")
    ap.add_argument("--no-tree", action="store_true", help="skip the span tree")
    ap.add_argument("--no-summary", action="store_true", help="skip the summary table")
    ap.add_argument("--no-comm", action="store_true", help="skip comm matrices")
    ap.add_argument(
        "--critical-path",
        action="store_true",
        help="per-rank compute/comm/idle attribution, cross-rank critical "
        "path, load imbalance, timeline, and flamegraph (needs the "
        "embedded run_stats event)",
    )
    ap.add_argument(
        "--cost-audit",
        action="store_true",
        help="replay an α+β·n CommModel against the run's traffic and "
        "report per-phase prediction error",
    )
    ap.add_argument(
        "--top", type=int, default=10, help="critical-path segments to show"
    )
    ap.add_argument(
        "--alpha", type=float, default=None, help="candidate model latency α (s)"
    )
    ap.add_argument(
        "--beta",
        type=float,
        default=None,
        help="candidate model inverse bandwidth β (s/byte)",
    )
    args = ap.parse_args(argv)
    try:
        if args.critical_path or args.cost_audit:
            tracer = load_trace(args.trace)
            sections = [f"trace: {args.trace} ({len(tracer.records)} events)"]
            if args.critical_path:
                sections.extend(
                    _critical_path_sections(tracer, args.trace, args.top)
                )
            if args.cost_audit:
                sections.append(_cost_audit_section(tracer, args.trace, args))
            print("\n\n".join(sections))
        else:
            print(
                report(
                    args.trace,
                    tree=not args.no_tree,
                    summary=not args.no_summary,
                    comm=not args.no_comm,
                )
            )
    except ObservabilityError as e:
        print(f"error: {e}", file=sys.stderr)
        return 1
    except BrokenPipeError:
        # downstream pager/head closed the pipe; not an error, but stdout
        # must be redirected or the interpreter complains on exit flush
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 0
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
