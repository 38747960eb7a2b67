"""Pretty-print a saved trace: ``python -m repro.observability.report t.json``.

Renders from a Chrome-trace JSON written by ``Tracer.save`` (or any
``--trace out.json`` benchmark run):

* the per-thread span tree (compiler phases nested, per-rank runtime
  windows),
* a summary table aggregating span durations by name,
* every recorded rank×rank communication matrix.

Exit status: 0 on success, 1 on unreadable or malformed traces.
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

__all__ = ["report", "load_trace", "main"]


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


def _byte_matrix(raw, path: str) -> np.ndarray:
    """A ``comm_matrix`` event's matrix: square, 2-D and integer, or the
    trace is malformed."""
    try:
        m = np.asarray(raw)
    except ValueError:  # ragged rows
        m = None
    if m is None or m.ndim != 2 or m.shape[0] != m.shape[1] or m.dtype.kind not in "iu":
        raise ObservabilityError(
            f"malformed trace {path!r}: comm_matrix is not a square "
            "integer matrix"
        )
    return m.astype(np.int64)


def _comm_matrices(tracer: Tracer, path: str) -> str:
    blocks = []
    for r in tracer.records:
        if r.name == "comm_matrix" and "matrix" in r.args:
            m = _byte_matrix(r.args["matrix"], path)
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
        sections.append("== communication ==\n" + _comm_matrices(tracer, path))
    return "\n\n".join(sections)


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(
        prog="python -m repro.observability.report", description=__doc__
    )
    ap.add_argument("trace", help="Chrome-trace JSON written by --trace / Tracer.save")
    ap.add_argument("--no-tree", action="store_true", help="skip the span tree")
    ap.add_argument("--no-summary", action="store_true", help="skip the summary table")
    ap.add_argument("--no-comm", action="store_true", help="skip comm matrices")
    args = ap.parse_args(argv)
    try:
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
