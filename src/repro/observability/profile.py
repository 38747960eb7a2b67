"""Critical-path profiling and cost-model auditing of SPMD runs.

The *performance observatory* half that answers "where did the time go?".
Input is a :class:`~repro.runtime.machine.RunStats` — either live from
``Machine.run`` or rebuilt from the ``run_stats`` event every traced run
embeds in its Chrome trace (``RunStats.from_dict``).  Three analyses:

* :func:`profile_run` — per-rank **compute / comm / idle attribution**,
  the **cross-rank critical path** (one segment per superstep, naming the
  rank that gated it), and a per-phase **load-imbalance index**.  The
  segment seconds follow exactly the overlap fold of
  ``RunStats.parallel_time``, so the critical-path total *is* the
  estimated wall time — the acceptance invariant.
* :func:`audit_cost_model` — replay a candidate α+β·n
  :class:`~repro.runtime.machine.CommModel` against the per-superstep
  traffic of a run and report the per-phase prediction error relative to
  the model the run was folded under, plus a least-squares (α̂, β̂) fit to
  the observed traffic→seconds relation and an overlap-fold audit (posted
  vs hidden vs exposed wire seconds).  This is the calibration signal an
  auto-planner needs before trusting the model to rank plans.
* :func:`render_flamegraph` — a text flamegraph of a span trace
  (inclusive time per span name, bar-proportional), for the compiler side
  of a run.

Renderers return plain text; ``python -m repro.observability.report
trace.json --critical-path --cost-audit`` drives them from a saved trace.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.runtime.machine import CommModel, RunStats

__all__ = [
    "PathSegment",
    "RankAttribution",
    "ProfileResult",
    "profile_run",
    "render_attribution",
    "render_critical_path",
    "render_timeline",
    "render_flamegraph",
    "PhaseAudit",
    "CostModelAudit",
    "audit_cost_model",
    "render_cost_audit",
]


# ----------------------------------------------------------------------
# critical path
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class PathSegment:
    """One superstep's contribution to the cross-rank critical path."""

    step: int  # superstep index within the run
    kind: str  # collective kind ("alltoallv", "allreduce", "phase", "drain", ...)
    label: str | None  # enclosing phase label ("inspector", "executor", ...)
    rank: int  # the rank that gated this step (-1: pure comm drain)
    seconds: float  # what this step contributes to the parallel time
    compute: float  # the gating rank's compute share of `seconds`
    comm: float  # the gating rank's charged comm share (0 when hidden)
    overlapped: bool = False  # a nonblocking post (comm left in flight)
    stretched: bool = False  # step lasted longer than its own work: it was
    #                          held open by communication still in flight

    @property
    def category(self) -> str:
        """Dominant cost class: compute / comm / overlap / drain."""
        if self.kind == "drain":
            return "drain"
        if self.overlapped:
            return "overlap"
        if self.stretched and self.seconds > self.compute + self.comm:
            return "drain"
        return "comm" if self.comm > self.compute else "compute"


@dataclass
class RankAttribution:
    """Where one rank's share of the parallel time went."""

    rank: int
    compute: float  # seconds doing local work
    comm: float  # seconds charged for blocking communication
    wait: float  # seconds idle (barrier waits + comm drains)
    hidden_comm: float  # wire seconds posted nonblocking (not charged)

    @property
    def busy(self) -> float:
        return self.compute + self.comm


@dataclass
class ProfileResult:
    """Full attribution of one SPMD run."""

    nprocs: int
    parallel_time: float  # RunStats.parallel_time under the same model
    segments: list[PathSegment] = field(default_factory=list)
    ranks: list[RankAttribution] = field(default_factory=list)
    #: per-phase-label load-imbalance index: slowest rank's compute over
    #: the mean rank compute (1.0 = perfectly balanced); key None = whole run
    imbalance: dict[str | None, float] = field(default_factory=dict)

    @property
    def critical_path_total(self) -> float:
        return float(sum(s.seconds for s in self.segments))

    def top_segments(self, k: int = 10) -> list[PathSegment]:
        return sorted(self.segments, key=lambda s: -s.seconds)[:k]


def _step_labels(stats: RunStats) -> list[str | None]:
    """The enclosing phase label of every superstep (phase markers get the
    label they open)."""
    labels: list[str | None] = []
    current: str | None = None
    for p in stats.phases:
        if p.kind == "phase":
            current = p.label
        labels.append(current)
    return labels


def _imbalance(compute: np.ndarray) -> float:
    """Load-imbalance index of a per-rank compute vector: max/mean."""
    mean = float(compute.mean())
    if mean <= 0.0:
        return 1.0
    return float(compute.max()) / mean


def profile_run(stats: RunStats, model: CommModel | None = None) -> ProfileResult:
    """Attribute a run's estimated parallel time: per-rank compute / comm
    / idle, the cross-rank critical path, and load-imbalance indices.

    The segment seconds reproduce the arithmetic of
    ``RunStats.parallel_time`` step for step, so
    ``result.critical_path_total == result.parallel_time`` up to float
    summation order.
    """
    model = model or stats.model or CommModel()
    durations, busy, drain = stats.step_attribution(model)
    labels = _step_labels(stats)
    P = stats.nprocs

    segments: list[PathSegment] = []
    compute_p = np.zeros(P)
    comm_p = np.zeros(P)
    wait_p = np.zeros(P)
    hidden_p = np.zeros(P)
    per_label_compute: dict[str | None, np.ndarray] = {}

    for k, phase in enumerate(stats.phases):
        dur = float(durations[k])
        b = busy[k]
        crit = int(np.argmax(b)) if dur > 0 else 0
        rank_comm = phase.rank_comm(model)
        if phase.overlapped:
            hidden_p += rank_comm
            seg_comm = 0.0
        else:
            comm_p += rank_comm
            seg_comm = float(rank_comm[crit])
        compute_p += phase.compute
        wait_p += dur - b
        acc = per_label_compute.setdefault(labels[k], np.zeros(P))
        acc += phase.compute
        segments.append(
            PathSegment(
                step=k,
                kind=phase.kind,
                label=labels[k],
                rank=crit,
                seconds=dur,
                compute=float(phase.compute[crit]),
                comm=seg_comm,
                overlapped=phase.overlapped,
                stretched=dur > float(b[crit]) + 1e-15,
            )
        )
    if drain > 0.0:
        # trailing in-flight communication nobody's compute covered
        wait_p += drain
        segments.append(
            PathSegment(
                step=len(stats.phases),
                kind="drain",
                label=labels[-1] if labels else None,
                rank=-1,
                seconds=float(drain),
                compute=0.0,
                comm=float(drain),
            )
        )

    imbalance: dict[str | None, float] = {None: _imbalance(stats.total_compute())}
    for label, comp in per_label_compute.items():
        if label is not None:
            imbalance[label] = _imbalance(comp)

    ranks = [
        RankAttribution(
            rank=p,
            compute=float(compute_p[p]),
            comm=float(comm_p[p]),
            wait=float(wait_p[p]),
            hidden_comm=float(hidden_p[p]),
        )
        for p in range(P)
    ]
    return ProfileResult(
        nprocs=P,
        parallel_time=stats.parallel_time(model),
        segments=segments,
        ranks=ranks,
        imbalance=imbalance,
    )


# ----------------------------------------------------------------------
# renderers
# ----------------------------------------------------------------------
def _pct(x: float, total: float) -> str:
    return f"{100.0 * x / total:5.1f}%" if total > 0 else "    -"


def render_attribution(result: ProfileResult) -> str:
    """Per-rank compute/comm/idle table plus the imbalance indices."""
    T = result.parallel_time
    lines = [
        f"{'rank':>5} {'compute (s)':>14} {'comm (s)':>13} {'idle (s)':>13} "
        f"{'hidden comm (s)':>16}"
    ]
    for r in result.ranks:
        lines.append(
            f"{r.rank:>5} {r.compute:>9.5f} {_pct(r.compute, T)} "
            f"{r.comm:>8.5f} {_pct(r.comm, T)} {r.wait:>8.5f} {_pct(r.wait, T)} "
            f"{r.hidden_comm:>16.5f}"
        )
    lines.append(
        f"parallel time {T:.5f}s; critical path total "
        f"{result.critical_path_total:.5f}s"
        + (
            f" (diff {100.0 * abs(result.critical_path_total - T) / T:.3f}%)"
            if T > 0
            else ""
        )
    )
    for label, idx in sorted(result.imbalance.items(), key=lambda kv: str(kv[0])):
        name = "whole run" if label is None else f"phase {label!r}"
        lines.append(f"load imbalance ({name}): {idx:.2f}x  (slowest rank / mean rank)")
    return "\n".join(lines)


def render_critical_path(result: ProfileResult, top: int = 10) -> str:
    """The top-k critical-path segments, heaviest first."""
    T = result.critical_path_total
    lines = [
        f"{'#':>3} {'step':>5} {'phase':<11} {'collective':<16} {'rank':>4} "
        f"{'seconds':>11} {'share':>7}  cost"
    ]
    for i, s in enumerate(result.top_segments(top)):
        rank = "wire" if s.rank < 0 else str(s.rank)
        lines.append(
            f"{i + 1:>3} {s.step:>5} {str(s.label or '-'):<11} {s.kind:<16} "
            f"{rank:>4} {s.seconds:>11.6f} {_pct(s.seconds, T)}  {s.category}"
        )
    return "\n".join(lines)


#: timeline cell glyphs, by dominant cost of (rank, step); uppercase marks
#: the rank that gated the step (the critical path passes through it)
_TIMELINE_KEY = (
    "timeline key: c/C compute-bound, m/M comm-bound, o/O overlapped post, "
    "'.' idle (<50% busy), '|' phase marker, '>' comm drain; "
    "uppercase = on the critical path"
)


def render_timeline(
    stats: RunStats, model: CommModel | None = None, max_steps: int = 96
) -> str:
    """ASCII rank×step timeline of a run.

    One column per superstep, one row per rank.  A glyph classifies what
    the rank spent that step on; the uppercase cell is the rank the
    critical path ran through.  Runs longer than ``max_steps`` show the
    head and tail with an elision marker.
    """
    model = model or stats.model or CommModel()
    durations, busy, drain = stats.step_attribution(model)
    labels = _step_labels(stats)
    P = stats.nprocs
    S = len(stats.phases)

    steps = list(range(S))
    elided = False
    head = max_steps * 2 // 3
    if S > max_steps:
        tail = max_steps - head
        steps = list(range(head)) + list(range(S - tail, S))
        elided = True

    def cell(p: int, k: int) -> str:
        phase = stats.phases[k]
        if phase.kind == "phase":
            return "|"
        dur = float(durations[k])
        if dur <= 0:
            return "."
        crit = int(np.argmax(busy[k]))
        b = float(busy[k][p])
        if b < 0.5 * dur:
            return "."
        if phase.overlapped:
            ch = "o"
        else:
            ch = "m" if float(phase.rank_comm(model)[p]) > float(phase.compute[p]) else "c"
        return ch.upper() if p == crit else ch

    lines = []
    # phase-label ruler: first letter of the label at each phase marker
    ruler = []
    for k in steps:
        if stats.phases[k].kind == "phase" and labels[k]:
            ruler.append(str(labels[k])[0].upper())
        else:
            ruler.append(" ")
    for p in range(P):
        row = "".join(cell(p, k) for k in steps)
        if elided:
            row = row[:head] + "…" + row[head:]
        row += ">" if drain > 0 else ""
        lines.append(f"rank{p:<3} {row}")
    ruler_txt = "".join(ruler)
    if elided:
        ruler_txt = ruler_txt[:head] + " " + ruler_txt[head:]
    lines.append(f"phase  {ruler_txt}")
    if elided:
        lines.append(f"({S} supersteps; showing head and tail, '…' elides the middle)")
    lines.append(_TIMELINE_KEY)
    return "\n".join(lines)


def _span_depths(tracer) -> dict[str, list[int]]:
    """Nesting depth of every complete span, recomputed from timestamp
    containment per thread (loaded traces don't carry live depths)."""
    by_tid: dict[object, list] = {}
    for r in tracer.records:
        if r.dur is not None:
            by_tid.setdefault(r.tid, []).append(r)
    depths: dict[str, list[int]] = {}
    for spans in by_tid.values():
        spans.sort(key=lambda r: (r.ts, -(r.dur or 0.0)))
        stack: list[float] = []  # end timestamps of open ancestors
        for r in spans:
            while stack and r.ts >= stack[-1] - 1e-9:
                stack.pop()
            depths.setdefault(r.name, []).append(len(stack))
            stack.append(r.ts + r.dur)
    return depths


def render_flamegraph(tracer, width: int = 48, top: int = 24) -> str:
    """Text flamegraph of a span trace: inclusive seconds per span name,
    one bar per name, heaviest first; indentation follows the modal
    nesting depth the name was recorded at."""
    agg: dict[str, list[float]] = {}
    for r in tracer.records:
        if r.dur is None:
            continue
        agg.setdefault(r.name, []).append(r.dur)
    if not agg:
        return "(no spans)"
    depths = _span_depths(tracer)
    totals = {name: sum(d) for name, d in agg.items()}
    vmax = max(totals.values()) or 1.0
    lines = [f"{'span':<44} {'count':>6} {'total ms':>10}  flame"]
    for name, total in sorted(totals.items(), key=lambda kv: -kv[1])[:top]:
        depth = int(np.bincount(depths[name]).argmax())
        bar = "█" * max(1, int(round(width * total / vmax)))
        label = ("  " * depth + name)[:44]
        lines.append(f"{label:<44} {len(agg[name]):>6} {total / 1000.0:>10.3f}  {bar}")
    if len(totals) > top:
        lines.append(f"(… {len(totals) - top} more span names)")
    return "\n".join(lines)


# ----------------------------------------------------------------------
# cost-model audit
# ----------------------------------------------------------------------
@dataclass
class PhaseAudit:
    """Candidate-vs-reference α+β·n prediction for one phase label."""

    label: str | None
    supersteps: int
    msgs: int
    nbytes: int
    reference_seconds: float  # comm fold under the run's own model
    predicted_seconds: float  # comm fold under the candidate model

    @property
    def error_pct(self) -> float:
        """Signed prediction error of the candidate, % of reference."""
        if self.reference_seconds <= 0.0:
            return 0.0
        return (
            100.0
            * (self.predicted_seconds - self.reference_seconds)
            / self.reference_seconds
        )


@dataclass
class CostModelAudit:
    """Full audit: per-phase errors, fitted α̂/β̂, overlap-fold accounting."""

    phases: list[PhaseAudit]
    candidate: CommModel
    reference: CommModel
    fitted_latency: float | None  # α̂ from least squares (None: no traffic)
    fitted_inv_bandwidth: float | None  # β̂
    fit_r2: float | None
    posted_seconds: float  # wire seconds posted nonblocking
    hidden_seconds: float  # portion covered by interior compute
    exposed_seconds: float  # portion that stretched steps / drained at end


def audit_cost_model(
    stats: RunStats,
    candidate: CommModel | None = None,
    reference: CommModel | None = None,
) -> CostModelAudit:
    """Replay a candidate α+β·n model against a run's measured traffic.

    ``reference`` defaults to the model the run itself was folded under
    (``stats.model``) — the calibrated ground truth of this simulation.
    ``candidate`` defaults to the uncalibrated paper :class:`CommModel`.
    Per phase label, both models price the *same* observed per-superstep
    (msgs, bytes) traffic; the per-phase error is the calibration gap.

    The least-squares section goes the other way: it *fits* (α̂, β̂) to the
    per-superstep slowest-rank traffic→seconds pairs, recovering the
    effective model from observations alone — the calibration signal a
    structure-aware auto-planner consumes.  ``fit_r2`` near 1 means the
    α+β·n form explains the fold; a poor fit means per-rank skew is
    breaking the single-model assumption.
    """
    reference = reference or stats.model or CommModel()
    candidate = candidate or CommModel()
    labels = _step_labels(stats)

    by_label: dict[str | None, PhaseAudit] = {}
    rows = []  # (msgs, bytes) of the reference-slowest rank, per superstep
    targets = []  # that rank's reference comm seconds
    posted = hidden = exposed = 0.0
    in_flight = 0.0
    for k, phase in enumerate(stats.phases):
        ref_rank = phase.rank_comm(reference)
        crit = int(np.argmax(ref_rank))
        ref_s = float(ref_rank[crit])
        cand_s = float(phase.rank_comm(candidate)[crit])
        pa = by_label.get(labels[k])
        if pa is None:
            pa = by_label[labels[k]] = PhaseAudit(labels[k], 0, 0, 0, 0.0, 0.0)
        pa.supersteps += 1
        pa.msgs += int(phase.msgs.sum())
        pa.nbytes += int(phase.nbytes.sum())
        pa.reference_seconds += ref_s
        pa.predicted_seconds += cand_s
        if ref_s > 0.0 or int(phase.msgs.sum()):
            rows.append((float(phase.msgs[crit]), float(phase.nbytes[crit])))
            targets.append(ref_s)
        # overlap-fold accounting, mirroring RunStats.parallel_time
        if phase.overlapped:
            posted += ref_s
            in_flight = max(in_flight, ref_s)
            continue
        if in_flight > 0.0:
            step = phase.step_time(reference)
            covered = min(in_flight, step)
            hidden += covered
            exposed += in_flight - covered
            in_flight = 0.0
    exposed += in_flight  # trailing drain: fully exposed

    fitted_a = fitted_b = r2 = None
    if rows:
        A = np.asarray(rows)
        y = np.asarray(targets)
        coef, *_ = np.linalg.lstsq(A, y, rcond=None)
        fitted_a, fitted_b = float(coef[0]), float(coef[1])
        pred = A @ coef
        ss_res = float(((y - pred) ** 2).sum())
        ss_tot = float(((y - y.mean()) ** 2).sum())
        r2 = 1.0 - ss_res / ss_tot if ss_tot > 0 else 1.0

    return CostModelAudit(
        phases=list(by_label.values()),
        candidate=candidate,
        reference=reference,
        fitted_latency=fitted_a,
        fitted_inv_bandwidth=fitted_b,
        fit_r2=r2,
        posted_seconds=posted,
        hidden_seconds=hidden,
        exposed_seconds=exposed,
    )


def render_cost_audit(audit: CostModelAudit) -> str:
    """Aligned report of :func:`audit_cost_model`."""
    c, r = audit.candidate, audit.reference
    lines = [
        f"candidate model: α={c.latency:.3g}s  β={c.inv_bandwidth:.3g}s/B",
        f"reference model: α={r.latency:.3g}s  β={r.inv_bandwidth:.3g}s/B "
        "(the run's own fold)",
        f"{'phase':<12} {'steps':>6} {'msgs':>9} {'bytes':>12} "
        f"{'reference (s)':>14} {'predicted (s)':>14} {'error':>9}",
    ]
    for p in sorted(audit.phases, key=lambda p: str(p.label)):
        lines.append(
            f"{str(p.label or '-'):<12} {p.supersteps:>6} {p.msgs:>9} "
            f"{p.nbytes:>12} {p.reference_seconds:>14.6f} "
            f"{p.predicted_seconds:>14.6f} {p.error_pct:>+8.1f}%"
        )
    if audit.fitted_latency is not None:
        lines.append(
            f"least-squares fit over supersteps: α̂={audit.fitted_latency:.3g}s  "
            f"β̂={audit.fitted_inv_bandwidth:.3g}s/B  R²={audit.fit_r2:.4f}"
        )
    if audit.posted_seconds > 0:
        covered = 100.0 * audit.hidden_seconds / audit.posted_seconds
        lines.append(
            f"overlap fold: posted {audit.posted_seconds:.6f}s nonblocking, "
            f"hidden {audit.hidden_seconds:.6f}s ({covered:.1f}%), "
            f"exposed {audit.exposed_seconds:.6f}s"
        )
    return "\n".join(lines)
