"""SPMD schedule checker: deadlock-freedom before execution.

A :class:`~repro.runtime.inspector.GatherSchedule` is a *promise* between
ranks: rank p will pack ``send_locals[q]`` values for q, and q expects
them to land in ``recv_slots[p]``, covering its ghost buffer exactly.
The runtime trusts the promise — a length mismatch deadlocks a real
message-passing machine (one side waits forever), an uncovered ghost
slot silently multiplies by stale data.  This pass validates the promise
*before* the executor runs:

* **per-rank structure** — ghost directory strictly sorted (the slot
  lookup binary-searches it), every ghost slot covered exactly once by
  the self/recv slot lists, send offsets within the local range;
* **cross-rank matching** — rank p sends to q exactly when q expects a
  packet from p, with equal lengths;
* **collective sequence** — every rank's SPMD generator runs on the
  simulated :class:`~repro.runtime.machine.Machine` that executes it, and
  its SPMD violations (mismatched collective kinds or phase labels, ranks
  finishing while peers still wait) become diagnostics;
* **rebuild re-verification** — :func:`verify_rebuilt_schedule` is called
  by the fault-recovery protocol
  (:func:`~repro.runtime.faults.ensure_valid_schedule`) so a re-inspected
  schedule passes the same structural bar as the original.

Codes:

=======  ============================================================
BER040   error — send/recv mismatch between ranks (missing peer or
         unequal packet lengths; a real machine deadlocks here)
BER041   error — collective-sequence violation (mismatched kinds or
         phase labels, premature rank finish)
BER042   error — ghost slot never filled (stale data would be read)
BER043   error — malformed index structure (unsorted ghost directory,
         duplicate/out-of-range slot, send offset outside local range)
BER044   error — schedule checksum does not match the recorded
         fingerprint
BER045   info — strategy's schedules and collective trace verified
=======  ============================================================
"""

from __future__ import annotations

import numpy as np

from repro.analysis.diagnostics import ERROR, INFO, Diagnostic, DiagnosticReport
from repro.analysis.registry import register_pass
from repro.errors import RuntimeMachineError

__all__ = [
    "check_local_schedule",
    "check_gather_schedules",
    "trace_collectives",
    "verify_rebuilt_schedule",
    "check_spmv_strategies",
]

_PASS = "schedule"


def _diag(code, severity, message, location):
    return Diagnostic(code, severity, message, pass_name=_PASS, location=location)


# ----------------------------------------------------------------------
# per-rank structural checks
# ----------------------------------------------------------------------
def check_local_schedule(sched, nlocal=None, where=None) -> DiagnosticReport:
    """Structural invariants of one rank's gather schedule."""
    report = DiagnosticReport()
    loc = where or f"rank {sched.rank} schedule"
    gg = np.asarray(sched.ghost_global)
    if len(gg) > 1 and np.any(np.diff(gg) <= 0):
        report.add(
            _diag(
                "BER043",
                ERROR,
                "ghost directory is not strictly sorted — ghost_slot_of "
                "binary-searches it, so lookups would silently miss",
                loc,
            )
        )
    covered = np.zeros(sched.nghost, dtype=np.int64)
    sources = [("self", sched.self_slots)] + [
        (f"peer {q}", sched.recv_slots[q]) for q in sorted(sched.recv_slots)
    ]
    for src_name, slots in sources:
        slots = np.asarray(slots)
        bad = slots[(slots < 0) | (slots >= sched.nghost)]
        if len(bad):
            report.add(
                _diag(
                    "BER043",
                    ERROR,
                    f"{src_name} fills ghost slot(s) {bad[:3].tolist()} "
                    f"outside 0..{sched.nghost - 1}",
                    loc,
                )
            )
            slots = slots[(slots >= 0) & (slots < sched.nghost)]
        np.add.at(covered, slots, 1)
    dup = np.flatnonzero(covered > 1)
    if len(dup):
        report.add(
            _diag(
                "BER043",
                ERROR,
                f"ghost slot(s) {dup[:3].tolist()} filled more than once — "
                "the last packet wins nondeterministically",
                loc,
            )
        )
    miss = np.flatnonzero(covered == 0)
    if len(miss):
        report.add(
            _diag(
                "BER042",
                ERROR,
                f"ghost slot(s) {miss[:3].tolist()} of {sched.nghost} are "
                "never filled by any peer or self-resolution — the executor "
                "would read stale buffer contents",
                loc,
            )
        )
    if nlocal is not None:
        for q in sorted(sched.send_locals):
            offs = np.asarray(sched.send_locals[q])
            bad = offs[(offs < 0) | (offs >= max(1, nlocal))]
            if len(bad):
                report.add(
                    _diag(
                        "BER043",
                        ERROR,
                        f"send list for peer {q} indexes local offset(s) "
                        f"{bad[:3].tolist()} outside 0..{nlocal - 1}",
                        loc,
                    )
                )
        offs = np.asarray(sched.self_locals)
        bad = offs[(offs < 0) | (offs >= max(1, nlocal))]
        if len(bad):
            report.add(
                _diag(
                    "BER043",
                    ERROR,
                    f"self-resolution indexes local offset(s) "
                    f"{bad[:3].tolist()} outside 0..{nlocal - 1}",
                    loc,
                )
            )
    return report


# ----------------------------------------------------------------------
# cross-rank matching
# ----------------------------------------------------------------------
def _cross_check(sends, recvs, where="schedules") -> DiagnosticReport:
    """``sends[p][q]``/``recvs[p][q]`` are packet lengths; every promise
    must have a matching expectation of equal length."""
    report = DiagnosticReport()
    nprocs = len(sends)
    for p in range(nprocs):
        for q, n in sorted(sends[p].items()):
            if not (0 <= q < nprocs):
                report.add(
                    _diag(
                        "BER040",
                        ERROR,
                        f"rank {p} sends to nonexistent rank {q}",
                        where,
                    )
                )
                continue
            expect = recvs[q].get(p)
            if expect is None:
                report.add(
                    _diag(
                        "BER040",
                        ERROR,
                        f"rank {p} sends {n} value(s) to rank {q}, but rank "
                        f"{q} expects no packet from rank {p} — rank {p} "
                        "would block in send forever",
                        where,
                    )
                )
            elif expect != n:
                report.add(
                    _diag(
                        "BER040",
                        ERROR,
                        f"rank {p} sends {n} value(s) to rank {q}, which "
                        f"expects {expect} — the receive would misfill the "
                        "ghost buffer",
                        where,
                    )
                )
        # expectations with no matching promise
        for q, n in sorted(recvs[p].items()):
            if 0 <= q < nprocs and p not in sends[q]:
                report.add(
                    _diag(
                        "BER040",
                        ERROR,
                        f"rank {p} expects {n} value(s) from rank {q}, but "
                        f"rank {q} never sends to rank {p} — rank {p} would "
                        "block in receive forever",
                        where,
                    )
                )
    return report


def check_gather_schedules(scheds, nlocals=None, where="schedules") -> DiagnosticReport:
    """Validate a full set of per-rank schedules: local structure plus
    cross-rank send/recv matching (``scheds[p]`` is rank p's)."""
    report = DiagnosticReport()
    for p, sched in enumerate(scheds):
        nlocal = nlocals[p] if nlocals is not None else None
        report.extend(
            check_local_schedule(sched, nlocal=nlocal, where=f"{where}, rank {p}")
        )
    sends = [
        {int(q): len(s.send_locals[q]) for q in s.send_locals} for s in scheds
    ]
    recvs = [
        {int(q): len(s.recv_slots[q]) for q in s.recv_slots} for s in scheds
    ]
    report.extend(_cross_check(sends, recvs, where=where))
    return report


# ----------------------------------------------------------------------
# collective trace on the simulated machine
# ----------------------------------------------------------------------
def trace_collectives(make_program, nprocs):
    """Run one SPMD generator per rank on :class:`~repro.runtime.machine.Machine`,
    *diagnosing* an SPMD violation instead of raising it.

    Returns ``(results, traces, report)``: per-rank return values, per-rank
    collective traces as ``(kind, label_or_None)`` tuples, and the report.
    A violation stops the run (past a mismatched collective there is no
    meaningful routing) and leaves results and traces empty: BER040 for a
    send to a rank that does not exist, BER041 for every other
    collective-sequence violation.
    """
    from repro.runtime.machine import Machine

    report = DiagnosticReport()
    try:
        results, stats = Machine(nprocs).run(make_program)
    except RuntimeMachineError as exc:
        code = "BER041" if exc.bad_rank is None else "BER040"
        report.add(_diag(code, ERROR, str(exc), f"superstep {exc.superstep}"))
        return [None] * nprocs, [[] for _ in range(nprocs)], report
    trace = [(ph.kind, ph.label) for ph in stats.phases[:-1]]  # drop "finish"
    return results, [list(trace) for _ in range(nprocs)], report


# ----------------------------------------------------------------------
# fault-recovery integration
# ----------------------------------------------------------------------
def verify_rebuilt_schedule(strategy, sched) -> DiagnosticReport:
    """Re-verify a schedule produced by fault-recovery re-inspection.

    Called by :func:`~repro.runtime.faults.ensure_valid_schedule` after a
    rebuild: structural invariants plus the checksum fingerprint recorded
    at ``setup()``.  Purely local — the recovery protocol's collective
    pattern is unchanged.
    """
    report = check_local_schedule(
        sched,
        nlocal=getattr(strategy, "nlocal", None),
        where=f"rank {sched.rank} rebuilt schedule",
    )
    stored = getattr(strategy, "_sched_sum", None)
    if stored is not None:
        from repro.runtime.faults import schedule_checksum

        if schedule_checksum(sched) != stored:
            report.add(
                _diag(
                    "BER044",
                    ERROR,
                    "rebuilt schedule's checksum does not match the "
                    "fingerprint recorded at setup — re-inspection produced "
                    "a different communication pattern",
                    f"rank {sched.rank} rebuilt schedule",
                )
            )
    return report


# ----------------------------------------------------------------------
# sweep: every variant of the specification table
# ----------------------------------------------------------------------
def check_spmv_strategies(coo=None, nprocs=3, niter=2) -> DiagnosticReport:
    """End-to-end schedule validation of every ``SPMV_VARIANTS`` entry.

    For each variant the checker runs setup + ``niter`` executor steps
    on the simulated machine (which checks the collective sequence) and
    validates the materialized gather schedules per rank and across
    ranks.  A clean variant contributes one BER045 info.
    """
    from repro.distribution import BlockDistribution, MultiBlockDistribution
    from repro.formats import BlockSolveMatrix
    from repro.matrices import fem_matrix
    from repro.parallel import SPMV_VARIANTS, make_spmv_setup, partition_rows

    report = DiagnosticReport()
    if coo is None:
        coo = fem_matrix(points=14, dof=2, rng=5)
    n = coo.shape[0]
    x = np.linspace(-1.0, 1.0, n)

    bs = BlockSolveMatrix.from_coo(coo)
    bdist = MultiBlockDistribution.from_color_classes(bs.clique_ptr, bs.colors, nprocs)
    rdist = BlockDistribution(n, nprocs)
    frags = partition_rows(coo, rdist)

    for name, variant in SPMV_VARIANTS.items():
        # BlockSolve variants run in the reordered space over the whole bs
        dist, data, xs = (
            (bdist, [bs] * nprocs, x[bs.perm.perm]) if variant.blocksolve else (rdist, frags, x)
        )
        strategies = [None] * nprocs

        def prog(p, name=name, dist=dist, data=data, xs=xs, strategies=strategies):
            strat = strategies[p] = make_spmv_setup(name, p, dist, data[p])
            yield from strat.setup()
            y = None
            for _ in range(niter):
                y = yield from strat.step(xs[dist.owned_by(p)])
            return y

        before = len(report)
        _, traces, drive_report = trace_collectives(prog, nprocs)
        report.extend(drive_report)
        scheds = [s.sched for s in strategies if s is not None and hasattr(s, "sched")]
        if len(scheds) == nprocs:
            report.extend(
                check_gather_schedules(
                    scheds,
                    nlocals=[getattr(s, "nlocal", None) for s in strategies],
                    where=f"strategy {name}",
                )
            )
        elif drive_report.ok:
            report.add(
                _diag(
                    "BER041",
                    ERROR,
                    f"strategy {name}: only {len(scheds)}/{nprocs} ranks "
                    "materialized a schedule",
                    f"strategy {name}",
                )
            )
        if not any(d.severity == ERROR for d in report.diagnostics[before:]):
            steps = len(traces[0])
            report.add(
                _diag(
                    "BER045",
                    INFO,
                    f"schedules deadlock-free on {nprocs} ranks; collective "
                    f"trace consistent across {steps} superstep(s)",
                    f"strategy {name}",
                )
            )
    return report


@register_pass("schedule", "SPMD schedule checker over every SPMV_VARIANTS entry")
def _sweep() -> DiagnosticReport:
    return check_spmv_strategies()
