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
* **collective lockstep** — a lightweight driver (the routing rules of
  :class:`~repro.runtime.machine.Machine`, diagnostics instead of
  exceptions) runs every rank's SPMD generator and flags mismatched
  collective kinds, mismatched phase labels, and ranks finishing while
  peers still wait;
* **rebuild re-verification** — :func:`verify_rebuilt_schedule` is called
  by the fault-recovery protocol
  (:func:`~repro.runtime.faults.ensure_valid_schedule`) so a re-inspected
  schedule passes the same structural bar as the original.

Codes:

=======  ============================================================
BER040   error — send/recv mismatch between ranks (missing peer or
         unequal packet lengths; a real machine deadlocks here)
BER041   error — collective-sequence violation (mismatched kinds or
         phase labels, premature rank finish, superstep overrun)
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

__all__ = [
    "check_local_schedule",
    "check_gather_schedules",
    "trace_collectives",
    "verify_rebuilt_schedule",
    "check_spmv_strategies",
]

_PASS = "schedule"

#: lockstep-driver superstep budget — generous: the shipped strategies
#: need tens of supersteps, so hitting this means a livelock
_MAX_SUPERSTEPS = 100_000


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
# collective lockstep driver
# ----------------------------------------------------------------------
def trace_collectives(make_program, nprocs):
    """Run one SPMD generator per rank in lockstep, routing collectives
    like the simulated machine but *diagnosing* SPMD violations instead
    of raising.

    Returns ``(results, traces, report)``: per-rank return values (None
    for ranks aborted by a violation), per-rank collective traces as
    ``(kind, label_or_None)`` tuples, and the report.  The drive stops at
    the first violation — past a mismatched collective there is no
    meaningful routing.
    """
    from repro.runtime.machine import Fragmented, assemble_fragments

    report = DiagnosticReport()
    gens = [make_program(p) for p in range(nprocs)]
    inbox = [None] * nprocs
    done = [False] * nprocs
    results = [None] * nprocs
    traces: list[list[tuple]] = [[] for _ in range(nprocs)]

    for superstep in range(_MAX_SUPERSTEPS):
        requests = [None] * nprocs
        for p in range(nprocs):
            if done[p]:
                continue
            try:
                requests[p] = gens[p].send(inbox[p])
            except StopIteration as stop:
                results[p] = stop.value
                done[p] = True
            inbox[p] = None
        if all(done):
            return results, traces, report
        alive = [p for p in range(nprocs) if not done[p]]
        finished = [p for p in range(nprocs) if done[p]]
        if finished:
            report.add(
                _diag(
                    "BER041",
                    ERROR,
                    f"rank(s) {finished} finished at superstep {superstep} "
                    f"while rank(s) {alive} still wait in "
                    f"{sorted({requests[p][0] for p in alive})} — the "
                    "waiting ranks deadlock",
                    f"superstep {superstep}",
                )
            )
            return results, traces, report
        kinds = {requests[p][0] for p in alive}
        if len(kinds) != 1:
            by_kind = {
                k: [p for p in alive if requests[p][0] == k]
                for k in sorted(kinds)
            }
            report.add(
                _diag(
                    "BER041",
                    ERROR,
                    f"mismatched collectives at superstep {superstep}: "
                    f"{by_kind} — ranks wait on different operations",
                    f"superstep {superstep}",
                )
            )
            return results, traces, report
        kind = kinds.pop()
        label = requests[alive[0]][1] if kind == "phase" else None
        for p in alive:
            traces[p].append((kind, requests[p][1] if kind == "phase" else None))

        if kind in ("alltoallv", "alltoallv_async"):
            recv: list[dict] = [dict() for _ in range(nprocs)]
            bad_dst = False
            for p in alive:
                send = requests[p][1] or {}
                for q, payload in send.items():
                    if not (0 <= q < nprocs):
                        report.add(
                            _diag(
                                "BER040",
                                ERROR,
                                f"rank {p} sends to nonexistent rank {q} at "
                                f"superstep {superstep}",
                                f"superstep {superstep}",
                            )
                        )
                        bad_dst = True
                        continue
                    recv[q][p] = (
                        assemble_fragments(payload)
                        if isinstance(payload, Fragmented)
                        else payload
                    )
            if bad_dst:
                return results, traces, report
            for p in alive:
                inbox[p] = recv[p]
        elif kind == "allreduce":
            total = requests[alive[0]][1]
            for p in alive[1:]:
                total = total + requests[p][1]
            for p in alive:
                inbox[p] = total
        elif kind == "allgather":
            gathered = [requests[p][1] for p in alive]
            for p in alive:
                inbox[p] = list(gathered)
        elif kind == "phase":
            labels = {requests[p][1] for p in alive}
            if len(labels) != 1:
                report.add(
                    _diag(
                        "BER041",
                        ERROR,
                        f"mismatched phase labels {sorted(labels)} at "
                        f"superstep {superstep}",
                        f"superstep {superstep}",
                    )
                )
                return results, traces, report
            for p in alive:
                inbox[p] = None
        elif kind in ("barrier", "commwait"):
            for p in alive:
                inbox[p] = None
        else:
            report.add(
                _diag(
                    "BER041",
                    ERROR,
                    f"unknown collective {kind!r} at superstep {superstep}",
                    f"superstep {superstep}",
                )
            )
            return results, traces, report

    report.add(
        _diag(
            "BER041",
            ERROR,
            f"superstep budget ({_MAX_SUPERSTEPS}) exhausted — the rank "
            "programs livelock",
            "lockstep driver",
        )
    )
    return results, traces, report


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
    under the lockstep driver, validates the materialized gather
    schedules per rank and across ranks, and cross-checks the per-rank
    collective traces.  A clean variant contributes one BER045 info.
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
