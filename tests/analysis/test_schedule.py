"""SPMD schedule checker: every registry variant clean, seeded deadlocks caught."""

import numpy as np
import pytest

from repro.analysis.schedule import (
    check_gather_schedules,
    check_local_schedule,
    check_spmv_strategies,
    trace_collectives,
    verify_rebuilt_schedule,
)
from repro.distribution import BlockDistribution
from repro.matrices import stencil_matrix
from repro.parallel import partition_rows
from repro.parallel.spmd_spmv import SPMV_VARIANTS, make_spmv_setup
from repro.runtime.machine import Machine


def codes(report):
    return sorted({d.code for d in report.errors()})


def _schedules(P=3):
    """Real per-rank schedules from a ``mixed`` setup."""
    coo = stencil_matrix((4, 4), dof=1, rng=0)
    dist = BlockDistribution(coo.shape[0], P)
    frags = partition_rows(coo, dist)
    strategies = [make_spmv_setup("mixed", p, dist, frags[p]) for p in range(P)]

    def prog(p):
        yield from strategies[p].setup()

    Machine(P).run(prog)
    return [s.sched for s in strategies], [s.nlocal for s in strategies], strategies


# ----------------------------------------------------------------------
# the real strategies verify clean
# ----------------------------------------------------------------------
def test_every_registry_variant_verifies_clean():
    report = check_spmv_strategies(nprocs=3, niter=2)
    assert report.ok, report.render("error")
    # one clean info per registry entry
    clean = [d.location for d in report.by_code("BER045")]
    assert clean == [f"strategy {name}" for name in SPMV_VARIANTS]


def test_real_schedules_pass_structural_checks():
    scheds, nlocals, _ = _schedules()
    assert check_gather_schedules(scheds, nlocals=nlocals).ok


# ----------------------------------------------------------------------
# seeded schedule defects
# ----------------------------------------------------------------------
def test_dropped_recv_is_a_send_recv_mismatch():
    scheds, nlocals, _ = _schedules()
    victim = next(s for s in scheds if s.recv_slots)
    peer = sorted(victim.recv_slots)[0]
    del victim.recv_slots[peer]
    rep = check_gather_schedules(scheds, nlocals=nlocals)
    assert "BER040" in codes(rep)
    assert "BER042" in codes(rep)  # the dropped packet's slots go unfilled


def test_truncated_send_list_is_caught():
    scheds, nlocals, _ = _schedules()
    victim = next(s for s in scheds if s.send_locals)
    peer = sorted(victim.send_locals)[0]
    victim.send_locals[peer] = victim.send_locals[peer][:-1]
    rep = check_gather_schedules(scheds, nlocals=nlocals)
    assert codes(rep) == ["BER040"]


def test_unsorted_ghost_directory_is_caught():
    scheds, nlocals, _ = _schedules()
    victim = next(s for s in scheds if s.nghost >= 2)
    victim.ghost_global = victim.ghost_global[::-1].copy()
    rep = check_local_schedule(victim, nlocal=None)
    assert codes(rep) == ["BER043"]


def test_out_of_range_slot_is_caught():
    scheds, _, _ = _schedules()
    victim = next(s for s in scheds if s.recv_slots)
    peer = sorted(victim.recv_slots)[0]
    slots = victim.recv_slots[peer].copy()
    slots[0] = victim.nghost + 7
    victim.recv_slots[peer] = slots
    rep = check_local_schedule(victim)
    assert "BER043" in codes(rep)
    assert "BER042" in codes(rep)  # the true slot is now uncovered


def test_rebuild_checksum_mismatch_is_ber044():
    scheds, _, strategies = _schedules()
    strat = strategies[0]
    rebuilt = scheds[0]
    rebuilt.ghost_global = rebuilt.ghost_global.copy()
    if rebuilt.nghost:
        rebuilt.ghost_global[0] -= 1
    else:  # degenerate: force a fingerprint difference another way
        strat._sched_sum += 1
    rep = verify_rebuilt_schedule(strat, rebuilt)
    assert "BER044" in codes(rep)


def test_rebuild_matching_fingerprint_verifies():
    _, _, strategies = _schedules()
    strat = next(s for s in strategies if s.sched.nghost)
    assert verify_rebuilt_schedule(strat, strat.sched).ok


# ----------------------------------------------------------------------
# collective lockstep driver
# ----------------------------------------------------------------------
def test_lockstep_clean_run_routes_all_collectives():
    def prog(p):
        yield ("phase", "setup")
        got = yield ("alltoallv", {1 - p: np.array([float(p)])})
        total = yield ("allreduce", got[1 - p][0])
        everyone = yield ("allgather", p)
        yield ("barrier", None)
        return total, everyone

    results, traces, report = trace_collectives(prog, 2)
    assert report.ok
    assert results[0] == (1.0, [0, 1]) and results[1] == (1.0, [0, 1])
    assert [k for k, _ in traces[0]] == [
        "phase",
        "alltoallv",
        "allreduce",
        "allgather",
        "barrier",
    ]


def test_missing_collective_on_one_rank_is_caught():
    # the acceptance defect: one strategy variant omits one collective —
    # rank 1 skips the allreduce every other rank issues
    def prog(p):
        yield ("barrier", None)
        if p != 1:
            yield ("allreduce", 1)
        yield ("barrier", None)

    _, _, report = trace_collectives(prog, 3)
    assert codes(report) == ["BER041"]


def test_premature_finish_is_caught():
    def prog(p):
        yield ("barrier", None)
        if p == 0:
            return 0
        yield ("allreduce", 1)
        return 1

    _, _, report = trace_collectives(prog, 2)
    assert codes(report) == ["BER041"]
    assert "deadlock" in report.errors()[0].message


def test_mismatched_phase_labels_are_caught():
    def prog(p):
        yield ("phase", f"window-{p}")

    _, _, report = trace_collectives(prog, 2)
    assert codes(report) == ["BER041"]


def test_bad_destination_is_caught():
    def prog(p):
        yield ("alltoallv", {99: np.zeros(1)})

    _, _, report = trace_collectives(prog, 2)
    assert codes(report) == ["BER040"]


# ----------------------------------------------------------------------
# fault-recovery integration: rebuilds pass through the checker
# ----------------------------------------------------------------------
def test_fault_recovery_reverifies_rebuilt_schedule():
    from repro.runtime.faults import FaultPlan

    coo = stencil_matrix((4, 4), dof=1, rng=1)
    P = 2
    dist = BlockDistribution(coo.shape[0], P)
    frags = partition_rows(coo, dist)
    plan = FaultPlan(seed=3, corrupt_schedule=((0, 0),))
    m = Machine(P, faults=plan)

    x = np.arange(coo.shape[0], dtype=float)

    def prog(p):
        strat = make_spmv_setup("mixed", p, dist, frags[p])
        yield from strat.setup()
        y = yield from strat.step(x[dist.owned_by(p)])
        return y

    results, _ = m.run(prog)
    y = np.zeros(coo.shape[0])
    for p in range(P):
        y[dist.owned_by(p)] = results[p]
    assert np.allclose(y, coo.to_dense() @ x)
