"""The headline sweep: random matrices × distributions × variants × plans.

The correctness contract under fault injection is all-or-nothing: a run
either produces *bit-for-bit* the fault-free result (the retry protocol
delivered every payload intact) or raises
:class:`~repro.errors.CommFailureError` — silent wrong answers are the
one forbidden outcome.  The fault-free result itself is checked against
the sequential oracle (dense SpMV / sequential CG), closing the loop back
to the paper's executors.

Case counts: 120 SpMV + 60 CG + 36 happy-path/quiet-parity = 216
randomized cases per run (ISSUE 3 asks for >= 200).
"""

import numpy as np
import pytest

from repro.distribution import MultiBlockDistribution
from repro.errors import CommFailureError
from repro.formats.blocksolve import BlockSolveMatrix
from repro.formats.crs import CRSMatrix
from repro.kernels.spmv import spmv
from repro.parallel.spmd_spmv import SPMV_VARIANTS
from repro.solvers import cg, parallel_cg
from tests.simulation.harness import (
    GENEROUS,
    FaultPlan,
    case_rng,
    random_distribution,
    random_fault_plan,
    random_spd_coo,
    random_square_coo,
    repro_artifact,
    run_parallel_spmv,
)

N_SPMV = 120
N_CG = 60
N_PARITY = 36

# from the registry: row-fragment variants drive the SpMV sweep (the
# harness partitions rows), replicated-ownership ones the CG sweep
SPMV_EXECUTORS = tuple(k for k, v in SPMV_VARIANTS.items() if not v.blocksolve)
CG_VARIANTS = tuple(k for k, v in SPMV_VARIANTS.items() if not v.translated)


# ----------------------------------------------------------------------
# SpMV sweep
# ----------------------------------------------------------------------
@pytest.mark.parametrize("case_id", range(N_SPMV))
def test_spmv_fault_sweep(case_id):
    rng = case_rng(case_id, 1)
    coo = random_square_coo(rng)
    n = coo.shape[0]
    dist_name, dist = random_distribution(rng, n)
    variant = SPMV_EXECUTORS[int(rng.integers(len(SPMV_EXECUTORS)))]
    plan = random_fault_plan(rng, heavy=bool(rng.random() < 0.2))
    x = rng.standard_normal(n)
    case = {
        "test": "spmv",
        "case_id": case_id,
        "n": n,
        "nnz": coo.nnz,
        "dist": dist_name,
        "nprocs": dist.nprocs,
        "variant": variant,
        "plan": plan.to_json(),
    }
    with repro_artifact(case):
        y_ref, _ = run_parallel_spmv(coo, dist, variant, x)
        assert np.allclose(y_ref, coo.to_dense() @ x, atol=1e-9), "oracle mismatch"
        try:
            y, stats = run_parallel_spmv(
                coo, dist, variant, x, faults=plan, delivery=GENEROUS
            )
        except CommFailureError:
            return  # loud failure is an allowed outcome; silence is not
        assert np.array_equal(y, y_ref), "faulted run returned different bits"
        if not plan.quiet:
            assert stats.fault_events is not None


# ----------------------------------------------------------------------
# CG sweep (full solver, all five executor variants)
# ----------------------------------------------------------------------
@pytest.mark.parametrize("case_id", range(N_CG))
def test_cg_fault_sweep(case_id):
    rng = case_rng(case_id, 2)
    coo = random_spd_coo(rng)
    n = coo.shape[0]
    variant = CG_VARIANTS[int(rng.integers(len(CG_VARIANTS)))]
    P = int(rng.integers(2, 5))
    niter = int(rng.integers(2, 6))
    plan = random_fault_plan(rng)
    b = rng.standard_normal(n)
    case = {
        "test": "cg",
        "case_id": case_id,
        "n": n,
        "nnz": coo.nnz,
        "variant": variant,
        "nprocs": P,
        "niter": niter,
        "plan": plan.to_json(),
    }
    with repro_artifact(case):
        ref = parallel_cg(coo, b, nprocs=P, variant=variant, niter=niter)
        seq = cg(CRSMatrix.from_coo(coo), b, diag=coo.diagonal(), maxiter=niter, tol=0.0)
        assert np.allclose(ref.x, seq.x, atol=1e-8), "parallel CG oracle mismatch"
        try:
            res = parallel_cg(
                coo, b, nprocs=P, variant=variant, niter=niter,
                faults=plan, delivery=GENEROUS,
            )
        except CommFailureError:
            return
        assert np.array_equal(res.x, ref.x), "faulted CG returned different bits"
        assert res.residuals == ref.residuals


# ----------------------------------------------------------------------
# happy-path parity: faults disabled and quiet plans change nothing
# ----------------------------------------------------------------------
@pytest.mark.parametrize("case_id", range(N_PARITY))
def test_happy_path_and_quiet_plan_parity(case_id):
    rng = case_rng(case_id, 3)
    coo = random_square_coo(rng)
    n = coo.shape[0]
    dist_name, dist = random_distribution(rng, n)
    variant = SPMV_EXECUTORS[case_id % len(SPMV_EXECUTORS)]
    x = rng.standard_normal(n)
    case = {
        "test": "parity",
        "case_id": case_id,
        "n": n,
        "dist": dist_name,
        "variant": variant,
    }
    with repro_artifact(case):
        # two fault-free runs: identical traffic, identical bits
        y0, s0 = run_parallel_spmv(coo, dist, variant, x)
        y1, s1 = run_parallel_spmv(coo, dist, variant, x)
        assert np.array_equal(y0, y1)
        assert np.array_equal(s0.comm_matrix(), s1.comm_matrix())
        assert s0.total_msgs() == s1.total_msgs()
        assert s0.fault_events == [] and s0.total_retries() == 0
        # a quiet plan (injector installed, nothing to inject) returns the
        # same bits and injects nothing; its only traffic delta is the
        # schedule-validation allreduce of the hardened protocol
        yq, sq = run_parallel_spmv(coo, dist, variant, x, faults=FaultPlan(seed=case_id))
        assert np.array_equal(y0, yq)
        assert sq.fault_events == [] and sq.total_retries() == 0
        extra = sq.total_msgs() - s0.total_msgs()
        assert extra == dist.nprocs  # exactly one validation allreduce
        assert np.allclose(y0, coo.to_dense() @ x, atol=1e-9)


# ----------------------------------------------------------------------
# the multiblock distribution axis (BlockSolve trio) under a fixed plan
# ----------------------------------------------------------------------
@pytest.mark.parametrize("variant", ("blocksolve", "mixed-bs", "global-bs"))
def test_blocksolve_trio_under_faults(variant):
    rng = case_rng(0, 4)
    coo = random_spd_coo(rng)
    bs = BlockSolveMatrix.from_coo(coo)
    P = 3
    dist = MultiBlockDistribution.from_color_classes(bs.clique_ptr, bs.colors, P)
    b = rng.standard_normal(coo.shape[0])
    plan = FaultPlan(seed=11, drop=0.2, duplicate=0.1, reorder=0.4, corrupt=0.1)
    ref = parallel_cg(bs, b, nprocs=P, variant=variant, niter=4, dist=dist)
    res = parallel_cg(
        bs, b, nprocs=P, variant=variant, niter=4, dist=dist,
        faults=plan, delivery=GENEROUS,
    )
    assert np.array_equal(res.x, ref.x)
    assert res.stats.total_retries() > 0 or len(res.stats.fault_events) > 0


def test_sequential_oracle_spmv_agrees_with_kernel():
    """The oracle itself is anchored: dense multiply == compiled SpMV."""
    rng = case_rng(1, 5)
    coo = random_square_coo(rng)
    x = rng.standard_normal(coo.shape[0])
    assert np.allclose(
        spmv(CRSMatrix.from_coo(coo), x), coo.to_dense() @ x, atol=1e-9
    )
