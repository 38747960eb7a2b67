"""Shared machinery for the randomized fault-injection oracle harness.

Every test in ``tests/simulation`` derives its cases from one base seed:

* the default (``DEFAULT_SEED``) is pinned, so the per-push CI job and
  local runs are reproducible byte for byte,
* ``REPRO_SIM_SEED`` overrides it — the nightly CI job passes a
  date-derived value so the sweep keeps exploring new cases,
* when a case fails, its full description (base seed, case id, matrix,
  distribution, variant, fault plan JSON) is written to
  ``REPRO_SIM_ARTIFACT`` (default ``/tmp/faultplan_repro.json``) and the
  failure is re-raised; CI uploads that file.  Replaying is one command:
  ``REPRO_SIM_SEED=<seed> pytest tests/simulation -q``.

Case material is drawn from independent ``default_rng([seed, case_id])``
streams, so adding or reordering cases never changes existing ones.
"""

from __future__ import annotations

import json
import os
from contextlib import contextmanager

import numpy as np

from repro.distribution import (
    BlockDistribution,
    CyclicDistribution,
    IndirectDistribution,
)
from repro.formats.coo import COOMatrix
from repro.matrices import stencil_matrix
from repro.parallel import partition_rows
from repro.parallel.spmd_spmv import make_spmv_setup
from repro.runtime import DeliveryConfig, FaultPlan, Machine

DEFAULT_SEED = 19970101  # pinned: the paper's year, SC '97


def base_seed() -> int:
    return int(os.environ.get("REPRO_SIM_SEED", DEFAULT_SEED))


def artifact_path() -> str:
    return os.environ.get("REPRO_SIM_ARTIFACT", "/tmp/faultplan_repro.json")


def case_rng(case_id: int, *extra: int) -> np.random.Generator:
    return np.random.default_rng([base_seed(), int(case_id), *map(int, extra)])


@contextmanager
def repro_artifact(case: dict):
    """Dump a replayable case description on failure, then re-raise."""
    try:
        yield
    except BaseException as exc:
        doc = dict(case)
        doc["base_seed"] = base_seed()
        doc["error"] = f"{type(exc).__name__}: {exc}"
        try:
            with open(artifact_path(), "w") as f:
                json.dump(doc, f, indent=1, sort_keys=True, default=str)
        except OSError:
            pass
        raise


# ----------------------------------------------------------------------
# randomized case material
# ----------------------------------------------------------------------
def random_square_coo(rng: np.random.Generator, max_n: int = 24) -> COOMatrix:
    """Random square matrix with a full diagonal (so every rank owns work
    and Mixed/Global splits are nontrivial)."""
    n = int(rng.integers(4, max_n + 1))
    nnz_extra = int(rng.integers(0, 4 * n))
    r = rng.integers(0, n, size=nnz_extra)
    c = rng.integers(0, n, size=nnz_extra)
    v = rng.standard_normal(nnz_extra)
    rows = np.concatenate([np.arange(n), r])
    cols = np.concatenate([np.arange(n), c])
    vals = np.concatenate([rng.uniform(1.0, 2.0, n), v])
    return COOMatrix.from_entries((n, n), rows, cols, vals)


def random_spd_coo(rng: np.random.Generator) -> COOMatrix:
    """Small SPD matrix for CG: a 2-D stencil (symmetric, diagonally
    dominant) with randomized extent and dof."""
    shape = (int(rng.integers(2, 5)), int(rng.integers(2, 5)))
    dof = int(rng.integers(1, 3))
    return stencil_matrix(shape, dof=dof, rng=int(rng.integers(2**31)))


def random_distribution(rng: np.random.Generator, n: int, name: str | None = None):
    """One of the replicated distribution classes over [0, n)."""
    P = int(rng.integers(2, 5))
    name = name or ["block", "cyclic", "indirect"][int(rng.integers(3))]
    if name == "block":
        return name, BlockDistribution(n, P)
    if name == "cyclic":
        return name, CyclicDistribution(n, P)
    return name, IndirectDistribution.random(n, P, rng=int(rng.integers(2**31)))


def random_fault_plan(rng: np.random.Generator, heavy: bool = False) -> FaultPlan:
    """A seeded plan with a random subset of fault kinds switched on."""
    hi = 0.5 if heavy else 0.25
    mask = rng.random(5)
    return FaultPlan(
        seed=int(rng.integers(2**31)),
        drop=float(rng.uniform(0, hi)) if mask[0] < 0.7 else 0.0,
        duplicate=float(rng.uniform(0, hi)) if mask[1] < 0.5 else 0.0,
        reorder=float(rng.uniform(0, 0.8)) if mask[2] < 0.5 else 0.0,
        corrupt=float(rng.uniform(0, hi)) if mask[3] < 0.5 else 0.0,
        stall=float(rng.uniform(0, 0.2)) if mask[4] < 0.3 else 0.0,
        corrupt_schedule=(
            ((int(rng.integers(4)), int(rng.integers(3))),)
            if rng.random() < 0.25
            else ()
        ),
    )


# ----------------------------------------------------------------------
# runners
# ----------------------------------------------------------------------
def run_parallel_spmv(coo, dist, variant: str, x, faults=None, delivery=None, comm=None):
    """One distributed y = A·x on the simulated machine; returns (y, stats).

    ``comm`` is an optional :class:`~repro.runtime.comm.CommOptions`
    threaded to the per-rank executors (None keeps the defaults).
    """
    frags = partition_rows(coo, dist)
    machine = Machine(dist.nprocs, faults=faults, delivery=delivery)

    def prog(p):
        strat = make_spmv_setup(variant, p, dist, frags[p], opts=comm)
        yield ("phase", "inspector")
        yield from strat.setup()
        yield ("phase", "executor")
        y = yield from strat.step(x[dist.owned_by(p)])
        return y

    results, stats = machine.run(prog)
    y = np.zeros(coo.shape[0])
    for p in range(dist.nprocs):
        y[dist.owned_by(p)] = results[p]
    return y, stats


GENEROUS = DeliveryConfig(max_retries=25)
