"""Parallel SpMV strategies: every variant must reproduce sequential SpMV."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.distribution import (
    BlockDistribution,
    CyclicDistribution,
    IndirectDistribution,
    MultiBlockDistribution,
)
from repro.formats import BlockSolveMatrix, COOMatrix
from repro.matrices import fem_matrix, stencil_matrix
from repro.parallel import partition_rows
from repro.parallel.spmd_spmv import SPMV_VARIANTS, SpmdSpMV, make_spmv_setup
from repro.runtime import Machine
from tests.conftest import square_coo_matrices
from tests.oracle.relational import fragment

#: the replicated-ownership row-fragment variants, from the registry.  The
#: ids are the names this suite has always printed for them.
BERNOULLI = [
    pytest.param(k, id={"global": "GlobalSpMV", "mixed": "MixedSpMV"}[k])
    for k, v in sorted(SPMV_VARIANTS.items())
    if not (v.blocksolve or v.translated)
]
INDIRECT = [k for k, v in SPMV_VARIANTS.items() if v.translated]


def run_parallel_spmv(coo, dist, variant, x):
    frags = partition_rows(coo, dist)
    m = Machine(dist.nprocs)

    def prog(p):
        strat = make_spmv_setup(variant, p, dist, frags[p])
        yield from strat.setup()
        y = yield from strat.step(x[dist.owned_by(p)])
        return y

    results, stats = m.run(prog)
    y = np.zeros(coo.shape[0])
    for p in range(dist.nprocs):
        y[dist.owned_by(p)] = results[p]
    return y, stats


@pytest.mark.parametrize("cls", BERNOULLI)
@pytest.mark.parametrize("P", [1, 2, 3, 5])
def test_bernoulli_variants_match_dense(cls, P):
    coo = stencil_matrix((4, 4), dof=2, rng=0)
    n = coo.shape[0]
    x = np.linspace(-1, 1, n)
    dist = BlockDistribution(n, P)
    y, _ = run_parallel_spmv(coo, dist, cls, x)
    assert np.allclose(y, coo.to_dense() @ x)


@pytest.mark.parametrize("cls", BERNOULLI)
def test_bernoulli_variants_cyclic_distribution(cls):
    coo = stencil_matrix((3, 3), dof=1)
    n = coo.shape[0]
    x = np.arange(n, dtype=float)
    y, _ = run_parallel_spmv(coo, CyclicDistribution(n, 3), cls, x)
    assert np.allclose(y, coo.to_dense() @ x)


def test_mixed_ghost_structures_smaller_than_global():
    """The structural point of Eq. 24: the naive inspector translates every
    referenced column (ghost structures ∝ problem size); mixed only the
    boundary.  Wire traffic is identical — the waste is translation work."""
    coo = stencil_matrix((6, 6), dof=2, rng=1)
    n = coo.shape[0]
    dist = BlockDistribution(n, 4)
    frags = partition_rows(coo, dist)
    m = Machine(4)

    def prog_for(variant):
        def prog(p):
            strat = make_spmv_setup(variant, p, dist, frags[p])
            yield from strat.setup()
            return strat.sched.nghost

        return prog

    nghost_mixed, _ = m.run(prog_for("mixed"))
    nghost_global, _ = m.run(prog_for("global"))
    for p in range(4):
        assert nghost_global[p] >= nghost_mixed[p] + dist.local_count(p) // 2
    # and the naive ghost set covers (at least) every locally-owned used column
    assert sum(nghost_global) >= n


def test_blocksolve_parallel_spmv():
    m = fem_matrix(points=16, dof=3, rng=2)
    bs = BlockSolveMatrix.from_coo(m)
    P = 3
    dist = MultiBlockDistribution.from_color_classes(bs.clique_ptr, bs.colors, P)
    n = m.shape[0]
    xprime = np.linspace(-2, 2, n)  # x in reordered space
    machine = Machine(P)

    def prog(p):
        strat = make_spmv_setup("blocksolve", p, dist, bs)
        yield from strat.setup()
        y = yield from strat.step(xprime[dist.owned_by(p)])
        return y

    results, _ = machine.run(prog)
    yprime = np.zeros(n)
    for p in range(P):
        yprime[dist.owned_by(p)] = results[p]
    # reordered system: A'[r,c] = A[old(r), old(c)]
    dense = m.to_dense()
    iperm = bs.perm.iperm
    want = dense[np.ix_(iperm, iperm)] @ xprime
    assert np.allclose(yprime, want)


@pytest.mark.parametrize("mixed", [True, False], ids=["mixed", "naive"])
def test_indirect_inspector_builds_schedule(mixed):
    coo = stencil_matrix((4, 4), dof=1)
    n = coo.shape[0]
    dist = IndirectDistribution.random(n, 3, rng=5)
    frags = partition_rows(coo, dist)
    m = Machine(3)

    def prog(p):
        strat = make_spmv_setup("indirect-mixed" if mixed else "indirect", p, dist, frags[p])
        assert strat.translated
        yield from strat.inspect()
        return strat.sched

    results, stats = m.run(prog)
    # naive schedules cover all used columns; mixed only the non-owned
    for p in range(3):
        used_all = frags[p].used_columns()
        owned = set(dist.owned_by(p).tolist())
        nonlocal_used = np.asarray(sorted(set(used_all.tolist()) - owned))
        if mixed:
            assert results[p].ghost_global.tolist() == nonlocal_used.tolist()
        else:
            assert results[p].ghost_global.tolist() == used_all.tolist()
    assert stats.total_msgs() > 0


@pytest.mark.parametrize("variant", INDIRECT)
def test_indirect_executor_matches_dense(variant):
    """The Chaos variants get the shared executor: ownership through the
    translation table, the same y = A·x."""
    coo = stencil_matrix((4, 4), dof=2, rng=3)
    n = coo.shape[0]
    x = np.linspace(-1, 1, n)
    dist = IndirectDistribution.random(n, 3, rng=5)
    y, stats = run_parallel_spmv(coo, dist, variant, x)
    assert np.allclose(y, coo.to_dense() @ x)
    spec = SPMV_VARIANTS[variant].terms
    twin = next(k for k, v in SPMV_VARIANTS.items() if v.terms is spec and not v.translated)
    y_rep, stats_rep = run_parallel_spmv(coo, dist, twin, x)
    assert np.array_equal(y, y_rep)  # same statements, same bits
    assert stats.total_msgs() > stats_rep.total_msgs()  # the table is not free


def test_make_spmv_setup_dispatch():
    coo = stencil_matrix((3, 3))
    dist = BlockDistribution(coo.shape[0], 2)
    frags = partition_rows(coo, dist)
    for variant in ("global", "mixed"):
        strat = make_spmv_setup(variant, 0, dist, frags[0])
        assert isinstance(strat, SpmdSpMV) and strat.variant == variant
    with pytest.raises(KeyError):
        make_spmv_setup("zzz", 0, dist, frags[0])


def test_fragment_relation_view():
    coo = stencil_matrix((3, 3))
    dist = BlockDistribution(coo.shape[0], 2)
    frag = partition_rows(coo, dist)[0]
    rel = fragment(frag)
    assert rel.fields == ("ip", "j", "a")
    assert len(rel) == frag.matrix.nnz


def test_fragments_reassemble_global_matrix():
    """The fragmentation equation (Eq. 15): ⋃_p translate(A^(p)) == A."""
    coo = stencil_matrix((4, 3), dof=2, rng=7)
    dist = CyclicDistribution(coo.shape[0], 3)
    frags = partition_rows(coo, dist)
    parts = []
    for p, frag in enumerate(frags):
        g = dist.owned_by(p)
        parts.append((g[frag.matrix.row], frag.matrix.col, frag.matrix.vals))
    rebuilt = COOMatrix.from_entries(
        coo.shape,
        np.concatenate([a for a, _, _ in parts]),
        np.concatenate([b for _, b, _ in parts]),
        np.concatenate([c for _, _, c in parts]),
    )
    assert rebuilt == coo


@given(square_coo_matrices(max_n=9), st.integers(1, 4))
@settings(max_examples=20, deadline=None)
def test_parallel_spmv_property(coo, P):
    n = coo.shape[0]
    x = np.linspace(0, 1, n)
    for variant in ("global", "mixed"):
        y, _ = run_parallel_spmv(coo, BlockDistribution(n, P), variant, x)
        assert np.allclose(y, coo.to_dense() @ x, atol=1e-9)
