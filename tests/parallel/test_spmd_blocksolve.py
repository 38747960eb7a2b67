"""The Table-2 trio: library, compiled-mixed, compiled-global — all three
must compute the same product over the same BlockSolve structures."""

import numpy as np
import pytest

from repro.distribution import MultiBlockDistribution
from repro.formats import BlockSolveMatrix
from repro.matrices import fem_matrix, stencil_matrix
from repro.parallel.spmd_blocksolve import BSFragments
from repro.parallel.spmd_spmv import SPMV_VARIANTS, make_spmv_setup
from repro.runtime import Machine

#: the BlockSolve-structure variants, from the registry.  The ids are the
#: names this suite has always printed for them.
_IDS = {"blocksolve": "BlockSolveSpMV", "mixed-bs": "BernoulliMixedBS", "global-bs": "BernoulliGlobalBS"}
TRIO = [pytest.param(k, id=_IDS[k]) for k, v in SPMV_VARIANTS.items() if v.blocksolve]


def build_bs(points=14, dof=3, rng=0):
    m = fem_matrix(points=points, dof=dof, rng=rng)
    bs = BlockSolveMatrix.from_coo(m)
    return m, bs


def run_variant(cls, bs, P, xprime):
    dist = MultiBlockDistribution.from_color_classes(bs.clique_ptr, bs.colors, P)
    machine = Machine(P)
    strategies = [make_spmv_setup(cls, p, dist, bs) for p in range(P)]

    def prog(p):
        yield from strategies[p].setup()
        y = yield from strategies[p].step(xprime[dist.owned_by(p)])
        return y

    results, stats = machine.run(prog)
    n = bs.shape[0]
    y = np.zeros(n)
    for p in range(P):
        y[dist.owned_by(p)] = results[p]
    return y, stats, strategies


@pytest.mark.parametrize("cls", TRIO, ids=lambda c: c.__name__)
@pytest.mark.parametrize("P", [1, 2, 3])
def test_trio_matches_dense(cls, P):
    m, bs = build_bs()
    n = m.shape[0]
    xprime = np.linspace(-1, 1, n)
    y, _, _ = run_variant(cls, bs, P, xprime)
    iperm = bs.perm.iperm
    want = m.to_dense()[np.ix_(iperm, iperm)] @ xprime
    assert np.allclose(y, want)


@pytest.mark.parametrize("cls", TRIO, ids=lambda c: c.__name__)
def test_trio_on_stencil_problem(cls):
    """The paper's actual workload: 3-D 7-point stencil with dof unknowns."""
    m = stencil_matrix((3, 3, 2), dof=5, rng=0)
    bs = BlockSolveMatrix.from_coo(m)
    n = m.shape[0]
    xprime = np.cos(np.arange(n, dtype=float))
    y, _, _ = run_variant(cls, bs, 2, xprime)
    iperm = bs.perm.iperm
    want = m.to_dense()[np.ix_(iperm, iperm)] @ xprime
    assert np.allclose(y, want)


def test_global_ghosts_cover_everything_mixed_only_boundary():
    _, bs = build_bs(points=20, dof=3, rng=1)
    n = bs.shape[0]
    P = 4
    x = np.ones(n)
    _, _, strat_mixed = run_variant("mixed-bs", bs, P, x)
    _, _, strat_global = run_variant("global-bs", bs, P, x)
    for p in range(P):
        # the naive inspector's ghost set is strictly larger: it includes
        # every locally-owned column the fragment touches
        assert strat_global[p].sched.nghost > strat_mixed[p].sched.nghost


def test_fragments_decompose_matrix():
    """A_D + A_SL + A_SNL (all back in global cols) == all my rows of A'."""
    m, bs = build_bs(points=12, dof=2, rng=2)
    n = bs.shape[0]
    P = 3
    dist = MultiBlockDistribution.from_color_classes(bs.clique_ptr, bs.colors, P)
    dense_re = m.to_dense()[np.ix_(bs.perm.iperm, bs.perm.iperm)]
    for p in range(P):
        fr = BSFragments(p, dist, bs)
        mine = dist.owned_by(p)
        want = dense_re[mine, :]
        got = fr.A_D_ino.to_dense() + fr.off_global.to_dense()
        assert np.allclose(got, want)
        # the SL/SNL split partitions the off-diagonal part by ownership
        split = fr.A_SNL_global.to_dense()
        sl_global = np.zeros((fr.nlocal, n))
        if fr.nlocal:
            sl_global[:, mine] = fr.A_SL.to_dense()[:, : fr.nlocal]
        assert np.allclose(sl_global + split, fr.off_global.to_dense())


def test_empty_rank_is_handled():
    """More processors than cliques: some ranks own nothing."""
    m, bs = build_bs(points=2, dof=2, rng=3)
    n = bs.shape[0]
    x = np.arange(n, dtype=float)
    for cls in _IDS:
        y, _, _ = run_variant(cls, bs, 4, x)
        iperm = bs.perm.iperm
        want = m.to_dense()[np.ix_(iperm, iperm)] @ x
        assert np.allclose(y, want)


def test_no_overlap_between_ranks_means_no_ghosts():
    """A (block-)diagonal matrix has no cross-rank coupling: neighboring
    ranks share nothing, the mixed inspector finds an empty ghost set, and
    the executor exchanges zero messages — yet the answer is exact."""
    from repro.formats import COOMatrix

    n = 12
    d = np.arange(1.0, n + 1)
    m = COOMatrix.from_entries((n, n), np.arange(n), np.arange(n), d)
    bs = BlockSolveMatrix.from_coo(m)
    x = np.linspace(-2, 2, n)
    for P in (2, 3):
        y, stats, strats = run_variant("mixed-bs", bs, P, x)
        iperm = bs.perm.iperm
        want = m.to_dense()[np.ix_(iperm, iperm)] @ x
        assert np.allclose(y, want)
        for p in range(P):
            assert strats[p].sched.nghost == 0
        # executor phase moves no data between ranks
        assert stats.total_msgs() == 0
        assert not stats.comm_matrix().any()
    # the library variant agrees on the same degenerate structure
    y_lib, stats_lib, _ = run_variant("blocksolve", bs, 2, x)
    assert np.allclose(y_lib, m.to_dense()[np.ix_(iperm, iperm)] @ x)
    assert stats_lib.total_msgs() == 0


@pytest.mark.parametrize("cls", TRIO, ids=lambda c: c.__name__)
def test_single_rank_degenerates_to_sequential(cls):
    """nprocs=1: the SPMD executor is the sequential SpMV — same bits,
    no network traffic, and every ghost is resolved locally."""
    m, bs = build_bs(points=10, dof=2, rng=5)
    n = bs.shape[0]
    x = np.sin(np.arange(n, dtype=float))
    y, stats, strats = run_variant(cls, bs, 1, x)
    iperm = bs.perm.iperm
    want = m.to_dense()[np.ix_(iperm, iperm)] @ x
    assert np.allclose(y, want)
    assert stats.total_msgs() == 0
    assert stats.total_nbytes() == 0
    assert not stats.comm_matrix().any()
    # one rank owns everything: the schedule has no remote peers
    sched = strats[0].sched
    assert not sched.send_locals and not sched.recv_slots
