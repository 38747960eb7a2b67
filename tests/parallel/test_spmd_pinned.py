"""The SPMD path's bits and counts, pinned.

Every ``SPMV_VARIANTS`` row runs ``parallel_cg`` on a small 3-D stencil
(dof 3) at P = 1, 2, 4, 8, under its default distribution and under one
whose owned rows are not contiguous (the row fragments also under one
whose local offsets run against the global order).  The iterate's sha256
and the run's message and byte counts must repeat exactly: a change to
how the set-up carves, converts or renumbers the matrix may move time,
never a bit or a message.  Run this file as a script to print the table
afresh.  The statements ``localize()`` runs are also checked array for
array against the COO split converted to CRS.
"""

import hashlib

import numpy as np
import pytest

from repro.distribution import BlockDistribution, CyclicDistribution, MultiBlockDistribution
from repro.formats import BlockSolveMatrix, COOMatrix, CRSMatrix
from repro.matrices import stencil_matrix
from repro.parallel import SPMV_VARIANTS, make_spmv_setup, partition_rows
from repro.runtime import Machine
from repro.solvers import parallel_cg

NITER = 6
PROCS = (1, 2, 4, 8)

# (variant, P, distribution) -> (sha256 of x, 16 hex digits; msgs; bytes)
PINNED = {
    ('mixed', 1, 'default'): ('7a33c26a282c7d9d', 13, 168),
    ('mixed', 1, 'scattered'): ('7a33c26a282c7d9d', 13, 168),
    ('mixed', 1, 'descending'): ('e0a0aca33a5d4c7c', 13, 168),
    ('mixed', 2, 'default'): ('630f9f0e5e7bbf37', 40, 4368),
    ('mixed', 2, 'scattered'): ('9a5b5df9203afe3f', 40, 8400),
    ('mixed', 2, 'descending'): ('17778eb86a76a373', 40, 4368),
    ('mixed', 4, 'default'): ('9eaea6013edb1d4b', 94, 12768),
    ('mixed', 4, 'scattered'): ('b94e9e66e2a88c81', 136, 24864),
    ('mixed', 4, 'descending'): ('20d9334e080560d1', 94, 12768),
    ('mixed', 8, 'default'): ('c0cb3585be4f0ce6', 244, 17472),
    ('mixed', 8, 'scattered'): ('504f5afd6721d590', 496, 56448),
    ('mixed', 8, 'descending'): ('0dc62689ae48cec1', 244, 17472),
    ('global', 1, 'default'): ('7a33c26a282c7d9d', 13, 168),
    ('global', 1, 'scattered'): ('7a33c26a282c7d9d', 13, 168),
    ('global', 1, 'descending'): ('01731bcadfcd9b27', 13, 168),
    ('global', 2, 'default'): ('bfef7cada41236c6', 40, 4368),
    ('global', 2, 'scattered'): ('42b7652517cb6c5e', 40, 8400),
    ('global', 2, 'descending'): ('349e5dbadac32314', 40, 4368),
    ('global', 4, 'default'): ('e456a6ac2be5ac68', 94, 12768),
    ('global', 4, 'scattered'): ('8c0d21c57e75a303', 136, 24864),
    ('global', 4, 'descending'): ('32c707d987e076cb', 94, 12768),
    ('global', 8, 'default'): ('1f47d7ee45b65c5d', 244, 17472),
    ('global', 8, 'scattered'): ('08d580beb293fc39', 496, 56448),
    ('global', 8, 'descending'): ('cdbb46367d9262a4', 244, 17472),
    ('blocksolve', 1, 'default'): ('6a86b34a37118954', 13, 168),
    ('blocksolve', 1, 'scattered'): ('6a86b34a37118954', 13, 168),
    ('blocksolve', 2, 'default'): ('be8f15eeddb99ae2', 40, 4368),
    ('blocksolve', 2, 'scattered'): ('a8aa22f24bca9680', 40, 8400),
    ('blocksolve', 4, 'default'): ('ad3cc682b3323240', 94, 12768),
    ('blocksolve', 4, 'scattered'): ('546e42cf74966c48', 136, 20832),
    ('blocksolve', 8, 'default'): ('be22562aa4dd2d25', 244, 17472),
    ('blocksolve', 8, 'scattered'): ('ba2173d6a93915a1', 328, 26880),
    ('mixed-bs', 1, 'default'): ('fa2c13ad53aa2f8e', 13, 168),
    ('mixed-bs', 1, 'scattered'): ('fa2c13ad53aa2f8e', 13, 168),
    ('mixed-bs', 2, 'default'): ('91f0ac619966f038', 40, 4368),
    ('mixed-bs', 2, 'scattered'): ('61d6972d5401a762', 40, 8400),
    ('mixed-bs', 4, 'default'): ('74f6b2a9ec63dc13', 94, 12768),
    ('mixed-bs', 4, 'scattered'): ('8d9106300541076b', 136, 20832),
    ('mixed-bs', 8, 'default'): ('99c674153038506c', 244, 17472),
    ('mixed-bs', 8, 'scattered'): ('f843368c610a1727', 328, 26880),
    ('global-bs', 1, 'default'): ('fa2c13ad53aa2f8e', 13, 168),
    ('global-bs', 1, 'scattered'): ('fa2c13ad53aa2f8e', 13, 168),
    ('global-bs', 2, 'default'): ('e8a7df136dae423b', 40, 4368),
    ('global-bs', 2, 'scattered'): ('06b2db3397c2738c', 40, 8400),
    ('global-bs', 4, 'default'): ('273652c17945a556', 94, 12768),
    ('global-bs', 4, 'scattered'): ('f45fa8a1ffc83c0d', 136, 20832),
    ('global-bs', 8, 'default'): ('f9c5f901f02e2042', 244, 17472),
    ('global-bs', 8, 'scattered'): ('9be0681e419e3ae8', 328, 26880),
    ('indirect-mixed', 1, 'default'): ('7a33c26a282c7d9d', 13, 168),
    ('indirect-mixed', 1, 'scattered'): ('7a33c26a282c7d9d', 13, 168),
    ('indirect-mixed', 1, 'descending'): ('e0a0aca33a5d4c7c', 13, 168),
    ('indirect-mixed', 2, 'default'): ('630f9f0e5e7bbf37', 44, 6096),
    ('indirect-mixed', 2, 'scattered'): ('9a5b5df9203afe3f', 46, 11280),
    ('indirect-mixed', 2, 'descending'): ('17778eb86a76a373', 44, 6096),
    ('indirect-mixed', 4, 'default'): ('9eaea6013edb1d4b', 106, 17952),
    ('indirect-mixed', 4, 'scattered'): ('b94e9e66e2a88c81', 172, 34368),
    ('indirect-mixed', 4, 'descending'): ('20d9334e080560d1', 106, 17952),
    ('indirect-mixed', 8, 'default'): ('c0cb3585be4f0ce6', 284, 24384),
    ('indirect-mixed', 8, 'scattered'): ('504f5afd6721d590', 664, 79056),
    ('indirect-mixed', 8, 'descending'): ('0dc62689ae48cec1', 284, 24384),
    ('indirect', 1, 'default'): ('7a33c26a282c7d9d', 13, 168),
    ('indirect', 1, 'scattered'): ('7a33c26a282c7d9d', 13, 168),
    ('indirect', 1, 'descending'): ('01731bcadfcd9b27', 13, 168),
    ('indirect', 2, 'default'): ('bfef7cada41236c6', 44, 6096),
    ('indirect', 2, 'scattered'): ('42b7652517cb6c5e', 46, 13008),
    ('indirect', 2, 'descending'): ('349e5dbadac32314', 44, 6096),
    ('indirect', 4, 'default'): ('e456a6ac2be5ac68', 106, 17952),
    ('indirect', 4, 'scattered'): ('8c0d21c57e75a303', 172, 36960),
    ('indirect', 4, 'descending'): ('32c707d987e076cb', 106, 17952),
    ('indirect', 8, 'default'): ('1f47d7ee45b65c5d', 284, 24384),
    ('indirect', 8, 'scattered'): ('08d580beb293fc39', 664, 82080),
    ('indirect', 8, 'descending'): ('cdbb46367d9262a4', 284, 24384),
}


def _system():
    coo = stencil_matrix((4, 4, 3), dof=3, rng=0)
    b = np.random.default_rng(54).standard_normal(coo.shape[0])
    return coo, BlockSolveMatrix.from_coo(coo), b


class DescendingBlocks(BlockDistribution):
    """BLOCK ownership with each block's local offsets numbered from its
    end: owned rows are contiguous but not ascending."""

    def local_index(self, i):
        i = np.asarray(i)
        p = self.owner(i)
        end = np.where(p == self.nprocs - 1, self.nglobal, np.minimum((p + 1) * self.block, self.nglobal))
        return end - 1 - i

    def owned_by(self, p: int) -> np.ndarray:
        return super().owned_by(p)[::-1].copy()


def _distribution(kind, variant, nprocs, bs):
    """None for the variant's default; else owned rows that are not one
    contiguous range (cyclic rows, or whole cliques dealt round-robin for
    BlockSolve), or not ascending."""
    n = bs.shape[0]
    if kind == "descending":
        return DescendingBlocks(n, nprocs)
    if kind == "default":
        return None
    if not SPMV_VARIANTS[variant].blocksolve:
        return CyclicDistribution(n, nprocs)
    ptr = bs.clique_ptr
    return MultiBlockDistribution([(int(ptr[k]), int(ptr[k + 1]), k % nprocs) for k in range(len(ptr) - 1)], nprocs)


def _run(variant, nprocs, kind, system):
    coo, bs, b = system
    A = bs if SPMV_VARIANTS[variant].blocksolve else coo
    res = parallel_cg(A, b, nprocs, variant, niter=NITER, dist=_distribution(kind, variant, nprocs, bs))
    digest = hashlib.sha256(np.ascontiguousarray(res.x).tobytes()).hexdigest()[:16]
    return digest, res.stats.total_msgs(), res.stats.total_nbytes()


CASES = [
    (v, p, k)
    for v in SPMV_VARIANTS
    for p in PROCS
    for k in ("default", "scattered") + (() if SPMV_VARIANTS[v].blocksolve else ("descending",))
]


@pytest.fixture(scope="module")
def system():
    return _system()


@pytest.mark.parametrize("variant,nprocs,kind", CASES)
def test_spmd_bits_and_counts_repeat(variant, nprocs, kind, system):
    assert _run(variant, nprocs, kind, system) == PINNED[(variant, nprocs, kind)]



# ----------------------------------------------------------------------
# the terms are born CRS: array for array what the COO split converted to
# ----------------------------------------------------------------------
def _coo_split(frag):
    """The ``mixed`` split as COO statements, columns global."""
    m = frag.matrix
    col_local = np.full(m.shape[1], -1, dtype=np.int64)
    col_local[frag.rows_global] = np.arange(frag.nlocal)
    cols = col_local[m.col]
    mine = cols >= 0
    local = COOMatrix((frag.nlocal, max(1, frag.nlocal)), m.row[mine], cols[mine], m.vals[mine])
    return local, COOMatrix(m.shape, m.row[~mine], m.col[~mine], m.vals[~mine])


def _assert_same_crs(got, want):
    assert got.shape == want.shape
    for name in ("rowptr", "colind", "vals"):
        a, b = getattr(got, name), getattr(want, name)
        assert a.dtype == b.dtype and np.array_equal(a, b), name


@pytest.mark.parametrize("make_dist", [BlockDistribution, CyclicDistribution, DescendingBlocks])
@pytest.mark.parametrize("nprocs", [1, 3])
def test_localized_terms_equal_the_converted_coo_split(make_dist, nprocs, system):
    coo = system[0]
    dist = make_dist(coo.shape[0], nprocs)
    frags = partition_rows(coo, dist)
    strategies = {
        v: [make_spmv_setup(v, p, dist, frags[p]) for p in range(nprocs)] for v in ("mixed", "global")
    }
    Machine(nprocs).run(lambda p: (yield from strategies["mixed"][p].setup()))
    for p, frag in enumerate(frags):
        s = strategies["mixed"][p]
        xmap = np.zeros(coo.shape[0], dtype=np.int64)
        xmap[s._used] = s.sched.ghost_slot_of(s._used)
        nghost = max(1, s.sched.nghost)
        local, ghost = _coo_split(frag)
        ghost = COOMatrix((frag.nlocal, nghost), ghost.row, xmap[ghost.col], ghost.vals)
        assert [t.reads for t in s.terms] == ["local", "ghost"]
        got_local, got_ghost = (t.A for t in s.terms)
        _assert_same_crs(got_local, CRSMatrix.from_coo(local.canonicalized()))
        _assert_same_crs(got_ghost.remap_columns(xmap, nghost), CRSMatrix.from_coo(ghost.canonicalized()))
        (whole,) = strategies["global"][p].terms
        _assert_same_crs(whole.A, CRSMatrix.from_coo(frag.matrix))


if __name__ == "__main__":
    s = _system()
    for case in CASES:
        print(f"    {case!r}: {_run(*case, s)!r},")
