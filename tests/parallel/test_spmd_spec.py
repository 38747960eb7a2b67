"""The specification-driven executor: one inspector/executor, seven term
lists.  Equivalence with the six hand-written classes it replaced is
pinned here as numbers recorded from them."""

import numpy as np
import pytest

from repro.compiler import compile_kernel
from repro.distribution import BlockDistribution, MultiBlockDistribution
from repro.errors import InspectorError
from repro.formats import BlockSolveMatrix, COOMatrix, CRSMatrix, DenseVector
from repro.formats.translated import TranslatedVector
from repro.kernels.spmv import SPMV_SRC
from repro.matrices import fem_matrix
from repro.parallel import SPMV_VARIANTS, Term, make_spmv_setup, partition_rows
from repro.parallel import spmd_spmv
from repro.runtime import Machine
from repro.runtime.schedule_cache import ScheduleCache
from repro.solvers import parallel_cg

SOLVER_VARIANTS = [k for k, v in SPMV_VARIANTS.items() if not v.translated]


def _layout(variant, coo, bs, P):
    """(dist, per-rank data) the way ``parallel_cg`` lays ``variant`` out."""
    if SPMV_VARIANTS[variant].blocksolve:
        dist = MultiBlockDistribution.from_color_classes(bs.clique_ptr, bs.colors, P)
        return dist, [bs] * P
    dist = BlockDistribution(coo.shape[0], P)
    return dist, partition_rows(coo, dist)


@pytest.fixture(scope="module")
def problem():
    coo = fem_matrix(points=90, dof=2, rng=7)
    return coo, BlockSolveMatrix.from_coo(coo), np.random.default_rng(3).standard_normal(coo.shape[0])


def test_registry_is_the_variant_list():
    assert list(SPMV_VARIANTS) == [
        "mixed", "global", "blocksolve", "mixed-bs", "global-bs", "indirect-mixed", "indirect",
    ]
    with pytest.raises(InspectorError):
        Term(None, "remote")


# ----------------------------------------------------------------------
# equivalence with the hand-written classes
# ----------------------------------------------------------------------
#: (BlockSolve structures?, P, coalesce) -> (cold msgs, cold bytes, warm
#: msgs, warm bytes) of ``parallel_cg(niter=4)`` on the fixture problem,
#: recorded from the six strategy classes at the commit before they were
#: deleted; identical across the variants of one carving and under
#: ``overlap`` on/off (the schedule, not the executor, decides traffic).
PARENT_TRAFFIC = {
    (False, 1, True): (10, 128, 10, 128),
    (False, 1, False): (16, 128, 16, 128),
    (False, 3, True): (60, 12784, 54, 10304),
    (False, 3, False): (1294, 22704, 1288, 20224),
    (False, 4, True): (100, 16912, 88, 13632),
    (False, 4, False): (1716, 30032, 1704, 26752),
    (False, 8, True): (360, 22944, 304, 18560),
    (False, 8, False): (2376, 40480, 2320, 36096),
    (True, 1, True): (10, 128, 10, 128),
    (True, 1, False): (16, 128, 16, 128),
    (True, 3, True): (60, 12464, 54, 10048),
    (True, 3, False): (1262, 22128, 1256, 19712),
    (True, 4, True): (100, 15552, 88, 12544),
    (True, 4, False): (1580, 27584, 1568, 24576),
    (True, 8, True): (310, 19904, 264, 16128),
    (True, 8, False): (2062, 35008, 2016, 31232),
}


@pytest.mark.parametrize("P", [1, 3, 4, 8])
@pytest.mark.parametrize("variant", SOLVER_VARIANTS)
def test_solver_traffic_and_cache_counters_match_the_parent(problem, variant, P):
    coo, bs, b = problem
    A = bs if SPMV_VARIANTS[variant].blocksolve else coo
    xs = []
    for overlap in (True, False):
        for coalesce in (True, False):
            cache = ScheduleCache()
            cold, warm = (
                parallel_cg(A, b, P, variant, niter=4, overlap=overlap,
                            coalesce=coalesce, schedule_cache=cache)
                for _ in range(2)
            )
            got = tuple(
                f(r.stats) for r in (cold, warm)
                for f in (lambda s: s.total_msgs(), lambda s: s.total_nbytes())
            )
            assert got == PARENT_TRAFFIC[SPMV_VARIANTS[variant].blocksolve, P, coalesce]
            s = cache.stats
            assert (s.hits, s.misses, s.rejected) == (P, P, 0)
            assert np.array_equal(cold.x, warm.x)
            xs.append(cold.x)
    # the knobs leave the iterates bitwise unchanged
    assert all(np.array_equal(x, xs[0]) for x in xs)


@pytest.mark.parametrize("variant", SPMV_VARIANTS)
def test_interior_is_the_local_statements(problem, variant):
    """What runs inside the exchange window is what the specification
    marks ``local``: nothing for Eq. 23, the owned-column products for
    Eq. 24 — and with ``overlap`` they run between post and wait."""
    coo, bs, _ = problem
    P = 3
    dist, data = _layout(variant, coo, bs, P)
    strategies = [make_spmv_setup(variant, p, dist, data[p]) for p in range(P)]
    x = np.linspace(-1.0, 1.0, coo.shape[0])
    seen = []

    def prog(p):
        s = strategies[p]
        yield from s.setup()
        if p == 0:
            s.interior = [lambda run=run: (seen.append("interior"), run()) for run in s.interior]
        gen = s.step(x[dist.owned_by(p)])
        try:
            req = next(gen)
            while True:
                if p == 0:
                    seen.append(req[0])
                req = gen.send((yield req))
        except StopIteration as stop:
            return stop.value

    Machine(P).run(prog)
    nlocal_terms = sum(t.reads == "local" for t in strategies[0].terms)
    declared = SPMV_VARIANTS[variant].terms.__name__ == "mixed_terms"
    assert (nlocal_terms > 0) == declared
    # one compiled kernel holds every local statement; the library applies each
    ninterior = nlocal_terms if SPMV_VARIANTS[variant].library else min(nlocal_terms, 1)
    assert all(len(s.interior) == ninterior for s in strategies)
    assert seen == ["alltoallv_async"] + ["interior"] * ninterior + ["commwait"]


# ----------------------------------------------------------------------
# one kernel per x view
# ----------------------------------------------------------------------
@pytest.mark.parametrize("P", [1, 3, 4, 8])
@pytest.mark.parametrize("variant", SPMV_VARIANTS)
def test_one_compile_per_x_view(problem, variant, P, monkeypatch):
    """``localize()`` compiles each x view's statements as the regions of
    one kernel: one ``compile_kernel`` call per distinct ``reads``, none
    for the library.  Counted around ``localize()`` alone: ranks
    interleave at the inspector's collectives."""
    coo, bs, _ = problem
    dist, data = _layout(variant, coo, bs, P)
    calls = []

    def counting(*args, **kwargs):
        calls.append(args)
        return compile_kernel(*args, **kwargs)

    monkeypatch.setattr(spmd_spmv, "compile_kernel", counting)

    def prog(p):
        s = make_spmv_setup(variant, p, dist, data[p])
        yield from s.inspect()
        before = len(calls)
        s.localize()
        return len(calls) - before, 0 if s.library else len({t.reads for t in s.terms})

    results, _ = Machine(P).run(prog)
    assert all(got == want for got, want in results), results


def _per_term_chain(s):
    """The y of one kernel (or library ``matvec``) per statement, run
    ``local`` statements first and otherwise in spec order, against the
    x, ghost and global views ``step()`` just filled."""
    xmap = np.zeros(s.dist.nglobal, dtype=np.int64)
    xmap[s._used] = s.sched.ghost_slot_of(s._used)
    views = {"local": s._x, "ghost": s._g,
             "global": TranslatedVector(s.dist.nglobal, s._g.vals, xmap)}
    Y = DenseVector.zeros(s.nlocal)
    for term in sorted(s.terms, key=lambda t: t.reads != "local"):
        A, X = term.A, views[term.reads]
        if term.reads == "ghost":
            A = A.remap_columns(xmap, len(s._g.vals))
        if s.library:
            A.matvec(X.vals, out=Y.vals)
            continue
        if isinstance(A, COOMatrix):
            A = CRSMatrix.from_coo(A.canonicalized())
        compile_kernel(SPMV_SRC, {"A": A, "X": X, "Y": Y})(A=A, X=X, Y=Y)
    return Y.vals


@pytest.mark.parametrize("P", [1, 3, 4, 8])
@pytest.mark.parametrize("variant", SPMV_VARIANTS)
def test_y_is_the_per_term_chain_bitwise(problem, variant, P):
    """Grouping statements into one kernel per view keeps the summation
    order of one kernel per statement: local regions first, then the
    rest, each in spec order — so y is bitwise the per-term chain's."""
    coo, bs, _ = problem
    dist, data = _layout(variant, coo, bs, P)
    n = coo.shape[0]
    xs = [np.linspace(-1.0, 1.0, n), np.random.default_rng(11).standard_normal(n)]

    def prog(p):
        s = make_spmv_setup(variant, p, dist, data[p])
        yield from s.setup()
        pairs = []
        for x in xs:
            y = yield from s.step(x[dist.owned_by(p)])
            pairs.append((y.tobytes(), _per_term_chain(s).tobytes()))
        return pairs

    results, _ = Machine(P).run(prog)
    for pairs in results:
        assert all(y == chain for y, chain in pairs)


# ----------------------------------------------------------------------
# one typed ghost-translation check
# ----------------------------------------------------------------------
@pytest.mark.parametrize("variant", SPMV_VARIANTS)
def test_schedule_missing_a_used_column_is_an_inspector_error(problem, variant, monkeypatch):
    """A schedule builder that drops one requested index must surface as
    ``InspectorError`` from ``localize()`` — not as whichever format
    constructor happens to trip over the bad renumbering first."""
    coo, bs, _ = problem
    P = 3
    dist, data = _layout(variant, coo, bs, P)

    def dropping(build):
        def wrapper(rank, ind, needed):
            sched = yield from build(rank, ind, np.asarray(needed)[:-1])
            return sched

        return wrapper

    for name in ("build_schedule_replicated", "build_schedule_translated"):
        monkeypatch.setattr(spmd_spmv, name, dropping(getattr(spmd_spmv, name)))

    def prog(p):
        yield from make_spmv_setup(variant, p, dist, data[p]).setup()

    with pytest.raises(InspectorError, match="missed a used column"):
        Machine(P).run(prog)
