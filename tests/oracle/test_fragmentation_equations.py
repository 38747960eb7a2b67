"""The paper's fragmentation and communication-set equations, evaluated
literally with the relational oracle and compared with what the library
computes in numpy: Eq. 15 against ``partition_rows``, Eqs. 21-22 against
the gather schedules of the replicated and the translated inspector, and
Eq. 6 against a ``PermutedMatrix`` view.  Every relation is built from
public arrays: ``owner`` / ``local_index``, a fragment's COO arrays and
``rows_global``, ``Permutation.perm`` and the built ``GatherSchedule``."""

import numpy as np
import pytest

from repro.distribution import (
    BlockCyclicDistribution,
    BlockDistribution,
    CyclicDistribution,
    GeneralizedBlockDistribution,
    IndirectDistribution,
    MultiBlockDistribution,
)
from repro.formats import CRSMatrix, Permutation
from repro.formats.permuted import PermutedMatrix
from repro.parallel import partition_rows
from repro.parallel.spmd_spmv import make_spmv_setup
from repro.runtime import Machine
from tests.conftest import case_rng
from tests.generators import STRUCTURE_CLASSES
from tests.oracle.relational import Rel, fragment, ind, perm


def _multiblock(n, P, rng):
    cuts = np.linspace(0, n, 2 * P + 1).astype(int)
    ranges = [(s, e, k % P) for k, (s, e) in enumerate(zip(cuts[:-1], cuts[1:]))]
    return MultiBlockDistribution(ranges, P)


#: every replicated distribution class, built over (n, P)
DISTRIBUTIONS = {
    "Block": lambda n, P, rng: BlockDistribution(n, P),
    "Cyclic": lambda n, P, rng: CyclicDistribution(n, P),
    "BlockCyclic": lambda n, P, rng: BlockCyclicDistribution(n, P, 2),
    "GeneralizedBlock": lambda n, P, rng: GeneralizedBlockDistribution(
        np.bincount(rng.integers(0, P, n), minlength=P)
    ),
    "Indirect": lambda n, P, rng: IndirectDistribution(rng.integers(0, P, n), P),
    "MultiBlock": _multiblock,
}
#: n = 5 < P = 8 leaves ranks that own nothing
SIZES = (5, 21)
#: the replicated inspector (mixed, global) and the translated one
SPECS = ("mixed", "global", "indirect-mixed", "indirect")


def schedules(dist, frags):
    """Every rank's gather schedule under each spec, after ``setup()``."""

    def prog(p):
        out = []
        for spec in SPECS:
            s = make_spmv_setup(spec, p, dist, frags[p])
            yield from s.setup()
            out.append(s.sched)
        return out

    per_rank, _ = Machine(dist.nprocs).run(prog)
    return [[r[k] for r in per_rank] for k in range(len(SPECS))]


def received(p, scheds):
    """(j, q, j') as the schedules file it: p's ghost slot holds global j,
    read from offset j' on owner q (q's ``send_locals[p]`` in packet order)."""
    s = scheds[p]
    g = s.ghost_global.tolist()
    rows = [(g[k], p, l) for k, l in zip(s.self_slots.tolist(), s.self_locals.tolist(), strict=True)]
    for q in set(s.recv_slots) | {q for q, t in enumerate(scheds) if p in t.send_locals}:
        slots = s.recv_slots.get(q, np.empty(0, dtype=np.int64)).tolist()
        packed = scheds[q].send_locals.get(p, np.empty(0, dtype=np.int64)).tolist()
        rows += [(g[k], q, l) for k, l in zip(slots, packed, strict=True)]
    return Rel(("j", "q", "jq"), rows)


@pytest.mark.parametrize("structure", STRUCTURE_CLASSES)
@pytest.mark.parametrize("P", [1, 2, 4, 8])
@pytest.mark.parametrize("dname", DISTRIBUTIONS)
def test_fragmentation_and_communication_sets(dname, P, structure):
    for n in SIZES:
        rng = case_rng(n, P, list(DISTRIBUTIONS).index(dname), list(STRUCTURE_CLASSES).index(structure))
        coo = STRUCTURE_CLASSES[structure](rng, n).canonicalized()
        dist = DISTRIBUTIONS[dname](n, P, rng)
        frags = partition_rows(coo, dist)
        IND = ind(dist)
        # rows_global is p's slice of IND, and Eq. 15 rebuilds A
        owned = (Rel.of(i=f.rows_global, p=f.rank, ip=np.arange(f.nlocal)) for f in frags)
        assert Rel.union(*owned) == IND
        rebuilt = Rel.union(*(
            IND.select(lambda p, **_: p == f.rank).join(fragment(f)).project("i", "j", "a")
            for f in frags
        ))
        assert rebuilt == Rel.of(i=coo.row, j=coo.col, a=coo.vals)

        IND_j = ind(dist, "j", "q", "jq")
        for spec, scheds in zip(SPECS, schedules(dist, frags)):
            for f in frags:
                # Eq. 21: the columns the spec does not declare local
                refs = fragment(f).join(IND_j)
                if spec.endswith("mixed"):
                    refs = refs.select(lambda q, **_: q != f.rank)
                used = refs.project("j")
                ghosts = scheds[f.rank].ghost_global.tolist()
                assert ghosts == [j for (j,) in used.rows], (n, spec, f.rank)
                # Eq. 22: RecvInd = Used ⋈ IND(j, q, j')
                assert received(f.rank, scheds) == used.join(IND_j), (n, spec, f.rank)


@pytest.mark.parametrize("structure", STRUCTURE_CLASSES)
def test_eq6_permuted_view(structure):
    """view(i, j, a) = π σ(P(i, i') ⋈ A(i', j', a) ⋈ Q(j, j'))."""
    rng = case_rng(6, list(STRUCTURE_CLASSES).index(structure))
    coo = STRUCTURE_CLASSES[structure](rng, 21).canonicalized()
    rp, cp = Permutation.random(21, rng), Permutation.random(21, rng)
    view = PermutedMatrix.build(CRSMatrix, coo, rp, cp)
    s, v = view.base.to_coo(), view.to_coo()
    joined = perm(rp).join(Rel.of(ip=s.row, jp=s.col, a=s.vals)).join(perm(cp, "j", "jp"))
    assert joined.project("i", "j", "a") == Rel.of(i=v.row, j=v.col, a=v.vals)
    assert joined.project("i", "j", "a") == Rel.of(i=coo.row, j=coo.col, a=coo.vals)


def test_oracle_by_hand():
    R = Rel.of(i=[0, 1, 2], p=[0, 1, 1], ip=[0, 0, 1])
    S = Rel(("p", "ip", "a"), [(1, 1, 7.0), (1, 0, 5.0), (1, 1, 6.0), (0, 1, 8.0)])
    J = R.join(S)
    assert J.fields == ("i", "p", "ip", "a")
    assert J.rows == [(1, 1, 0, 5.0), (2, 1, 1, 6.0), (2, 1, 1, 7.0)]
    assert J.project("p", "i").rows == [(1, 1), (1, 2)]
    assert J.select(lambda a, **_: a > 5).project("i").rows == [(2,)]
    assert len(J.union(J)) == 6 and J.union(J).project("i", "a") == J.project("i", "a")
