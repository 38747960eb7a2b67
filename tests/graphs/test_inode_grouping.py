"""The array i-node grouping against a dict-of-tuples oracle, with and
without forced hash collisions."""

from unittest import mock

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import InodeMatrix
from repro.graphs import find_inodes
from repro.graphs import inodes
from repro.matrices import stencil_matrix
from tests.generators import gen_inode


def oracle(rows):
    """Group row ids by their column tuple: by smallest member, members ascending."""
    buckets: dict[tuple[int, ...], list[int]] = {}
    for i, cols in enumerate(rows):
        buckets.setdefault(tuple(cols), []).append(i)
    return sorted(buckets.values(), key=lambda g: g[0])


def grouped(rows):
    ptr = np.cumsum([0] + [len(r) for r in rows])
    idx = np.array([c for r in rows for c in r], dtype=np.int64)
    gptr, members = find_inodes(ptr, idx)
    return [members[a:b].tolist() for a, b in zip(gptr[:-1], gptr[1:])]


def collide_first_salt():
    """Every row hashes to 0 under the first salt, so every group of one
    length is one candidate until the exact check splits it."""
    real = inodes._row_hash

    def row_hash(ptr, idx, pos, salt):
        return np.zeros(len(ptr) - 1, dtype=np.uint64) if salt == 0 else real(ptr, idx, pos, salt)

    return mock.patch.object(inodes, "_row_hash", row_hash)


@st.composite
def row_patterns(draw):
    """Rows drawn from a small pool of sorted column lists (the empty one
    included): repeats land far apart, and many rows share a length."""
    ncols = draw(st.integers(1, 6))
    pool = [()] + draw(
        st.lists(st.sets(st.integers(0, ncols - 1), min_size=1).map(sorted).map(tuple), min_size=1, max_size=8)
    )
    return [pool[k] for k in draw(st.lists(st.integers(0, len(pool) - 1), max_size=80))]


@given(row_patterns())
@settings(max_examples=150, deadline=None)
def test_grouping_equals_the_dict_of_tuples_oracle(rows):
    want = oracle(rows)
    assert grouped(rows) == want
    with collide_first_salt():
        assert grouped(rows) == want


def test_equal_length_rows_split_exactly_under_a_forced_collision():
    rows = [(0, 1), (1, 2), (0, 1), (2, 3), (1, 2), (), (0, 3), ()]
    with collide_first_salt():
        assert grouped(rows) == [[0, 2], [1, 4], [3], [5, 7], [6]]


def test_a_forced_collision_builds_the_same_inode_matrix():
    for m in (gen_inode(np.random.default_rng(3), 60), stencil_matrix((3, 3), dof=2, rng=0)):
        want = InodeMatrix.from_coo(m)
        with collide_first_salt():
            got = InodeMatrix.from_coo(m)
        for name in ("rows", "inodeptr", "cols", "colptr", "vals", "voff"):
            assert np.array_equal(getattr(got, name), getattr(want, name)), name
