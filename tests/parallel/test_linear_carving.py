"""Distribution-time work is segment arithmetic; these are the loop
versions it replaced, kept as oracles: the vectorised fragmentation,
i-node carving and BlockSolve assembly must return array-equal storage.
"""

import zlib

import numpy as np
import pytest

from repro.distribution import BlockDistribution, CyclicDistribution, MultiBlockDistribution
from repro.formats import BlockSolveMatrix, COOMatrix, InodeMatrix
from repro.matrices import fem_matrix
from repro.parallel import partition_rows
from repro.parallel.spmd_blocksolve import BSFragments
from tests.conftest import case_rng
from tests.generators import STRUCTURE_CLASSES

INODE_ARRAYS = ("rows", "inodeptr", "cols", "colptr", "vals", "voff")


def _rng(tag: str):
    return case_rng(zlib.crc32(tag.encode()))


def assert_same_inode(got: InodeMatrix, want: InodeMatrix):
    assert got.shape == want.shape
    for name in INODE_ARRAYS:
        a, b = getattr(got, name), getattr(want, name)
        assert a.dtype == b.dtype and np.array_equal(a, b), name


# ----------------------------------------------------------------------
# loop oracles (the pre-vectorisation implementations)
# ----------------------------------------------------------------------
def _pack(shape, rows, inodeptr, cols, colptr, vals_parts, voff):
    return InodeMatrix(
        shape,
        np.asarray(rows, dtype=np.int64),
        np.asarray(inodeptr, dtype=np.int64),
        np.asarray(cols, dtype=np.int64),
        np.asarray(colptr, dtype=np.int64),
        np.concatenate(vals_parts) if vals_parts else np.empty(0),
        np.asarray(voff, dtype=np.int64),
    )


def _blocks(ino: InodeMatrix):
    for t in range(ino.ninodes):
        rt = ino.rows[ino.inodeptr[t] : ino.inodeptr[t + 1]]
        ct = ino.cols[ino.colptr[t] : ino.colptr[t + 1]]
        yield rt, ct, ino.vals[ino.voff[t] : ino.voff[t + 1]].reshape(len(rt), len(ct))


def loop_select_rows(ino, keep_mask, row_map, new_nrows):
    rows, inodeptr, cols, colptr, parts, voff = [], [0], [], [0], [], [0]
    for rt, ct, block in _blocks(ino):
        sel = keep_mask[rt]
        if not sel.any():
            continue
        rows.extend(row_map[rt[sel]].tolist())
        inodeptr.append(len(rows))
        cols.extend(ct.tolist())
        colptr.append(len(cols))
        parts.append(block[sel, :].ravel())
        voff.append(voff[-1] + parts[-1].size)
    return _pack((new_nrows, ino.shape[1]), rows, inodeptr, cols, colptr, parts, voff)


def loop_split_by_columns(ino, keep_mask):
    def build(select):
        rows, inodeptr, cols, colptr, parts, voff = [], [0], [], [0], [], [0]
        for rt, ct, block in _blocks(ino):
            sel = select(keep_mask[ct])
            if not sel.any():
                continue
            rows.extend(rt.tolist())
            inodeptr.append(len(rows))
            cols.extend(ct[sel].tolist())
            colptr.append(len(cols))
            parts.append(block[:, sel].ravel())
            voff.append(voff[-1] + parts[-1].size)
        return _pack(ino.shape, rows, inodeptr, cols, colptr, parts, voff)

    return build(lambda m: m), build(lambda m: ~m)


def loop_to_coo(ino):
    r_parts, c_parts, v_parts = [], [], []
    for rt, ct, block in _blocks(ino):
        rr, cc = np.meshgrid(rt, ct, indexing="ij")
        r_parts.append(rr.ravel())
        c_parts.append(cc.ravel())
        v_parts.append(block.ravel())
    if not r_parts:
        return COOMatrix(ino.shape, [], [], [])
    return sort_from_entries(
        ino.shape, np.concatenate(r_parts), np.concatenate(c_parts), np.concatenate(v_parts)
    )


def sort_from_entries(shape, row, col, vals):
    """``COOMatrix.from_entries`` without the already-canonical shortcut."""
    row = np.asarray(row, dtype=np.int64)
    col = np.asarray(col, dtype=np.int64)
    vals = np.asarray(vals, dtype=np.float64)
    if len(row) == 0:
        return COOMatrix(shape, row, col, vals, canonical=True)
    order = np.lexsort((col, row))
    row, col, vals = row[order], col[order], vals[order]
    new = np.empty(len(row), dtype=bool)
    new[0] = True
    new[1:] = (row[1:] != row[:-1]) | (col[1:] != col[:-1])
    idx = np.flatnonzero(new)
    return COOMatrix(shape, row[idx], col[idx], np.add.reduceat(vals, idx), canonical=True)


def assert_same_coo(got: COOMatrix, want: COOMatrix):
    assert got.shape == want.shape and got.canonical and want.canonical
    for name in ("row", "col", "vals"):
        a, b = getattr(got, name), getattr(want, name)
        assert a.dtype == b.dtype and np.array_equal(a, b), name


# ----------------------------------------------------------------------
# COOMatrix.from_entries
# ----------------------------------------------------------------------
@pytest.mark.parametrize(
    "kind", ["sorted", "reversed", "shuffled", "duplicated", "single", "empty", "row-ties"]
)
def test_from_entries_equals_the_sort_path(kind):
    rng = _rng(f"from-entries/{kind}")
    base = STRUCTURE_CLASSES["uniform"](rng, 23)
    row, col, vals = base.row, base.col, base.vals
    if kind == "reversed":
        row, col, vals = row[::-1], col[::-1], vals[::-1]
    elif kind == "shuffled":
        p = rng.permutation(len(row))
        row, col, vals = row[p], col[p], vals[p]
    elif kind == "duplicated":  # sorted, but coordinates repeat: must still sum
        row, col, vals = np.repeat(row, 2), np.repeat(col, 2), np.repeat(vals, 2)
    elif kind == "single":
        row, col, vals = row[:1], col[:1], vals[:1]
    elif kind == "empty":
        row, col, vals = row[:0], col[:0], vals[:0]
    elif kind == "row-ties":  # rows non-decreasing, columns descending inside a row
        order = np.lexsort((-col, row))
        row, col, vals = row[order], col[order], vals[order]
    assert_same_coo(
        COOMatrix.from_entries(base.shape, row, col, vals),
        sort_from_entries(base.shape, row, col, vals),
    )


def test_from_entries_check_does_not_overflow():
    """A fused ``row * ncols + col`` key would wrap here and look sorted."""
    big = 2**62
    m = COOMatrix.from_entries((big, big), [4, 2], [big - 1, big - 1], [1.0, 2.0])
    assert m.row.tolist() == [2, 4] and m.vals.tolist() == [2.0, 1.0]


# ----------------------------------------------------------------------
# partition_rows
# ----------------------------------------------------------------------
def _distributions(n, nprocs):
    cuts = np.linspace(0, n, 2 * nprocs + 1).astype(int)
    ranges = [(int(s), int(e), k % nprocs) for k, (s, e) in enumerate(zip(cuts, cuts[1:]))]
    return {
        "block": BlockDistribution(n, nprocs),
        "cyclic": CyclicDistribution(n, nprocs),
        "multiblock": MultiBlockDistribution(ranges),
    }


@pytest.mark.parametrize("dist_kind", ["block", "cyclic", "multiblock"])
@pytest.mark.parametrize("structure", ["uniform", "power_law", "inode"])
@pytest.mark.parametrize("nprocs", [1, 3, 5])
def test_partition_rows_fragments_are_canonical_and_reconstruct(structure, dist_kind, nprocs):
    coo = STRUCTURE_CLASSES[structure](_rng(f"partition/{structure}"), 31)
    dist = _distributions(31, nprocs)[dist_kind]
    frags = partition_rows(coo, dist)
    assert [f.rank for f in frags] == list(range(nprocs))
    rows, cols, vals = [], [], []
    for f in frags:
        mine = dist.owned_by(f.rank)
        assert np.array_equal(f.rows_global, mine)
        # the fragment is what the per-rank masked select produced
        want = coo.select_rows(mine)
        assert f.matrix.canonical
        assert_same_coo(f.matrix, want)
        rows.append(f.rows_global[f.matrix.row])
        cols.append(f.matrix.col)
        vals.append(f.matrix.vals)
    union = sort_from_entries(
        coo.shape, np.concatenate(rows), np.concatenate(cols), np.concatenate(vals)
    )
    assert_same_coo(union, coo)


# ----------------------------------------------------------------------
# i-node carving and BlockSolve assembly
# ----------------------------------------------------------------------
@pytest.mark.parametrize("structure", sorted(STRUCTURE_CLASSES))
def test_inode_carving_equals_the_loop_versions(structure):
    rng = _rng(f"carve/{structure}")
    coo = STRUCTURE_CLASSES[structure](rng, 29)
    ino = InodeMatrix.from_coo(coo)
    n = coo.shape[0]
    assert_same_coo(ino.to_coo(), loop_to_coo(ino))

    keep_rows = rng.random(n) < 0.5
    mine = np.flatnonzero(keep_rows)
    row_map = -np.ones(n, dtype=np.int64)
    row_map[mine] = rng.permutation(len(mine))
    got = ino.select_rows(keep_rows, row_map, len(mine))
    assert_same_inode(got, loop_select_rows(ino, keep_rows, row_map, len(mine)))

    keep_cols = rng.random(coo.shape[1]) < 0.4
    for part, want in zip(got.split_by_columns(keep_cols), loop_split_by_columns(got, keep_cols)):
        assert_same_inode(part, want)
    for mask in (np.zeros(n, dtype=bool), np.ones(n, dtype=bool)):
        for part, want in zip(ino.split_by_columns(mask), loop_split_by_columns(ino, mask)):
            assert_same_inode(part, want)
        assert_same_inode(
            ino.select_rows(mask, np.arange(n), n), loop_select_rows(ino, mask, np.arange(n), n)
        )


def test_hand_written_batches_follow_the_storage():
    """``matvec`` batches by shape off segment arithmetic: same product as
    the per-i-node blocks."""
    ino = InodeMatrix.from_coo(STRUCTURE_CLASSES["inode"](_rng("batches"), 37))
    x = _rng("batches/x").standard_normal(37)
    want = np.zeros(37)
    for rt, ct, block in _blocks(ino):
        want[rt] += block @ x[ct]
    np.testing.assert_allclose(ino.matvec(x), want, rtol=0, atol=1e-12)


def _loop_clique_view(frag: BSFragments):
    """The dense-clique carving of ``BSFragments.__init__``, block by block:
    ``(blockptr, vals, voff, ino_rows, ino_cols)``."""
    bs, mask = frag.bs, frag.mine_mask
    row_map = -np.ones(bs.shape[0], dtype=np.int64)
    row_map[frag.rows_global] = np.arange(frag.nlocal)
    blockptr, parts, voff, ino_rows, ino_cols = [0], [], [0], [], []
    for b in range(len(bs.clique_ptr) - 1):
        lo, hi = int(bs.clique_ptr[b]), int(bs.clique_ptr[b + 1])
        if not (frag.nlocal and mask[lo]):
            continue
        parts.append(bs.dense_blocks.vals[bs.dense_blocks.voff[b] : bs.dense_blocks.voff[b + 1]])
        blockptr.append(blockptr[-1] + hi - lo)
        voff.append(voff[-1] + (hi - lo) ** 2)
        ino_rows.extend(row_map[np.arange(lo, hi)].tolist())
        ino_cols.extend(range(lo, hi))
    flat = np.concatenate(parts) if parts else np.empty(0)
    return blockptr, flat, voff, ino_rows, ino_cols


@pytest.mark.parametrize("nprocs", [1, 2, 3, 9])
def test_bsfragments_equal_the_loop_carving(nprocs):
    bs = BlockSolveMatrix.from_coo(fem_matrix(points=12, dof=3, rng=2))
    dist = MultiBlockDistribution.from_color_classes(bs.clique_ptr, bs.colors, nprocs)
    n = bs.shape[0]
    for rank in range(nprocs):
        frag = BSFragments(rank, dist, bs)
        blockptr, flat, voff, ino_rows, ino_cols = _loop_clique_view(frag)
        if frag.nlocal:
            assert np.array_equal(frag.A_D.blockptr, blockptr)
            assert np.array_equal(frag.A_D.vals, flat)
            assert np.array_equal(frag.A_D.voff, voff)
        else:
            assert frag.A_D is None
        assert_same_inode(
            frag.A_D_ino,
            InodeMatrix((frag.nlocal, n), ino_rows, blockptr, ino_cols, blockptr, flat, voff),
        )
        row_map = -np.ones(n, dtype=np.int64)
        row_map[frag.rows_global] = np.arange(frag.nlocal)
        off = loop_select_rows(bs.offdiag, frag.mine_mask, row_map, frag.nlocal)
        assert_same_inode(frag.off_global, off)
        local, nonlocal_ = loop_split_by_columns(off, frag.mine_mask)
        col_local = np.zeros(n, dtype=np.int64)
        col_local[frag.rows_global] = np.arange(frag.nlocal)
        assert_same_inode(frag.A_SL, local.remap_columns(col_local, max(1, frag.nlocal)))
        assert_same_inode(frag.A_SNL_global, nonlocal_)


def test_preconditioner_diagonal_comes_from_the_clique_blocks():
    """``parallel_cg`` reads the reordered diagonal off ``dense_blocks``;
    bitwise the old round trip through ``to_coo()``."""
    bs = BlockSolveMatrix.from_coo(fem_matrix(points=14, dof=3, rng=5))
    old = np.empty(bs.shape[0])
    old[bs.perm.perm] = bs.to_coo().diagonal()
    assert np.array_equal(bs.dense_blocks.diagonal(), old)
