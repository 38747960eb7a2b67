#!/usr/bin/env python
"""Regenerate the paper's storage-format illustrations (Figures 1 and 2).

Figure 1: the 6×6 example matrix in CCS and CCCS — the COLP / VALS /
ROWIND / COLIND arrays exactly as drawn in the paper.

Figure 2: a multi-dof FEM matrix through the BlockSolve analysis —
i-nodes, cliques, coloring, and the i-node dense-block storage.

Run::

    python examples/formats_tour.py
"""

import numpy as np

from repro import BlockSolveMatrix, CCCSMatrix, CCSMatrix, COOMatrix, fem_matrix
from repro.graphs import adjacency_csr, find_inodes


def figure1() -> None:
    # the matrix of paper Fig. 1(a): values 1..6, columns 2 and 5 empty
    dense = np.array(
        [
            [1.0, 0, 0, 0, 5.0, 0],
            [0, 3.0, 0, 0, 0, 0],
            [2.0, 0, 0, 0, 0, 0],
            [0, 0, 0, 4.0, 0, 0],
            [0, 0, 0, 0, 6.0, 0],
            [0, 0, 0, 0, 0, 0],
        ]
    )
    A = COOMatrix.from_dense(dense)
    print("=== Figure 1(a): the example matrix ===")
    for row in dense:
        print("   ", "  ".join(f"{v:3.0f}" if v else "  ." for v in row))

    ccs = CCSMatrix.from_coo(A)
    print("\n=== Figure 1(b): CCS storage ===")
    print("  COLP   =", ccs.colp.tolist())
    print("  VALS   =", ccs.vals.tolist())
    print("  ROWIND =", ccs.rowind.tolist())

    cccs = CCCSMatrix.from_coo(A)
    print("\n=== Figure 1(c): CCCS storage (empty columns compressed away) ===")
    print("  COLIND =", cccs.colind.tolist())
    print("  COLP   =", cccs.colp.tolist())
    print("  VALS   =", cccs.vals.tolist())
    print("  ROWIND =", cccs.rowind.tolist())


def figure2() -> None:
    dof = 3
    m = fem_matrix(points=8, dof=dof, neighbors=2, rng=4)
    print("\n=== Figure 2: BlockSolve analysis of a 3-dof FEM matrix ===")
    gptr, members = find_inodes(*adjacency_csr(m))
    print(f"  i-nodes (rows with identical column structure): {len(gptr) - 1} groups")
    for a, b in zip(gptr[:4], gptr[1:5]):
        print(f"    rows {members[a:b].tolist()}")
    bs = BlockSolveMatrix.from_coo(m)
    widths = np.diff(bs.clique_ptr).tolist()
    print(f"  cliques after partition: sizes {widths}")
    print(f"  colors used by the greedy coloring: {bs.ncolors}")
    print(f"  color of each clique (reordered): {bs.colors.tolist()}")
    print("  reordered layout: dense diagonal clique blocks "
          f"({bs.dense_blocks.nblocks} blocks, {bs.dense_blocks.stored_count} stored values)")
    off = bs.offdiag
    print(f"  off-diagonal i-node storage: {off.ninodes} i-nodes, {off.nnz} values")
    t = 0
    rows = off.rows[off.inodeptr[t]:off.inodeptr[t + 1]].tolist()
    cols = off.cols[off.colptr[t]:off.colptr[t + 1]].tolist()
    print(f"  i-node 0 (paper Fig. 2(c) style): rows {rows} share columns {cols}")
    block = off.vals[off.voff[t]:off.voff[t + 1]].reshape(len(rows), len(cols))
    print("  its dense value block:")
    for r in block:
        print("    ", "  ".join(f"{v:7.3f}" for v in r))

    # the round trip is exact
    assert np.allclose(bs.to_dense(), m.to_dense())
    print("  (reordering + splitting round-trips exactly)")


if __name__ == "__main__":
    figure1()
    figure2()
