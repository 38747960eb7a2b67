#!/usr/bin/env python
"""The paper's parallel experiment in miniature (Sections 3–4).

Builds the synthetic 3-D stencil problem (7-point, 5 dof per grid point),
reorders it into BlockSolve form, and solves it with preconditioned CG on
the simulated SPMD machine using all three executor strategies:

* the hand-written BlockSolve library path,
* the compiler's mixed local/global specification (paper Eq. 24),
* the naive fully-global specification (paper Eq. 23).

Prints solution agreement, executor/inspector times and communication
counts.  Run::

    python examples/parallel_cg.py
"""

import numpy as np

from repro import CRSMatrix, cg, parallel_cg, render_comm_matrix, spmv, stencil_matrix
from repro.observability import render_phase_breakdown
from repro.runtime import CommModel


def main() -> None:
    coo = stencil_matrix((6, 6, 6), dof=5, rng=7)
    n = coo.shape[0]
    rng = np.random.default_rng(1)
    xstar = rng.standard_normal(n)
    b = spmv(CRSMatrix.from_coo(coo), xstar)
    print(f"problem: {n} unknowns ({coo.nnz} nonzeros), 7-pt stencil, 5 dof/point")

    niter = 10
    seq = cg(CRSMatrix.from_coo(coo), b, diag=coo.diagonal(), maxiter=niter, tol=0.0)
    print(f"sequential PCG, {niter} iterations: residual {seq.final_residual:.3e}\n")

    P = 4
    comm = CommModel()
    print(f"{'variant':<12} {'=seq?':>6} {'exec(s)':>9} {'insp(s)':>9} {'msgs':>7} {'MB':>7}")
    last = None
    for variant in ("blocksolve", "mixed-bs", "global-bs"):
        res = last = parallel_cg(coo, b, nprocs=P, variant=variant, niter=niter)
        same = np.allclose(res.x, seq.x, atol=1e-8)
        ex = res.stats.phase("executor").parallel_time(comm)
        insp = res.stats.phase("inspector").parallel_time(comm)
        print(
            f"{variant:<12} {'yes' if same else 'NO':>6} {ex:>9.4f} {insp:>9.4f}"
            f" {res.stats.total_msgs():>7} {res.stats.total_nbytes() / 1e6:>7.3f}"
        )
        assert same, "parallel result must match sequential CG"

    print("\nall three strategies reproduce the sequential iterates exactly;")
    print("they differ in inspector work and executor indirection (Tables 2-3).")

    # observability: who talked to whom, and where the time went
    # (for the last variant run — the naive fully-global specification)
    stats = last.stats
    print()
    print(render_comm_matrix(stats.comm_matrix(), title="global-bs rank-to-rank bytes"))
    print()
    print(render_phase_breakdown(stats, comm))


if __name__ == "__main__":
    main()
