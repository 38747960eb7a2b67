"""External yardsticks, measured in the same run on the same inputs.

``scipy.sparse`` CSR / CSC / COO matvec on the workload's own triplets,
and a numpy stream triad ``a = b + s*c`` at the same footprint.  They
move with nothing in ``repro``; they locate ``spmv_ns_per_nnz`` against
the machine.  The VM reports a 260 MiB shared L3, so the triad is a
*computed-bytes* rate at this footprint, not a DRAM roofline.  scipy is
imported only here and in ``oracle.py`` — the library core stays
scipy-free — and its absence drops the rows, it does not fail the run.
"""

from __future__ import annotations

import numpy as np

from measure import Section, Summary

try:
    import scipy.sparse as _sp
except ImportError:
    _sp = None

__all__ = ["scipy_spmv", "triad_gbs"]


def scipy_spmv(t, x, want, section: Section, seconds: float) -> dict[str, float]:
    """ns per stored entry of scipy's CSR, CSC and COO matvec on ``t``."""
    if _sp is None:
        return {}
    coo = _sp.coo_matrix((t.val, (t.row, t.col)), shape=(t.n, t.n))
    mats = {"csr": coo.tocsr(), "csc": coo.tocsc(), "coo": coo}
    for layout, m in mats.items():
        # scipy is not under test, but a yardstick that computes something
        # else would mislead: same product, same tolerance
        section.close(m @ x, want, 1e-12, f"yardstick scipy {layout}")
    samples = section.round_robin([lambda m=m: m @ x for m in mats.values()], seconds)
    out = {}
    for layout, ns in zip(mats, samples):
        s = Summary(ns)
        out[f"scipy_{layout}_ns_per_nnz"] = s.median / t.nnz
        section.rows.append(
            f"{t.name:<10s} scipy.{layout:<4s} n={t.n:<7d} nnz={t.nnz:<8d} "
            f"{s.text(1e-6)} ms  {s.median / t.nnz:6.2f} ns/nnz"
        )
    return out


def triad_gbs(footprint_bytes: int, section: Section, seconds: float) -> float:
    """GB/s (computed bytes: 2 reads + 1 write) of ``a = b + s*c`` with
    the three arrays together as large as ``footprint_bytes``."""
    n = max(1024, footprint_bytes // 24)
    b, c, a = np.ones(n), np.full(n, 2.0), np.empty(n)

    def triad():
        np.multiply(c, 3.0, out=a)
        np.add(a, b, out=a)

    (ns,) = section.round_robin([triad], seconds)
    return 24 * n / (Summary(ns).median * 1e-9) / 1e9
