"""Table 1: sequential SpMV across matrices × storage formats.

Paper claim reproduced: there is no single best format — the winner is
determined by matrix structure (Diagonal/ITPACK on regular grids, CRS on
irregular/row-skewed matrices, BS95 on multi-dof FEM structure).

Each benchmark measures one y = A·x through the compiled kernel (library
matvec for BS95).  The executor backend is selected with ``--backend``
(default ``vectorized``) and recorded in every benchmark's ``extra_info``
so saved JSON never presents numbers from different backends as
comparable.  ``harness.py table1`` prints the full paper-style grid.

Standalone usage (no pytest)::

    python benchmarks/bench_table1_spmv.py --backend vectorized
        # measure Table 1 under interpreted AND the named backend,
        # print per-cell speedups and the geomean (target: >= 2x)
    python benchmarks/bench_table1_spmv.py --smoke
        # CRS-only quick check: fails unless vectorized beats interpreted
"""

import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))
try:
    import repro  # noqa: F401  (installed, or on PYTHONPATH)
except ModuleNotFoundError:  # run from a source checkout
    sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import pytest

from paperbench import TABLE1_FORMATS, TABLE1_NAMES, spmv_closure
from repro.matrices import table1_matrix

_MATRICES = {name: table1_matrix(name) for name in TABLE1_NAMES}


@pytest.mark.parametrize("fmt", TABLE1_FORMATS)
@pytest.mark.parametrize("name", TABLE1_NAMES)
def test_table1_spmv(benchmark, request, name, fmt):
    coo = _MATRICES[name]
    backend = request.config.getoption("--backend")
    fn, flops, label = spmv_closure(fmt, coo, backend=backend)
    benchmark.extra_info["matrix"] = name
    benchmark.extra_info["format"] = fmt
    benchmark.extra_info["nnz"] = coo.nnz
    # the backend that actually produced this number ("library" for BS95):
    # saved JSON rows are only comparable when these labels match
    benchmark.extra_info["backend"] = label
    benchmark.pedantic(fn, rounds=5, iterations=3, warmup_rounds=1)
    # MFlop/s for the report
    benchmark.extra_info["mflops"] = flops / benchmark.stats.stats.min / 1e6


def _main(argv=None):
    import argparse

    import paperbench as pb

    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--backend", default="vectorized",
                    help="candidate backend to compare against interpreted")
    ap.add_argument("--min-time", type=float, default=0.15,
                    help="per-cell measurement budget (seconds)")
    ap.add_argument("--smoke", action="store_true",
                    help="CRS-only quick check; exit 1 unless the candidate "
                         "backend beats interpreted on every matrix")
    args = ap.parse_args(argv)

    if args.smoke:
        formats = ["CRS"]
        min_time = min(args.min_time, 0.05)
    else:
        formats = None
        min_time = args.min_time

    base, cand, speedups, gm = pb.compare_backends(
        formats=formats, min_time=min_time, candidate=args.backend
    )
    print(pb.format_backend_comparison(base, cand, speedups, gm))
    if args.smoke:
        slow = {k: s for k, s in speedups.items() if s <= 1.0}
        if slow:
            print(f"SMOKE FAIL: {args.backend} did not beat interpreted on {sorted(slow)}")
            return 1
        print(f"SMOKE OK: {args.backend} beats interpreted on all CRS cells")
    return 0


if __name__ == "__main__":
    raise SystemExit(_main())
