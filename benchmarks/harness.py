"""Regenerate the paper's tables and figures from the command line.

Usage::

    python benchmarks/harness.py table1            # Table 1 (SpMV MFlop/s)
    python benchmarks/harness.py table2            # Table 2 (CG executor)
    python benchmarks/harness.py table3            # Table 3 (inspector overhead)
    python benchmarks/harness.py fig4              # Figure 4 (conditioning)
    python benchmarks/harness.py ablations         # the four ablation studies
    python benchmarks/harness.py all

Options: ``--procs 2,4,8`` for the parallel experiments, ``--cells N`` for
the per-rank weak-scaling size, ``--fig4-procs 8,64``.  EXPERIMENTS.md
records a full run.

``--trace out.json`` records the whole run — compiler spans, per-rank
phase spans, communication matrices — as Chrome ``trace_event`` JSON;
inspect it with ``chrome://tracing`` or
``python -m repro.observability.report out.json``.
"""

from __future__ import annotations

import argparse
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))
try:
    import repro  # noqa: F401  (installed, or on PYTHONPATH)
except ModuleNotFoundError:  # run from a source checkout
    sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import numpy as np

import paperbench as pb


def cmd_table1(args):
    print(f"== Table 1: sparse matrix-vector product, MFlop/s "
          f"(compiled kernels, backend={args.backend}; * marks the row winner) ==")
    t0 = time.perf_counter()
    results = pb.run_table1(min_time=args.min_time, backend=args.backend)
    print(pb.format_table1(results))
    print(f"[measured in {time.perf_counter() - t0:.1f}s]")


def _plist(text):
    return tuple(int(x) for x in text.split(","))


def cmd_table2(args):
    P_list = _plist(args.procs)
    print(f"== Table 2: CG executor time, 10 iterations, seconds "
          f"(~{pb.CELLS_PER_RANK * pb.DOF if not args.cells else args.cells * pb.DOF} rows/rank) ==")
    t0 = time.perf_counter()
    rows = pb.run_table2(P_list, cells_per_rank=args.cells)
    print(pb.format_table2(rows))
    print(f"[measured in {time.perf_counter() - t0:.1f}s]")


def cmd_table3(args):
    P_list = _plist(args.procs)
    print("== Table 3: inspector overhead (inspector time / one executor iteration) ==")
    t0 = time.perf_counter()
    rows = pb.run_table3(P_list, cells_per_rank=args.cells)
    print(pb.format_table3(rows))
    print(f"[measured in {time.perf_counter() - t0:.1f}s]")


def cmd_fig4(args):
    P_list = _plist(args.fig4_procs)
    print("== Figure 4: (k + r_I) / (k + r_B) vs iteration count k ==")
    t0 = time.perf_counter()
    series = pb.run_fig4(P_list=P_list, cells_per_rank=args.cells)
    print(pb.format_fig4(series))
    print(f"[measured in {time.perf_counter() - t0:.1f}s]")


def cmd_ablations(args):
    import bench_ablation_codegen as abc_
    import bench_ablation_inode as abi
    import bench_ablation_joinorder as abj
    import bench_ablation_translation as abt

    def best(fn, reps=3):
        fn()
        ts = []
        for _ in range(reps):
            t0 = time.perf_counter()
            fn()
            ts.append(time.perf_counter() - t0)
        return min(ts)

    print("== Ablation: scalar vs vectorized codegen (gr_30_30 SpMV, seconds) ==")
    for fmt in abc_.FORMATS:
        ts = best(abc_.make_kernel(fmt, "interpreted"), 2)
        tv = best(abc_.make_kernel(fmt, "vectorized"), 3)
        print(f"  {fmt.__name__:<18} scalar {ts:.5f}  vector {tv:.6f}  speedup {ts / tv:7.1f}x")

    print("== Ablation: join order (SpMV with sparse x, seconds) ==")
    from repro.compiler import compile_kernel
    from repro.kernels.spmv import SPMV_SRC

    A, X, Y = abj.setup()
    for driver in ("A", "X"):
        kern = compile_kernel(SPMV_SRC, {"A": A, "X": X, "Y": Y}, force_driver=driver, cache=False)

        def run(k=kern):
            Y.vals[:] = 0.0
            k(A=A, X=X, Y=Y)

        print(f"  driver={driver}: {best(run):.5f}s"
              + ("  (planner's unforced choice)" if driver == "A" else "  (forced bad order)"))

    print("== Ablation: join implementation (merge vs binary search, sparse x) ==")
    A2, X2, Y2 = abj.setup(n=400, density=0.06)
    for impl in ("merge", "search"):
        kern = compile_kernel(
            SPMV_SRC, {"A": A2, "X": X2, "Y": Y2}, allow_merge=(impl == "merge"), cache=False
        )

        def run2(k=kern):
            Y2.vals[:] = 0.0
            k(A=A2, X=X2, Y=Y2)

        print(f"  {impl:<7}: {best(run2):.5f}s")

    print("== Ablation: replicated vs distributed translation (schedule build) ==")
    dist, needed = abt.workload()
    for name, fn in (("replicated", abt.run_replicated), ("translated", abt.run_translated)):
        stats = fn(dist, needed)
        print(
            f"  {name:<11} est. parallel time {stats.parallel_time(pb.COMM) * 1e3:8.2f} ms,"
            f" bytes moved {stats.total_nbytes():>10}"
        )

    print("== Ablation: i-node dense blocks (FEM matrix SpMV, seconds) ==")
    for name, fn in abi.paths().items():
        print(f"  {name:<16} {best(fn):.5f}s")


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("what", choices=["table1", "table2", "table3", "fig4", "ablations", "all"])
    ap.add_argument("--procs", default="2,4,8", help="processor counts for tables 2/3")
    ap.add_argument("--fig4-procs", default="8,64", help="processor counts for figure 4")
    ap.add_argument("--cells", type=int, default=None, help="grid cells per rank (default from REPRO_BENCH_SCALE)")
    ap.add_argument("--min-time", type=float, default=0.15, help="per-cell measurement budget for table 1")
    ap.add_argument("--backend", default="vectorized",
                    help="executor backend for table 1's compiled kernels "
                         "(vectorized / interpreted)")
    ap.add_argument("--trace", metavar="OUT.json", default=None,
                    help="save a Chrome-trace of the run (compiler spans, "
                         "per-rank phases, comm matrices)")
    args = ap.parse_args(argv)
    tracer = None
    if args.trace:
        from repro.observability import enable_tracing

        tracer = enable_tracing(process_name=f"harness:{args.what}")
    steps = {
        "table1": cmd_table1,
        "table2": cmd_table2,
        "table3": cmd_table3,
        "fig4": cmd_fig4,
        "ablations": cmd_ablations,
    }
    try:
        if args.what == "all":
            for name in ("table1", "table2", "table3", "fig4", "ablations"):
                steps[name](args)
                print()
        else:
            steps[args.what](args)
    finally:
        if tracer is not None:
            from repro.observability import disable_tracing

            tracer.save(args.trace)
            disable_tracing()
            print(f"[trace: {len(tracer.records)} events -> {args.trace}; "
                  f"view with python -m repro.observability.report {args.trace}]")


if __name__ == "__main__":
    main()
