"""Figure 4: effect of problem conditioning on relative solver performance.

The inspector runs once; the executor runs once per iteration, so the
relative cost of the Indirect-Mixed implementation over Bernoulli-Mixed is
(k + r_I) / (k + r_B) for k solver iterations (paper Eq. 25).  The curves
must start high at small k, decay toward 1, and sit higher for larger P.
"""

import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))
try:
    import repro  # noqa: F401  (installed, or on PYTHONPATH)
except ModuleNotFoundError:  # run from a source checkout
    sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import pytest

from paperbench import format_fig4, run_fig4

P_LIST = (2, 4)


def test_fig4_curves(benchmark):
    series = benchmark.pedantic(
        lambda: run_fig4(P_list=P_LIST), rounds=1, iterations=1
    )
    for P, s in series.items():
        ratios = s["ratio"]
        # decaying toward 1 as iterations amortize the inspector
        assert ratios[0] > ratios[-1] >= 1.0
        assert all(a >= b for a, b in zip(ratios, ratios[1:]))
        # the Indirect inspector is the more expensive one
        assert s["r_I"] > s["r_B"]
        benchmark.extra_info[f"P{P}_r_B"] = s["r_B"]
        benchmark.extra_info[f"P{P}_r_I"] = s["r_I"]
    print()
    print(format_fig4(series))


def main(argv=None):
    from bench_cli import bench_main
    from paperbench import geomean

    def measure(args):
        P_list = (2,) if args.smoke else P_LIST
        series = run_fig4(P_list=P_list)
        print(format_fig4(series))
        # headline: inspector amortization ratios (both implementations,
        # every P) — grows when inspection gets more expensive relative
        # to one executor iteration
        vals = [s["r_B"] for s in series.values()] + [
            s["r_I"] for s in series.values()
        ]
        return geomean(vals)

    return bench_main(
        "fig4_conditioning", measure, direction="lower",
        description=__doc__, argv=argv,
    )


if __name__ == "__main__":
    raise SystemExit(main())
