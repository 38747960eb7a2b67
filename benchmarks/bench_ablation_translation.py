"""Ablation: replicated vs distributed translation relation.

The structural source of Table 3's gap, isolated: build the SAME gather
schedule for the SAME requests under the SAME ownership map, once through
a replicated IND relation (local lookups, one all-to-all of requests) and
once through a Chaos distributed translation table (table build with
volume ∝ n, plus a dereference round trip).
"""

import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))
try:
    import repro  # noqa: F401  (installed, or on PYTHONPATH)
except ModuleNotFoundError:  # run from a source checkout
    sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import numpy as np
import pytest

from repro.distribution import IndirectDistribution
from repro.distribution.translation import build_translation_table
from repro.runtime import Machine, build_schedule_replicated, build_schedule_translated
from paperbench import COMM


def workload(n=4000, P=4, ghosts_per_rank=40, rng=11):
    dist = IndirectDistribution.random(n, P, rng=rng)
    r = np.random.default_rng(rng)
    needed = [
        np.unique(r.choice(n, size=ghosts_per_rank, replace=False)) for _ in range(P)
    ]
    return dist, needed


def run_replicated(dist, needed):
    m = Machine(dist.nprocs)

    def prog(p):
        sched = yield from build_schedule_replicated(p, dist, needed[p])
        return sched.nghost

    _, stats = m.run(prog)
    return stats


def run_translated(dist, needed):
    m = Machine(dist.nprocs)

    def prog(p):
        table = yield from build_translation_table(
            p, dist.nglobal, dist.nprocs, dist.owned_by(p)
        )
        sched = yield from build_schedule_translated(p, table, needed[p])
        return sched.nghost

    _, stats = m.run(prog)
    return stats


@pytest.mark.parametrize("path", ["replicated", "translated"])
def test_ablation_translation(benchmark, path):
    dist, needed = workload()
    fn = run_replicated if path == "replicated" else run_translated
    stats = benchmark.pedantic(lambda: fn(dist, needed), rounds=3, iterations=1)
    benchmark.extra_info["path"] = path
    benchmark.extra_info["total_bytes"] = stats.total_nbytes()
    benchmark.extra_info["parallel_time_est"] = stats.parallel_time(COMM)


def test_translated_pays_problem_size_volume():
    dist, needed = workload()
    s_rep = run_replicated(dist, needed)
    s_tr = run_translated(dist, needed)
    # the table build alone moves Θ(n) data; replicated moves Θ(ghosts)
    assert s_tr.total_nbytes() > 10 * s_rep.total_nbytes()
    assert s_tr.parallel_time(COMM) > s_rep.parallel_time(COMM)


def main(argv=None):
    from bench_cli import bench_main

    def measure(args):
        n = 1000 if args.smoke else 4000
        dist, needed = workload(n=n)
        s_rep = run_replicated(dist, needed)
        s_tr = run_translated(dist, needed)
        t_rep = s_rep.parallel_time(COMM)
        t_tr = s_tr.parallel_time(COMM)
        ratio = t_tr / t_rep  # deterministic modeled cost of translation
        print(f"replicated {t_rep:.6f}s ({s_rep.total_nbytes()} B)  "
              f"translated {t_tr:.6f}s ({s_tr.total_nbytes()} B)  "
              f"ratio {ratio:.2f}x")
        return ratio

    # like joinorder: the margin of the structured path is the figure of
    # merit — it collapses if the replicated inspector gets more expensive
    return bench_main(
        "ablation_translation", measure, direction="higher",
        description=__doc__, argv=argv,
    )


if __name__ == "__main__":
    raise SystemExit(main())
