"""Service load generator: latency/throughput under concurrent tenants.

Drives a :class:`repro.service.CompileSolveService` with an asyncio storm
of concurrent compile and solve requests from several tenants, twice over
the same request set:

* **cold** — a fresh plan cache: every distinct structural key must be
  compiled, and the single-flight path must dedupe the concurrent
  duplicates (exactly one compilation per key, the rest coalesced/hits),
* **warm** — the same storm again: every compile request is a cache
  probe, so the p50 collapses toward queue + dispatch overhead.  This is
  the inspector/executor economics of the paper applied to the service
  tier: compile once, amortize across every caller.

Reported per phase: p50/p99/mean total latency (admission → response),
wall time, and throughput; plus the single-flight accounting (distinct
keys vs compilations vs coalesced waits).  Asserted here so CI fails on
a regression, not just a worse table:

* zero failed/shed responses (the queue is sized for the storm),
* **exactly one compilation per distinct structural key** in the cold
  phase,
* warm-cache p50 below cold p50.

The headline is the warm p50 in milliseconds (lower is better) — the
steady-state latency a tenant sees once the service is hot.

Full mode fires 1200 concurrent requests (the "1k+ concurrent" service
target); ``--smoke`` shrinks the storm for CI.
"""

import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))
try:
    import repro  # noqa: F401  (installed, or on PYTHONPATH)
except ModuleNotFoundError:  # run from a source checkout
    sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import argparse
import asyncio
import json
import time

import numpy as np

from repro.compiler import clear_kernel_cache
from repro.compiler.plan_cache import PlanCache
from repro.formats import COOMatrix, CRSMatrix, DenseVector
from repro.kernels.spmv import SPMV_SRC
from repro.service import CompileSolveService, ServiceConfig

TENANTS = ["alice", "bob", "carol", "dave"]


def _poisson_system(n: int):
    """The 1-D Poisson SPD system (the repo's standard CG test matrix)."""
    dense = np.zeros((n, n))
    np.fill_diagonal(dense, 4.0)
    for i in range(n - 1):
        dense[i, i + 1] = dense[i + 1, i] = -1.0
    A = CRSMatrix.from_coo(COOMatrix.from_dense(dense))
    b = np.random.default_rng(1997).standard_normal(n)
    return A, b


def build_requests(n_requests: int, distinct_keys: int, solve_every: int, n: int):
    """The request mix: compile requests round-robin over ``distinct_keys``
    structural keys (distinct via ``extra_key``, the autoplan mechanism),
    with every ``solve_every``-th request a small CG solve."""
    A, b = _poisson_system(n)
    fmts = {
        "A": A,
        "X": DenseVector(np.ones(n)),
        "Y": DenseVector.zeros(n),
    }
    requests = []
    for i in range(n_requests):
        tenant = TENANTS[i % len(TENANTS)]
        if solve_every and i % solve_every == solve_every - 1:
            requests.append(
                ("solve_cg", {"A": A, "b": b, "maxiter": 8, "tol": 0.0}, tenant)
            )
        else:
            requests.append(
                (
                    "compile",
                    {
                        "source": SPMV_SRC,
                        "formats": fmts,
                        "extra_key": ("bench_service", i % distinct_keys),
                    },
                    tenant,
                )
            )
    return requests


async def _storm(svc: CompileSolveService, requests):
    return await asyncio.gather(
        *[
            svc.request_async(kind, payload, tenant=tenant)
            for kind, payload, tenant in requests
        ]
    )


def run_phase(svc: CompileSolveService, requests) -> dict:
    """Fire every request concurrently; summarize latency + throughput."""
    t0 = time.perf_counter()
    responses = asyncio.run(_storm(svc, requests))
    wall = time.perf_counter() - t0
    lat = np.array([r.total_ms for r in responses])
    statuses: dict[str, int] = {}
    for r in responses:
        statuses[r.status] = statuses.get(r.status, 0) + 1
    return {
        "requests": len(responses),
        "statuses": statuses,
        "p50_ms": float(np.percentile(lat, 50)),
        "p99_ms": float(np.percentile(lat, 99)),
        "mean_ms": float(lat.mean()),
        "max_ms": float(lat.max()),
        "wall_seconds": wall,
        "throughput_rps": len(responses) / wall,
    }


def run_load(n_requests: int, distinct_keys: int, workers: int,
             solve_every: int, n: int) -> dict:
    requests = build_requests(n_requests, distinct_keys, solve_every, n)
    plan_cache = PlanCache("compiler", max_entries=4 * distinct_keys + 64)
    clear_kernel_cache()  # the solve path compiles through the global cache
    config = ServiceConfig(
        workers=workers,
        max_queue=n_requests + 16,  # the whole storm may queue at once
        queue_timeout=None,         # measuring latency, not shedding
        plan_cache=plan_cache,
    )
    with CompileSolveService(config) as svc:
        cold = run_phase(svc, requests)
        cache_after_cold = dict(plan_cache.stats())
        warm = run_phase(svc, requests)
        cache_after_warm = dict(plan_cache.stats())
    n_compile = sum(1 for k, _, _ in requests if k == "compile")
    return {
        "config": {
            "requests": n_requests,
            "distinct_keys": distinct_keys,
            "workers": workers,
            "solve_every": solve_every,
            "n": n,
            "compile_requests": n_compile,
            "tenants": len(TENANTS),
        },
        "cold": cold,
        "warm": warm,
        "single_flight": {
            "distinct_keys": distinct_keys,
            "compilations_cold": cache_after_cold["misses"],
            "coalesced_cold": cache_after_cold["coalesced"],
            "hits_cold": cache_after_cold["hits"],
            "compilations_total": cache_after_warm["misses"],
            "cache_size": cache_after_warm["size"],
        },
        "warm_over_cold_p50": warm["p50_ms"] / cold["p50_ms"],
    }


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--smoke", action="store_true", help="small storm, CI-sized")
    ap.add_argument("--out", default="BENCH_service.json", help="output JSON path")
    ap.add_argument("--requests", type=int, default=None,
                    help="concurrent requests per phase (default 1200, smoke 200)")
    ap.add_argument("--keys", type=int, default=None,
                    help="distinct structural keys (default 48, smoke 8)")
    ap.add_argument("--workers", type=int, default=8)
    args = ap.parse_args(argv)

    n_requests = args.requests or (200 if args.smoke else 1200)
    distinct_keys = args.keys or (8 if args.smoke else 48)
    n = 64 if args.smoke else 256
    result = run_load(
        n_requests=n_requests,
        distinct_keys=distinct_keys,
        workers=args.workers,
        solve_every=10,
        n=n,
    )

    cold, warm, sf = result["cold"], result["warm"], result["single_flight"]
    for phase, name in ((cold, "cold"), (warm, "warm")):
        bad = {s: c for s, c in phase["statuses"].items() if s != "ok"}
        assert not bad, f"{name} phase had non-ok responses: {bad}"
    assert sf["compilations_cold"] == distinct_keys, (
        "single-flight failed: expected exactly one compilation per "
        f"structural key ({distinct_keys}), got {sf['compilations_cold']}"
    )
    assert sf["compilations_total"] == sf["compilations_cold"], (
        "warm phase recompiled: "
        f"{sf['compilations_total']} != {sf['compilations_cold']}"
    )
    assert warm["p50_ms"] < cold["p50_ms"], (
        f"warm cache p50 ({warm['p50_ms']:.3f} ms) not below cold "
        f"({cold['p50_ms']:.3f} ms)"
    )

    with open(args.out, "w") as fh:
        json.dump(result, fh, indent=2, sort_keys=True)
    print(f"wrote {args.out}")
    print(
        f"cold: p50={cold['p50_ms']:.2f}ms p99={cold['p99_ms']:.2f}ms "
        f"throughput={cold['throughput_rps']:.0f} req/s "
        f"({cold['requests']} concurrent)"
    )
    print(
        f"warm: p50={warm['p50_ms']:.2f}ms p99={warm['p99_ms']:.2f}ms "
        f"throughput={warm['throughput_rps']:.0f} req/s"
    )
    print(
        f"single-flight: {sf['compilations_cold']} compilations for "
        f"{result['config']['compile_requests']} compile requests over "
        f"{distinct_keys} structural keys "
        f"({sf['coalesced_cold']} coalesced, {sf['hits_cold']} cold-phase hits)"
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
