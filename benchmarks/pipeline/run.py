"""benchmarks/pipeline — the repo's one benchmark.

Driver form (the contract in BENCHMARK.json)::

    python3 benchmarks/pipeline/run.py --workload NAME --seed N --seconds S --trace 0|1

runs workload NAME at full depth plus a short cross-section of the other
five (every run reports every metric), checks every result against an
independent reference, and prints one JSON object as its last line.

Human form::

    python3 benchmarks/pipeline/run.py --all [--workload NAME] [--seed S]
                                       [--json OUT] [--spans FILE] [--quick]
    python3 benchmarks/pipeline/run.py --calibrate K

``--all`` runs each workload in a fresh interpreter, untraced then
traced, and prints every metric by name with its unit; the exit code is
non-zero when any reference check fails.  See README.md.
"""

from __future__ import annotations

import argparse
import ctypes
import importlib
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

# One process, one thread (only service_open starts threads of its own): a
# threaded BLAS on a 2-vCPU box stalls for whole scheduler quanta.  Must be
# set before numpy is imported.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")



def keep_freed_memory() -> None:
    """Tell glibc malloc to keep freed memory in the process.

    A first touch of a fresh page costs ~100 us on the build VM (the host
    backs guest memory lazily), several hundred times a bare-metal fault.
    By default glibc hands large arrays straight back to the kernel, so a
    loop that allocates and frees a few MB pays that again and again and
    the timing measures the hypervisor.  With the thresholds raised the
    heap grows once (visible in ``setup_s`` and ``peak_rss_mb``) and is
    reused.  Not glibc: nothing happens.
    """
    try:
        libc = ctypes.CDLL("libc.so.6")
        libc.mallopt(-3, 32 << 20)  # M_MMAP_THRESHOLD: its maximum
        libc.mallopt(-1, (1 << 31) - 1)  # M_TRIM_THRESHOLD: never trim
    except (OSError, AttributeError):
        pass


HERE = Path(__file__).resolve().parent
ROOT = HERE.parent.parent
sys.path.insert(0, str(HERE))

WORKLOADS = (
    "spmv_stream",
    "cg_seq_mid",
    "compile_mix",
    "spmd_cg",
    "service_open",
    "autoplan_mixed",
)
#: share of --seconds the named workload gets; the cross-section of the
#: other five splits the rest by these weights (the noisier, the more)
HOME_SHARE = 0.5
PROBE_WEIGHT = {
    "spmv_stream": 1.0,
    "cg_seq_mid": 1.0,
    "compile_mix": 1.0,
    "spmd_cg": 1.5,
    "service_open": 0.75,
    "autoplan_mixed": 1.5,
}
DEFAULT_SEED = 1997


def import_repro() -> None:
    """``repro`` from the environment, else from this checkout's ``src``."""
    try:
        import repro  # noqa: F401
    except ModuleNotFoundError:
        src = ROOT / "src"
        if not (src / "repro").is_dir():
            raise SystemExit(
                f"cannot import 'repro' and {src} does not exist: run from a "
                "checkout of the repository"
            )
        sys.path.insert(0, str(src))
        import repro  # noqa: F401


def load_spec() -> dict:
    with open(ROOT / "BENCHMARK.json") as fh:
        return json.load(fh)


def run_section(name, seed, scale, seconds, trace, speed, corrupt=False, home=True):
    """One workload at one scale in this process; returns its Section."""
    from measure import Section
    from repro.compiler import clear_kernel_cache
    from repro.observability import metrics, trace as rtrace

    if rtrace.tracing_enabled() or metrics.metrics_enabled():
        raise RuntimeError("repo tracing/metrics must be off during timed runs")
    clear_kernel_cache()  # each section starts from a cold process-global cache
    section = Section(name, seed, scale, seconds, trace, corrupt, home, speed)
    t0 = time.perf_counter()
    importlib.import_module(name).run(section)
    section.finish()
    section.rows.append(
        f"{scale} scale, {seconds:.2f} s budget, {time.perf_counter() - t0:.1f} s wall; "
        + section.speed.summary()
    )
    if rtrace.tracing_enabled() or metrics.metrics_enabled():
        raise RuntimeError(f"{name} left repo tracing/metrics enabled")
    return section


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def measure(workload, seed, seconds, trace, quick=False, solo=False, corrupt=False, spans=None):
    """The named workload, then (unless ``solo``) the cross-section.

    A metric produced by more than one section is reported from the named
    workload if it produces it, else from the first section that does.
    """
    keep_freed_memory()
    import_repro()
    t_start = time.perf_counter()
    others = [] if solo else [w for w in WORKLOADS if w != workload]
    home_seconds = seconds if solo else seconds * HOME_SHARE
    from measure import Speed

    speed = Speed()
    home = run_section(
        workload, seed, "probe" if quick else "full", home_seconds, trace, speed, corrupt
    )
    rss = peak_rss_mb()  # high-water mark: read before the cross-section runs
    sections = [home]
    weight = sum(PROBE_WEIGHT[w] for w in others)
    for w in others:
        share = seconds * (1.0 - HOME_SHARE) * PROBE_WEIGHT[w] / weight
        sections.append(run_section(w, seed, "probe", share, trace, speed, corrupt, home=False))

    e2e, layer, exact = {}, {}, set()
    for s in reversed(sections):  # home last, so it wins
        e2e.update(s.e2e)
        layer.update(s.layer)
        exact |= s.exact
    e2e["setup_s"] = home.setup_s
    e2e["peak_rss_mb"] = rss
    attempted = sum(s.attempted for s in sections)
    failed = sum(s.failed for s in sections)
    layer["failed_share"] = failed / max(1, attempted)
    if spans:
        home.recorder.dump(spans)
    return {
        "workload": workload,
        "seed": seed,
        "e2e": e2e,
        "layer": layer,
        "exact": sorted(exact),
        "attempted": attempted,
        "failed": failed,
        "failures": [f for s in sections for f in s.failures],
        "rows": {s.name: s.rows for s in sections},
        "inputs_fingerprint": {s.name: s.fingerprint for s in sections},
        "wall_s": time.perf_counter() - t_start,
    }


def result_line(result: dict, trace: bool, spec: dict) -> str:
    """The contract's last line: exactly the spec's metrics for this mode."""
    listed = spec["per_layer"] if trace else spec["end_to_end"]
    # a traced run may also list end-to-end figures demoted to per-layer
    values = {**result["e2e"], **result["layer"]} if trace else result["e2e"]
    missing = [m["name"] for m in listed if m["name"] not in values]
    if missing:
        raise SystemExit(f"benchmark did not produce metrics: {missing}")
    metrics = {
        m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in listed
    }
    return json.dumps(
        {
            "correct": result["failed"] == 0,
            "attempted": result["attempted"],
            "failed": result["failed"],
            "metrics": metrics,
        }
    )


def header(seed) -> str:
    import numpy

    try:
        import scipy

        scipy_version = scipy.__version__
    except ImportError:
        scipy_version = "not installed"
    rev = "unknown"
    head = ROOT / ".git" / "HEAD"
    if head.is_file():
        ref = head.read_text().strip()
        if ref.startswith("ref: "):
            target = ROOT / ".git" / ref[5:]
            rev = target.read_text().strip()[:12] if target.is_file() else ref[5:]
        else:
            rev = ref[:12]
    return (
        f"benchmarks/pipeline  nproc={os.cpu_count()}  python={platform.python_version()}  "
        f"numpy={numpy.__version__}  scipy={scipy_version}  git={rev}  seed={seed}"
    )


def print_result(result: dict, spec: dict, trace: bool) -> None:
    units = {m["name"]: m["unit"] for m in spec["end_to_end"] + spec["per_layer"]}
    for name, rows in result["rows"].items():
        for row in rows:
            print(f"  [{name}] {row}")
    values = {**result["e2e"], **result["layer"]} if trace else result["e2e"]
    for name in sorted(values):
        mark = " =" if name in result["exact"] else ""
        print(f"  {name:<46s} {values[name]:>16.6g} {units.get(name, '?')}{mark}")
    for failure in result["failures"]:
        print(f"  FAILED {failure}")


# ----------------------------------------------------------------------
# human modes: --all and --calibrate run workloads in fresh interpreters
# ----------------------------------------------------------------------
def child(workload, seed, seconds, trace, extra=()) -> dict:
    """One workload in a fresh interpreter; returns its full result."""
    cmd = [
        sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
        "--seconds", str(seconds), "--trace", str(int(trace)), "--emit-full", *extra,
    ]
    proc = subprocess.run(cmd, capture_output=True, text=True, timeout=600)
    if proc.returncode not in (0, 1) or not proc.stdout.strip():
        sys.stderr.write(proc.stdout + proc.stderr)
        raise SystemExit(f"{workload}: benchmark process failed ({proc.returncode})")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def run_all(args, spec) -> int:
    print(header(args.seed))
    names = [args.workload] if args.workload else list(WORKLOADS)
    extra = ["--solo"] + (["--quick"] if args.quick else [])
    collected, failed = {"e2e": {}, "layer": {}, "by_workload": {}}, 0
    for name in names:
        for trace in (False, True):
            more = extra + (
                ["--spans", f"{args.spans}.{name}.json"] if trace and args.spans else []
            )
            result = child(name, args.seed, args.seconds, trace, more)
            print(f"\n== {name}  ({'traced' if trace else 'timed'} pass, "
                  f"{result['wall_s']:.1f} s wall, {result['attempted']} checks, "
                  f"{result['failed']} failed, inputs {result['inputs_fingerprint'][name]})")
            print_result(result, spec, trace)
            failed += result["failed"]
            key = "layer" if trace else "e2e"
            collected["by_workload"].setdefault(name, {})[key] = result[key]
            collected["by_workload"][name]["inputs_fingerprint"] = result["inputs_fingerprint"][name]
            collected["by_workload"][name]["exact"] = result["exact"]
    print(f"\n{'FAILED' if failed else 'ok'}: {failed} reference checks failed")
    if args.json:
        with open(args.json, "w") as fh:
            json.dump(collected, fh, indent=1, sort_keys=True)
    return 1 if failed else 0


def calibrate(args, spec) -> int:
    """K full sets of driver-form runs; bounds = max(10 %, 3 x IQR/median),
    capped at the contract's 0.25, written back into BENCHMARK.json."""
    print(header(args.seed))
    names = [m["name"] for m in spec["end_to_end"]]
    runs: dict[tuple[str, str], list[float]] = {}
    for k in range(args.calibrate):
        for w in WORKLOADS:
            result = child(w, args.seed + k, spec["run_seconds"], False)
            if result["failed"]:
                raise SystemExit(f"{w}: reference checks failed; not calibrating")
            for name in names:
                runs.setdefault((w, name), []).append(result["e2e"][name])
            print(f"set {k} {w}: {result['wall_s']:.1f} s wall", flush=True)
    worst: dict[str, float] = {}
    for (w, name), values in sorted(runs.items()):
        q1, med, q3 = statistics.quantiles(values, n=4)
        spread = (q3 - q1) / med
        worst[name] = max(worst.get(name, 0.0), spread)
        print(f"{w:<15s} {name:<20s} median {med:12.5g}  q1 {q1:12.5g}  q3 {q3:12.5g}  spread {spread:6.3f}")
    for m in spec["end_to_end"]:
        bound = max(0.10, 3.0 * worst[m["name"]])
        if bound > 0.25:
            print(f"!! {m['name']}: 3 x spread = {bound:.3f} exceeds 0.25 — demote it or steady it")
        m["bound"] = round(min(bound, 0.25), 3)
    with open(ROOT / "BENCHMARK.json", "w") as fh:
        json.dump(spec, fh, indent=2)
        fh.write("\n")
    return 0


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=DEFAULT_SEED)
    ap.add_argument("--seconds", type=float, default=None)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--all", action="store_true", help="every workload, timed then traced, as a table")
    ap.add_argument("--calibrate", type=int, nargs="?", const=5, default=0, metavar="K")
    ap.add_argument("--quick", action="store_true", help="cross-section scale for the named workload too")
    ap.add_argument("--solo", action="store_true", help="the named workload only, no cross-section")
    ap.add_argument("--json", help="--all: write the collected metrics here")
    ap.add_argument("--spans", help="traced pass: write the named workload's spans here")
    ap.add_argument("--emit-full", action="store_true", help=argparse.SUPPRESS)
    ap.add_argument("--corrupt-reference", action="store_true", help=argparse.SUPPRESS)
    args = ap.parse_args(argv)

    spec = load_spec()
    if args.seconds is None:
        args.seconds = float(spec["run_seconds"])
    if args.calibrate:
        return calibrate(args, spec)
    if args.all:
        return run_all(args, spec)
    if not args.workload:
        ap.error("--workload NAME (driver form), --all or --calibrate K")

    result = measure(
        args.workload, args.seed, args.seconds, bool(args.trace),
        quick=args.quick, solo=args.solo, corrupt=args.corrupt_reference, spans=args.spans,
    )
    if args.emit_full:
        print(json.dumps(result))
        return 1 if result["failed"] else 0
    print(header(args.seed))
    print_result(result, spec, bool(args.trace))
    if args.solo:
        return 1 if result["failed"] else 0
    print(result_line(result, bool(args.trace), spec))
    return 1 if result["failed"] else 0


if __name__ == "__main__":
    sys.exit(main())
