"""Self-test of benchmarks/pipeline at the cross-section scale.

Run with ``python -m pytest benchmarks/pipeline -q`` (about 20 s; tier-1
collects ``tests/`` only).  Timings are not asserted here — determinism
of the inputs and of every ``=`` count is, and so are the contract with
BENCHMARK.json and the exit code on a wrong reference.
"""

from __future__ import annotations

import json
import re
import subprocess
import sys
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent.parent
sys.path.insert(0, str(HERE))

import run as bench  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.\-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.\-]{1,16}$")


def quick(*extra: str) -> subprocess.CompletedProcess:
    cmd = [
        sys.executable, str(HERE / "run.py"), "--workload", "cg_seq_mid", "--quick",
        "--seconds", "1.5", *extra,
    ]
    return subprocess.run(cmd, capture_output=True, text=True, timeout=170)


@pytest.fixture(scope="module")
def runs():
    """All subprocess runs of the module, two at a time."""
    jobs = {
        "a": ("--seed", "11", "--trace", "1", "--emit-full"),
        "b": ("--seed", "11", "--trace", "1", "--emit-full"),
        "other_seed": ("--seed", "12", "--trace", "1", "--emit-full"),
        "timed": ("--seed", "11", "--trace", "0"),
        "corrupt": ("--seed", "11", "--trace", "0", "--corrupt-reference"),
    }
    with ThreadPoolExecutor(max_workers=2) as pool:
        futures = {k: pool.submit(quick, *args) for k, args in jobs.items()}
        return {k: f.result() for k, f in futures.items()}


def full(proc: subprocess.CompletedProcess) -> dict:
    assert proc.returncode == 0, proc.stdout[-2000:] + proc.stderr[-2000:]
    return json.loads(proc.stdout.strip().splitlines()[-1])


def test_same_seed_same_inputs_and_counts(runs):
    a, b = full(runs["a"]), full(runs["b"])
    assert set(a["inputs_fingerprint"]) == set(bench.WORKLOADS)
    assert a["inputs_fingerprint"] == b["inputs_fingerprint"]
    assert a["exact"] and a["exact"] == b["exact"]
    for name in a["exact"]:
        assert a["layer"][name] == b["layer"][name], name
    assert a["failed"] == b["failed"] == 0


def test_other_seed_other_inputs(runs):
    a, c = full(runs["a"]), full(runs["other_seed"])
    for workload in bench.WORKLOADS:
        assert a["inputs_fingerprint"][workload] != c["inputs_fingerprint"][workload], workload


def test_every_listed_metric_is_emitted_with_its_unit(runs):
    line = json.loads(runs["timed"].stdout.strip().splitlines()[-1])
    assert set(line) == {"correct", "attempted", "failed", "metrics"}
    assert line["correct"] is True and line["failed"] == 0 and line["attempted"] >= 1
    assert {k: v["unit"] for k, v in line["metrics"].items()} == {
        m["name"]: m["unit"] for m in SPEC["end_to_end"]
    }
    assert all(v["value"] != 0 for v in line["metrics"].values())
    traced = json.loads(bench.result_line(full(runs["a"]), True, SPEC))
    assert {k: v["unit"] for k, v in traced["metrics"].items()} == {
        m["name"]: m["unit"] for m in SPEC["per_layer"]
    }


def test_wrong_reference_fails_the_run(runs):
    proc = runs["corrupt"]
    assert proc.returncode != 0
    line = json.loads(proc.stdout.strip().splitlines()[-1])
    assert line["correct"] is False and line["failed"] > 0


def test_benchmark_json_meets_the_contract():
    assert set(SPEC) == {"command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"}
    assert SPEC["paths"] == ["benchmarks/pipeline"]
    assert [w["name"] for w in SPEC["workloads"]] == list(bench.WORKLOADS)
    assert all(set(w) == {"name", "why"} and len(w["why"]) <= 200 for w in SPEC["workloads"])
    assert isinstance(SPEC["run_seconds"], int) and 1 <= SPEC["run_seconds"] <= 60
    assert 1 <= len(SPEC["end_to_end"]) <= 16 and 1 <= len(SPEC["per_layer"]) <= 128
    names = [m["name"] for m in SPEC["end_to_end"] + SPEC["per_layer"]] + list(bench.WORKLOADS)
    assert len(names) == len(set(names))
    for m in SPEC["end_to_end"]:
        assert set(m) == {"name", "unit", "better", "bound"} and 0 < m["bound"] <= 0.25
    for m in SPEC["per_layer"]:
        assert set(m) == {"name", "unit", "better"}
    for m in SPEC["end_to_end"] + SPEC["per_layer"]:
        assert NAME.match(m["name"]) and UNIT.match(m["unit"]) and m["better"] in ("lower", "higher")
    setup = next(m for m in SPEC["end_to_end"] if m["name"] == "setup_s")
    assert setup["unit"] == "s" and setup["better"] == "lower"
    assert setup["bound"] == max(m["bound"] for m in SPEC["end_to_end"])
