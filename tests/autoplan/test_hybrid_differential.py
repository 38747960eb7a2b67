"""Hybrid-aware differential suite: the composed plan vs two oracles.

For every structure class × kernel × replicate, force the
region-specialized path (``plan_hybrid`` → compile → run) regardless of
whether the cost model would have picked it, and require the result to
be **bitwise equal** to

1. the dense interpreted oracle (:func:`run_reference` on the whole
   matrix), and
2. the *sum of per-region oracles* — running the reference once per
   region in partition order, threading the accumulator through — which
   checks that the composed kernel's summation tree is exactly the
   partition order it promises.

Integer-valued generators make float64 sums exact under any
association, so bitwise equality between (1) and (2) and the compiled
kernel is a theorem, not a tolerance.

Replay: cases derive from ``default_rng([REPRO_TEST_SEED, case_id])``;
failures dump a replayable description to ``REPRO_HYBRID_ARTIFACT``
(default ``/tmp/hybrid_repro.json``) for CI to upload.
"""

import json
import os
from contextlib import contextmanager

import numpy as np
import pytest

from repro.compiler.parser import parse
from repro.compiler.reference import run_reference
from repro.compiler.specialize import plan_hybrid
from repro.formats.dense import DenseVector
from repro.kernels.spmv import SPMV_SRC, SPMV_T_SRC
from tests.conftest import TEST_SEED, case_rng
from tests.generators import STRUCTURE_CLASSES, integer_vector

KERNELS = {"spmv": SPMV_SRC, "spmv_t": SPMV_T_SRC}
REPS = 4
CLASS_ID = {name: i for i, name in enumerate(sorted(STRUCTURE_CLASSES))}
KERNEL_ID = {name: i for i, name in enumerate(sorted(KERNELS))}

CASES = [
    (cls, kern, rep)
    for cls in sorted(STRUCTURE_CLASSES)
    for kern in sorted(KERNELS)
    for rep in range(REPS)
]


def _artifact_path() -> str:
    return os.environ.get("REPRO_HYBRID_ARTIFACT", "/tmp/hybrid_repro.json")


@contextmanager
def _repro_artifact(case: dict):
    """Dump a replayable case description on failure, then re-raise."""
    try:
        yield
    except BaseException:
        doc = dict(case)
        doc["base_seed"] = TEST_SEED
        doc["replay"] = (
            f"REPRO_TEST_SEED={TEST_SEED} pytest "
            "tests/autoplan/test_hybrid_differential.py -q"
        )
        try:
            with open(_artifact_path(), "w") as fh:
                json.dump(doc, fh, indent=2)
        except OSError:
            pass
        raise


def _case_id(cls: str, kern: str, rep: int) -> int:
    return 50_000 + CLASS_ID[cls] * 1000 + KERNEL_ID[kern] * 100 + rep


@pytest.mark.parametrize("cls,kern,rep", CASES)
def test_forced_hybrid_matches_both_oracles_bitwise(cls, kern, rep):
    case_id = _case_id(cls, kern, rep)
    rng = case_rng(case_id)
    n = int(rng.integers(16, 81))
    case = {"case_id": case_id, "class": cls, "kernel": kern, "n": n,
            "suite": "hybrid-differential"}
    with _repro_artifact(case):
        coo = STRUCTURE_CLASSES[cls](rng, n)
        x = integer_vector(rng, n)
        y0 = integer_vector(rng, n)
        src = KERNELS[kern]

        hybrid = plan_hybrid(coo)
        case["regions"] = [r.summary() for r in hybrid.partition.regions]
        kernel, formats = hybrid.compile(
            source=src,
            extra={"X": DenseVector(x.copy()), "Y": DenseVector(y0.copy())},
        )
        kernel(**formats)
        got = formats["Y"].vals

        # oracle 1: the whole matrix, interpreted on dense storage
        ref = run_reference(
            parse(src), {"A": coo.to_dense(), "X": x, "Y": y0}
        )["Y"]
        assert (got + 0.0).tobytes() == (ref + 0.0).tobytes(), (
            f"{cls}/{kern} case {case_id}: hybrid diverged from the "
            "whole-matrix oracle"
        )

        # oracle 2: one reference run per region, accumulator threaded in
        # partition order — the summation-order contract, interpreted
        acc = y0.copy()
        for region in hybrid.partition.regions:
            acc = run_reference(
                parse(src), {"A": region.coo.to_dense(), "X": x, "Y": acc}
            )["Y"]
        assert (got + 0.0).tobytes() == (acc + 0.0).tobytes(), (
            f"{cls}/{kern} case {case_id}: hybrid diverged from the "
            "per-region oracle chain"
        )


def test_repeated_runs_are_bitwise_identical():
    """Same matrix, same kernel, two independent compiles: identical
    bits out (the fixed region order is the reproducibility contract)."""
    rng = case_rng(50_990)
    coo = STRUCTURE_CLASSES["hybrid"](rng, 72)
    x = integer_vector(rng, 72)
    outs = []
    for _ in range(2):
        hybrid = plan_hybrid(coo)
        kernel, formats = hybrid.compile()
        formats["X"] = DenseVector(x.copy())
        formats["Y"] = DenseVector.zeros(72)
        kernel(**formats)
        outs.append(formats["Y"].vals.tobytes())
    assert outs[0] == outs[1]


def test_suite_covers_every_structure_class_and_kernel():
    assert {c for c, _, _ in CASES} == set(STRUCTURE_CLASSES)
    assert {k for _, k, _ in CASES} == set(KERNELS)
    assert len(CASES) >= 80
