"""Property-based differential harness for the auto-planner.

For every (structure class × kernel × replicate) case — 264 in all — a
seeded generator plants a matrix, the auto-planner picks a format and
backend on its own, and the compiled result must be **bitwise equal** to
the dense interpreted oracle (:func:`run_reference`).  Bitwise is not
hyperbole: generators produce integer-valued matrices and vectors, so
float64 sums are exact under any association order and ``block-gemv``
(BLAS) has nowhere to hide a reordering bug behind a tolerance.

Cost-model property: the chosen candidate's modeled cost is the minimum
over feasible candidates, hence never worse than the planner's own
predicted-worst candidate.

Replay: every case derives from ``default_rng([REPRO_TEST_SEED,
case_id])``; on failure the base seed is printed by the conftest report
hook and the full case description (seed, case id, class, kernel, n) is
written to ``REPRO_AUTOPLAN_ARTIFACT`` (default
``/tmp/autoplan_repro.json``) for CI to upload.
"""

import json
import os
from contextlib import contextmanager

import numpy as np
import pytest

from repro.compiler import autoplan
from repro.compiler.parser import parse
from repro.compiler.reference import run_reference
from repro.formats.dense import DenseVector
from repro.kernels.spmv import SPMV_SRC, SPMV_T_SRC
from tests.conftest import TEST_SEED, case_rng
from tests.generators import STRUCTURE_CLASSES, integer_vector

KERNELS = {"spmv": SPMV_SRC, "spmv_t": SPMV_T_SRC}
REPS = 12
CLASS_ID = {name: i for i, name in enumerate(sorted(STRUCTURE_CLASSES))}
KERNEL_ID = {name: i for i, name in enumerate(sorted(KERNELS))}

CASES = [
    (cls, kern, rep)
    for cls in sorted(STRUCTURE_CLASSES)
    for kern in sorted(KERNELS)
    for rep in range(REPS)
]
assert len(CASES) >= 200  # the acceptance floor for the harness


def _artifact_path() -> str:
    return os.environ.get("REPRO_AUTOPLAN_ARTIFACT", "/tmp/autoplan_repro.json")


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
            "tests/autoplan/test_property_harness.py -q"
        )
        try:
            with open(_artifact_path(), "w") as fh:
                json.dump(doc, fh, indent=2)
        except OSError:
            pass
        raise


def _case_id(cls: str, kern: str, rep: int) -> int:
    return CLASS_ID[cls] * 1000 + KERNEL_ID[kern] * 100 + rep


@pytest.mark.parametrize("cls,kern,rep", CASES)
def test_autoplanned_kernel_matches_oracle_bitwise(cls, kern, rep):
    case_id = _case_id(cls, kern, rep)
    rng = case_rng(case_id)
    n = int(rng.integers(8, 49))
    case = {"case_id": case_id, "class": cls, "kernel": kern, "n": n}
    with _repro_artifact(case):
        coo = STRUCTURE_CLASSES[cls](rng, n)
        x = integer_vector(rng, n)
        y0 = integer_vector(rng, n)

        plan = autoplan(coo)

        # cost-model property: chosen == min over feasible candidates,
        # therefore never worse than the predicted-worst candidate
        feasible = [c.predicted_seconds for c in plan.candidates if c.feasible]
        assert plan.predicted_seconds == min(feasible)
        assert plan.predicted_seconds <= plan.predicted_worst

        src = KERNELS[kern]
        kernel, formats = plan.compile(
            coo,
            source=src,
            extra={"X": DenseVector(x.copy()), "Y": DenseVector(y0.copy())},
        )
        kernel(**formats)
        got = formats["Y"].vals

        ref = run_reference(
            parse(src), {"A": coo.to_dense(), "X": x, "Y": y0}
        )["Y"]

        assert np.array_equal(got, ref), (
            f"{cls}/{kern} case {case_id}: auto plan "
            f"{plan.format_name} diverged from oracle"
        )
        # bitwise, after normalizing the one representational freedom
        # integer arithmetic leaves (signed zero from 0·negative terms)
        assert (got + 0.0).tobytes() == (ref + 0.0).tobytes()


def test_harness_covers_every_structure_class_and_kernel():
    classes = {c for c, _, _ in CASES}
    kernels = {k for _, k, _ in CASES}
    assert classes == set(STRUCTURE_CLASSES)
    assert kernels == set(KERNELS)
