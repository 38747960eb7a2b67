"""Property harness: reduction lowerings are bitwise-equal to the oracle.

Every (kernel × format × backend × replicate) case plants a seeded sparse
matrix, compiles a non-additive reduction kernel ('*', 'min', 'max' —
the verdicts the dependence analyzer newly unlocks), runs it, and
compares **bitwise** against the interpreted scalar oracle
(:func:`run_reference`).

Bitwise holds by construction:

* ``min``/``max`` select an operand unchanged — order-independent at the
  bit level for any values;
* ``*`` cases remap all matrix values to ±1/±2 and initial targets to
  the same set, so every partial product is an exact power of two well
  under 2^53 — exact in float64 under any association order.

Sparse operands follow stored-entry (monoid) semantics: the oracle gets
``sparse={"A"}`` exactly when the compiled format is not structurally
dense, so both the guarded-sparse and the fully-dense contracts are
exercised.

Replay: cases derive from ``default_rng([REPRO_TEST_SEED, case_id])``;
failures dump a replayable description to ``REPRO_REDUCTION_ARTIFACT``
(default ``/tmp/reduction_repro.json``).
"""

import json
import os
from contextlib import contextmanager

import numpy as np
import pytest

from repro.compiler import compile_kernel, native
from repro.compiler.parser import parse
from repro.compiler.reference import run_reference
from repro.formats.coo import COOMatrix
from repro.formats.crs import CRSMatrix
from repro.formats.dense import DenseMatrix, DenseVector
from tests.conftest import TEST_SEED, case_rng
from tests.generators import STRUCTURE_CLASSES

#: kernel name -> (source, reduction op)
KERNELS = {
    "rowprod": ("for i in 0:n { for j in 0:m { Y[i] = Y[i] * A[i,j] } }", "*"),
    "colprod": ("for i in 0:n { for j in 0:m { Y[j] = Y[j] * A[i,j] } }", "*"),
    "rowmin": ("for i in 0:n { for j in 0:m { Y[i] = min(Y[i], A[i,j]) } }", "min"),
    "colmax": ("for i in 0:n { for j in 0:m { Y[j] = max(Y[j], A[i,j]) } }", "max"),
}
FORMATS = ("crs", "dense")
BACKENDS = ("vectorized", "interpreted")
REPS = 6
CLASS_ROTATION = sorted(STRUCTURE_CLASSES)

KERNEL_ID = {name: i for i, name in enumerate(sorted(KERNELS))}
FORMAT_ID = {name: i for i, name in enumerate(FORMATS)}
BACKEND_ID = {name: i for i, name in enumerate(BACKENDS)}

CASES = [
    (kern, fmt, be, rep)
    for kern in sorted(KERNELS)
    for fmt in FORMATS
    for be in BACKENDS
    for rep in range(REPS)
]


def _artifact_path() -> str:
    return os.environ.get("REPRO_REDUCTION_ARTIFACT", "/tmp/reduction_repro.json")


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
            "tests/differential/test_reduction_lowering.py -q"
        )
        try:
            with open(_artifact_path(), "w") as fh:
                json.dump(doc, fh, indent=2)
        except OSError:
            pass
        raise


def _case_id(kern: str, fmt: str, be: str, rep: int) -> int:
    return (
        KERNEL_ID[kern] * 10000
        + FORMAT_ID[fmt] * 1000
        + BACKEND_ID[be] * 100
        + rep
    )


def _pow2_values(rng, coo: COOMatrix) -> COOMatrix:
    """Remap stored values to ±1/±2 so products stay float64-exact."""
    k = coo.vals.shape[0]
    mag = 2.0 ** rng.integers(0, 2, size=k)
    sign = rng.choice([-1.0, 1.0], size=k)
    return COOMatrix.from_entries(coo.shape, coo.row, coo.col, mag * sign)


@pytest.mark.parametrize("kern,fmt,be,rep", CASES)
def test_reduction_lowering_matches_oracle_bitwise(kern, fmt, be, rep):
    case_id = _case_id(kern, fmt, be, rep)
    rng = case_rng(case_id)
    n = int(rng.integers(8, 33))
    cls = CLASS_ROTATION[(rep + case_id // 100) % len(CLASS_ROTATION)]
    case = {
        "case_id": case_id, "kernel": kern, "format": fmt,
        "backend": be, "class": cls, "n": n,
    }
    src, op = KERNELS[kern]
    with _repro_artifact(case):
        coo = STRUCTURE_CLASSES[cls](rng, n)
        if op == "*":
            coo = _pow2_values(rng, coo)
            y0 = rng.choice([-2.0, -1.0, 1.0, 2.0], size=n)
        else:
            # a large/small fill so stored entries usually win, plus a few
            # slots the data never beats (the no-combine path)
            fill = 100.0 if op == "min" else -100.0
            y0 = np.full(n, fill)
            y0[rng.integers(0, n, size=2)] = 0.0 if op == "min" else 1.0

        if fmt == "crs":
            A = CRSMatrix.from_coo(coo)
            oracle_sparse = {"A"}
        else:
            A = DenseMatrix(coo.to_dense())
            oracle_sparse = set()

        k = compile_kernel(
            src, {"A": A, "Y": DenseVector.zeros(n)}, cache=False, backend=be
        )
        # the dependence analyzer must have certified this very unlock
        assert k.certificate is not None
        assert k.certificate.verdict.kind == "REDUCTION"
        assert k.certificate.verdict.op == op

        y = DenseVector(y0.copy())
        k(A=A, Y=y)

        ref = run_reference(
            parse(src),
            {"A": coo.to_dense(), "Y": y0.copy()},
            sparse=oracle_sparse,
        )["Y"]

        assert np.array_equal(y.vals, ref), (
            f"{kern}/{fmt}/{be} case {case_id} diverged from oracle"
        )
        # bitwise, after normalizing signed zero (0·negative)
        assert (y.vals + 0.0).tobytes() == (ref + 0.0).tobytes()


def test_harness_covers_every_kernel_format_backend():
    assert {k for k, _, _, _ in CASES} == set(KERNELS)
    assert {f for _, f, _, _ in CASES} == set(FORMATS)
    assert {b for _, _, b, _ in CASES} == set(BACKENDS)


@pytest.mark.skipif(native.find_compiler() is None, reason="no C compiler on PATH")
def test_vectorized_lowering_actually_engages():
    # with a C compiler the CRS row-product must run as C — otherwise the
    # harness only ever tests the interpreted nest against itself
    rng = case_rng(987654)
    coo = _pow2_values(rng, STRUCTURE_CLASSES["banded"](rng, 16))
    A = CRSMatrix.from_coo(coo)
    src, _ = KERNELS["rowprod"]
    fm = {"A": A, "Y": DenseVector.zeros(16)}
    k = compile_kernel(src, fm, cache=False, backend="vectorized")
    k(**fm)
    assert k.native.reason is None, k.native
