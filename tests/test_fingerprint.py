"""One digest helper, five call sites — and the digests did not move.

They are ``BENCH_history.jsonl`` series ids, cache-key components and
certificate fingerprints, so each site pins one value computed before the
sites were folded onto :func:`repro.fingerprint.fingerprint`.
"""

import hashlib

import numpy as np
import pytest

from repro.analysis.depend import program_fingerprint
from repro.analysis.structure import analyze_structure
from repro.compiler import partition_regions
from repro.compiler.parser import parse
from repro.compiler.plan_cache import PlanCache
from repro.fingerprint import fingerprint
from repro.formats import COOMatrix, CRSMatrix, DenseVector
from repro.kernels.spmv import SPMV_SRC
from repro.observability.bench_track import config_fingerprint
from repro.service import CompileSolveService, ServiceConfig


def _tridiagonal(n=24):
    i = np.arange(n)
    return COOMatrix.from_entries(
        (n, n),
        np.concatenate([i, i[:-1], i[1:]]),
        np.concatenate([i, i[1:], i[:-1]]),
        np.concatenate([np.full(n, 4.0), np.full(n - 1, -1.0), np.full(n - 1, -1.0)]),
    )


def test_helper_is_a_sha256_prefix():
    assert fingerprint("abc") == hashlib.sha256(b"abc").hexdigest()[:16]
    assert fingerprint("abc", 12) == hashlib.sha256(b"abc").hexdigest()[:12]


def test_bench_series_id_is_unchanged():
    config = {"bench": "table1", "n": 3, "smoke": False}
    assert config_fingerprint(config) == "0b2db9e603ee"


def test_certificate_fingerprint_is_unchanged():
    assert program_fingerprint(parse(SPMV_SRC)) == "7cf468485a704a24"


def test_structure_profile_fingerprint_is_unchanged():
    assert analyze_structure(_tridiagonal()).fingerprint() == "6451523b9f541a7c"


def test_region_partition_fingerprint_is_unchanged_and_computed_once(monkeypatch):
    partition = partition_regions(_tridiagonal())
    assert partition.fingerprint() == "600ccb526de3ff0b"
    monkeypatch.setattr(
        type(partition.profile), "fingerprint",
        lambda self: pytest.fail("partition re-hashed on a second fingerprint()"),
    )
    assert partition.fingerprint() == "600ccb526de3ff0b"


def test_service_key_fingerprint_is_unchanged():
    tri = _tridiagonal()
    n = tri.shape[0]
    fmts = {
        "A": CRSMatrix.from_coo(tri),
        "X": DenseVector(np.ones(n)),
        "Y": DenseVector.zeros(n),
    }
    config = ServiceConfig(workers=1, plan_cache=PlanCache("compiler"))
    with CompileSolveService(config) as svc:
        value = svc.compile(SPMV_SRC, fmts).value
    assert value["key_fingerprint"] == "f81e3a585994"
