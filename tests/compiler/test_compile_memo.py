"""The warm ``compile_kernel`` path: parse, classification and the program
part of the cache key are memoized per source text; the on-hit certificate
check is an equality with the certificate this request classifies to, and
anything else still goes through the full BER064 re-derivation."""

import dataclasses

import numpy as np
import pytest

import repro.analysis.depend as depend
from repro.compiler import compile_kernel
from repro.compiler.kernels import clear_kernel_cache
from repro.compiler.parser import parse
from repro.errors import ParseError, VerificationError
from repro.formats import COOMatrix, CRSMatrix, DenseVector
from repro.kernels.spmv import SPMV_SRC

GAUSS_SEIDEL = "for i in 0:n { for j in 0:n { X[i] = X[i] - A[i,j] * X[j] } }"


def _formats(n=6):
    A = CRSMatrix.from_coo(COOMatrix.random(n, n, 0.5, rng=2))
    return {"A": A, "X": DenseVector(np.ones(n)), "Y": DenseVector.zeros(n)}


def test_parse_is_memoized_per_source_text_and_errors_are_not():
    assert parse(SPMV_SRC) is parse(SPMV_SRC)
    for _ in range(2):
        with pytest.raises(ParseError):
            parse("for i in 0:n { Y[i] += }")


def test_sequential_nest_is_rejected_on_every_request():
    f = _formats()
    for cache in (True, True, False, True):
        with pytest.raises(VerificationError) as e:
            compile_kernel(GAUSS_SEIDEL, {"A": f["A"], "X": f["X"]}, cache=cache)
        assert any(d.code == "BER062" for d in e.value.diagnostics)


def test_matching_certificate_on_a_hit_needs_no_rederivation(monkeypatch):
    clear_kernel_cache()
    f = _formats()
    k1 = compile_kernel(SPMV_SRC, f)

    def boom(*a, **k):
        raise AssertionError("full re-derivation on a hit whose certificate matches")

    monkeypatch.setattr(depend, "check_certificate", boom)
    assert compile_kernel(SPMV_SRC, f) is k1
    # an equal-but-not-identical certificate (e.g. unpickled) is still a match
    k1.certificate = dataclasses.replace(k1.certificate)
    assert compile_kernel(SPMV_SRC, f) is k1


def test_any_other_certificate_on_a_hit_is_rederived_and_refused():
    clear_kernel_cache()
    f = _formats()
    k1 = compile_kernel(SPMV_SRC, f)
    good = k1.certificate
    k1.certificate = dataclasses.replace(good, verdict=depend.Verdict(depend.SEQUENTIAL))
    with pytest.raises(VerificationError) as e:
        compile_kernel(SPMV_SRC, f)
    assert any(d.code == "BER064" for d in e.value.diagnostics)
    k1.certificate = good
    assert compile_kernel(SPMV_SRC, f) is k1
    clear_kernel_cache()
