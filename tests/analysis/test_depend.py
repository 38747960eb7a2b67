"""Dependence & reduction analyzer: lattice, certificates, self-check,
and the compile-path unlock (BER060-066)."""

import dataclasses

import numpy as np
import pytest

from repro.analysis import check_source
from repro.analysis.depend import (
    DOALL,
    DOANY,
    REDUCTION,
    SEQUENTIAL,
    ParallelismCertificate,
    Verdict,
    check_certificate,
    classify_source,
    program_fingerprint,
    run_depend_selfcheck,
)
from repro.compiler import clear_kernel_cache, compile_kernel
from repro.compiler.parser import parse
from repro.compiler.reference import run_reference
from repro.errors import VerificationError
from repro.formats.coo import COOMatrix
from repro.formats.crs import CRSMatrix
from repro.formats.dense import DenseVector

SPMV = "for i in 0:n { for j in 0:m { Y[i] += A[i,j] * X[j] } }"
ENTRYWISE = "for i in 0:n { for j in 0:m { C[i,j] = A[i,j] * B[i,j] } }"
ROWPROD = "for i in 0:n { for j in 0:m { Y[i] = Y[i] * A[i,j] } }"
ROWMIN = "for i in 0:n { for j in 0:m { M[i] = min(M[i], A[i,j]) } }"
GAUSS_SEIDEL = "for i in 0:n { for j in 0:n { X[i] = X[i] - A[i,j] * X[j] } }"


def _crs(n=4, seed=0):
    rng = np.random.default_rng(seed)
    d = (rng.random((n, n)) < 0.7) * rng.choice([-2.0, -1.0, 1.0, 2.0], (n, n))
    return CRSMatrix.from_coo(COOMatrix.from_dense(d))


# ----------------------------------------------------------------------
# the lattice
# ----------------------------------------------------------------------
def test_lattice_join_orders_by_rank():
    order = [Verdict(DOALL), Verdict(DOANY), Verdict(REDUCTION, "*"),
             Verdict(SEQUENTIAL)]
    for a in order:
        for b in order:
            j = a.join(b)
            assert j.rank == max(a.rank, b.rank)
            assert j == b.join(a)  # commutative


def test_lattice_join_mixed_reduction_ops_is_sequential():
    assert Verdict(REDUCTION, "*").join(Verdict(REDUCTION, "min")) == Verdict(
        SEQUENTIAL
    )
    assert Verdict(REDUCTION, "max").join(Verdict(REDUCTION, "max")) == Verdict(
        REDUCTION, "max"
    )


def test_verdict_validates_its_shape():
    with pytest.raises(ValueError):
        Verdict("MAYBE")
    with pytest.raises(ValueError):
        Verdict(REDUCTION)  # REDUCTION needs an op
    with pytest.raises(ValueError):
        Verdict(DOALL, op="*")  # only REDUCTION carries one
    assert Verdict(REDUCTION, "min").label() == "REDUCTION(min)"


# ----------------------------------------------------------------------
# classification verdicts + evidence
# ----------------------------------------------------------------------
def test_entrywise_is_doall_with_disjoint_evidence():
    cls = classify_source(ENTRYWISE)
    assert cls.verdict == Verdict(DOALL)
    for lv in cls.loops:
        assert lv.verdict == Verdict(DOALL)
        assert any(e.kind == "disjoint" for e in lv.evidence)
    assert cls.report.ok


def test_spmv_is_doany_on_the_reduction_loop():
    cls = classify_source(SPMV)
    assert cls.verdict == Verdict(DOANY)
    by_var = {lv.var: lv for lv in cls.loops}
    assert by_var["i"].verdict == Verdict(DOALL)
    assert by_var["j"].verdict == Verdict(DOANY)
    assert any(e.kind == "commutes" for e in by_var["j"].evidence)


@pytest.mark.parametrize(
    "src,op", [(ROWPROD, "*"), (ROWMIN, "min")]
)
def test_recognized_reductions_classify_with_op(src, op):
    cls = classify_source(src)
    assert cls.verdict == Verdict(REDUCTION, op)
    assert cls.report.ok  # admissible: no error-severity findings
    assert "BER063" in cls.report.codes()


def test_sequential_nest_carries_witness_pair():
    cls = classify_source(GAUSS_SEIDEL)
    assert cls.verdict == Verdict(SEQUENTIAL)
    witnesses = cls.report.by_code("BER062")
    assert witnesses and all(d.severity == "error" for d in witnesses)
    assert any("X[j]" in d.message for d in witnesses)
    # classification-as-a-product mode downgrades witnesses to warnings
    soft = classify_source(GAUSS_SEIDEL, gate=False)
    assert soft.report.ok
    assert all(d.severity == "warn" for d in soft.report.by_code("BER062"))


def test_every_classification_issues_a_certificate():
    cls = classify_source(SPMV)
    cert = cls.certificate
    assert cert.version == 1
    assert cert.verdict == cls.verdict
    assert cert.fingerprint == program_fingerprint(cls.program)
    assert "BER061" in cls.report.codes()
    # payload round-trips to plain JSON types
    d = cert.to_dict()
    assert d["verdict"] == {"kind": DOANY, "op": None}
    assert [lv["var"] for lv in d["loops"]] == ["i", "j"]


# ----------------------------------------------------------------------
# certificate validation
# ----------------------------------------------------------------------
def test_check_certificate_accepts_the_real_thing():
    cls = classify_source(ROWPROD)
    assert check_certificate(cls.program, cls.certificate).ok


def test_check_certificate_rejects_wrong_program():
    cls = classify_source(ROWPROD)
    other = parse(SPMV)
    chk = check_certificate(other, cls.certificate)
    assert not chk.ok
    assert chk.errors()[0].code == "BER064"
    assert "fingerprint" in chk.errors()[0].message


def test_check_certificate_rejects_tampered_verdict():
    cls = classify_source(ROWPROD)
    lied = dataclasses.replace(
        cls.certificate,
        verdict=Verdict(DOALL),
        loops=tuple(
            dataclasses.replace(lv, verdict=Verdict(DOALL), evidence=())
            for lv in cls.certificate.loops
        ),
    )
    chk = check_certificate(cls.program, lied)
    assert not chk.ok
    assert any("verdict mismatch" in d.message for d in chk.errors())


def test_check_certificate_rejects_inconsistent_join():
    cls = classify_source(ROWPROD)
    lied = dataclasses.replace(cls.certificate, verdict=Verdict(DOANY))
    chk = check_certificate(cls.program, lied)
    assert any("join" in d.message for d in chk.errors())


def test_check_certificate_rejects_missing_and_stale_shapes():
    cls = classify_source(ROWPROD)
    assert not check_certificate(cls.program, None).ok
    v2 = dataclasses.replace(cls.certificate, version=2)
    assert not check_certificate(cls.program, v2).ok
    dropped = dataclasses.replace(cls.certificate, loops=cls.certificate.loops[:1])
    chk = check_certificate(cls.program, dropped)
    assert any("loops" in d.message for d in chk.errors())


def test_check_certificate_rejects_fabricated_evidence():
    cls = classify_source(ROWPROD)
    bad_loops = []
    for lv in cls.certificate.loops:
        bad_loops.append(
            dataclasses.replace(
                lv,
                evidence=tuple(
                    dataclasses.replace(e, statements=(7,)) for e in lv.evidence
                ),
            )
        )
    forged = dataclasses.replace(cls.certificate, loops=tuple(bad_loops))
    chk = check_certificate(cls.program, forged)
    assert any("outside the program body" in d.message for d in chk.errors())


# ----------------------------------------------------------------------
# mutation self-check
# ----------------------------------------------------------------------
def test_selfcheck_catches_every_planted_mutant():
    report = run_depend_selfcheck()
    assert report.ok, report.render("error")
    assert not report.by_code("BER065")
    assert len(report.by_code("BER066")) >= 10  # mutants × probes actually ran


# ----------------------------------------------------------------------
# the compile-path unlock (acceptance)
# ----------------------------------------------------------------------
def test_reduction_kernel_compiles_with_certificate_and_matches_oracle():
    # pre-lattice this nest raised VerificationError; now it must compile
    # with a REDUCTION(*) certificate and agree with the scalar oracle
    # bitwise (values are ±1/±2 so products are exact powers of two)
    n = 5
    A = _crs(n, seed=3)
    y0 = np.array([1.0, -2.0, 1.0, 2.0, -1.0])
    kern = compile_kernel(
        ROWPROD, {"A": A, "Y": DenseVector.zeros(n)}, cache=False
    )
    assert kern.certificate is not None
    assert kern.certificate.verdict == Verdict(REDUCTION, "*")
    y = DenseVector(y0.copy())
    kern(A=A, Y=y)
    ref = run_reference(parse(ROWPROD), {"A": A.to_dense(), "Y": y0}, sparse={"A"})
    assert y.vals.tobytes() == ref["Y"].tobytes()


def test_sequential_kernel_still_fails_loudly_with_witness():
    n = 4
    with pytest.raises(VerificationError) as e:
        compile_kernel(
            GAUSS_SEIDEL,
            {"A": _crs(n), "X": DenseVector.zeros(n)},
            cache=False,
        )
    assert "SEQUENTIAL" in str(e.value)
    assert any(d.code == "BER062" for d in e.value.diagnostics)


def test_mixed_operator_reductions_on_different_arrays_are_admitted():
    # finding of the doany/depend fold (see test_depend_golden.py): loop i
    # carries a '*'-reduction on Z, loop j a max-reduction on Y.  The
    # per-loop verdicts join to the label SEQUENTIAL (no single operator
    # names the nest), but there is no witness — each update commutes with
    # itself and the arrays are disjoint — so the gate admits the nest,
    # the binary view is clean, and the kernel agrees with the oracle.
    src = "for i in 0:n { for j in 0:n { Y[i] = max(Y[i], A[i,j]) Z[j] = A[i,j] * Z[j] } }"
    cls = classify_source(src)
    assert [lv.verdict for lv in cls.loops] == [
        Verdict(REDUCTION, "*"), Verdict(REDUCTION, "max")
    ]
    assert cls.verdict == Verdict(SEQUENTIAL)
    assert cls.report.ok and not cls.report.by_code("BER062")
    assert check_source(src).ok
    n = 5
    A = _crs(n, seed=2)
    y, z = DenseVector.zeros(n), DenseVector(np.ones(n))
    kern = compile_kernel(src, {"A": A, "Y": y, "Z": z}, cache=False)
    assert check_certificate(kern.program, kern.certificate).ok
    kern(A=A, Y=y, Z=z)
    ref = run_reference(
        parse(src),
        {"A": A.to_dense(), "Y": np.zeros(n), "Z": np.ones(n)},
        sparse={"A"},
    )
    assert y.vals.tobytes() == ref["Y"].tobytes()
    assert z.vals.tobytes() == ref["Z"].tobytes()


def test_cache_hit_revalidates_certificate():
    clear_kernel_cache()
    n = 4
    A = _crs(n, seed=1)
    formats = {"A": A, "Y": DenseVector.zeros(n)}
    k1 = compile_kernel(ROWPROD, formats, extra_key="depend-cache-test")
    k2 = compile_kernel(ROWPROD, formats, extra_key="depend-cache-test")
    assert k2 is k1  # warm hit — and the revalidation above passed
    # corrupt the cached plan's certificate: the next hit must refuse to
    # serve it rather than trust a stale parallelism claim
    k1.certificate = classify_source(SPMV).certificate
    with pytest.raises(VerificationError) as e:
        compile_kernel(ROWPROD, formats, extra_key="depend-cache-test")
    assert any(d.code == "BER064" for d in e.value.diagnostics)
    clear_kernel_cache()
