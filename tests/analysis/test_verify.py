"""compile_kernel's dependence gate: a racy nest raises, a clean one compiles."""

import numpy as np
import pytest

from repro.compiler import compile_kernel
from repro.errors import CompileError, VerificationError
from repro.formats.coo import COOMatrix
from repro.formats.crs import CRSMatrix
from repro.formats.dense import DenseMatrix, DenseVector

# accepted by the per-statement pipeline, but carries a cross-statement
# permuted flow dependence the DOANY checker must reject (BER013)
RACY = "for i in 0:n { for j in 0:n { Y[i,j] += A[i,j] Z[i,j] += Y[j,i] } }"
CLEAN = "for i in 0:n { for j in 0:n { Y[i] += A[i,j] * X[j] } }"


def _formats_racy():
    d = np.eye(4)
    A = CRSMatrix.from_coo(COOMatrix.from_dense(d))
    return {"A": A, "Y": DenseMatrix.zeros(4, 4), "Z": DenseMatrix.zeros(4, 4)}


def _formats_clean():
    d = np.eye(4)
    A = CRSMatrix.from_coo(COOMatrix.from_dense(d))
    return {"A": A, "X": DenseVector(np.ones(4)), "Y": DenseVector.zeros(4)}


def test_default_verify_rejects_racy_nest():
    with pytest.raises(VerificationError) as e:
        compile_kernel(RACY, _formats_racy(), cache=False)
    err = e.value
    assert err.diagnostics and err.diagnostics[0].code == "BER013"
    assert "BER013" in str(err)


def test_verification_error_is_a_compile_error():
    with pytest.raises(CompileError):
        compile_kernel(RACY, _formats_racy(), cache=False)


def test_clean_kernel_passes_default_verification():
    k = compile_kernel(CLEAN, _formats_clean(), cache=False)
    out = DenseVector.zeros(4)
    k(A=_formats_clean()["A"], X=DenseVector(np.ones(4)), Y=out)
    assert np.allclose(out.vals, np.ones(4))


def test_bad_verify_value_is_rejected_early():
    """The gate is not a caller option: any ``verify=`` is refused before
    a pass runs, so no request can opt a racy nest out of it."""
    for value in ("off", "warn", "maybe"):
        with pytest.raises(TypeError, match="verify"):
            compile_kernel(RACY, _formats_racy(), cache=False, verify=value)
