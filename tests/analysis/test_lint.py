"""Plan & generated-code linter: shipped kernels clean, doctored code caught."""

import numpy as np

from repro.analysis.lint import (
    lint_generated_source,
    lint_kernel,
    lint_plan,
    lint_shipped_kernels,
)
from repro.compiler import compile_kernel
from repro.formats.coo import COOMatrix
from repro.formats.crs import CRSMatrix
from repro.formats.dense import DenseMatrix, DenseVector


def codes(report):
    return sorted({d.code for d in report.errors() + report.warnings()})


def _crs(dense):
    return CRSMatrix.from_coo(COOMatrix.from_dense(np.asarray(dense, float)))


# ----------------------------------------------------------------------
# shipped kernels are structurally clean
# ----------------------------------------------------------------------
def test_shipped_kernels_lint_clean():
    report = lint_shipped_kernels()
    assert report.ok, report.render("error")


def test_spmv_kernel_lints_clean(paper_matrix):
    A = CRSMatrix.from_coo(paper_matrix)
    x = DenseVector(np.ones(6))
    y = DenseVector(np.zeros(6))
    formats = {"A": A, "X": x, "Y": y}
    k = compile_kernel(
        "for i in 0:n { for j in 0:n { Y[i] += A[i,j] * X[j] } }",
        formats,
        cache=False,
    )
    assert len(lint_kernel(k, formats)) == 0


# ----------------------------------------------------------------------
# plan lint: guarded enumerate×enumerate joins
# ----------------------------------------------------------------------
def test_guarded_enumerate_join_is_flagged():
    # Diagonal's run level binds BOTH axes; as a chained (non-driver) term
    # with only j bound, the level binds the new k while guarding on j —
    # the enumerate×enumerate join shape the linter must surface.
    from repro.formats.diagonal import DiagonalMatrix

    d = (np.arange(25).reshape(5, 5) % 3 == 0) * 2.0
    np.fill_diagonal(d, 1.0)
    A = _crs(d)
    D = DiagonalMatrix.from_coo(COOMatrix.from_dense(d))
    C = DenseMatrix.zeros(5, 5)
    formats = {"A": A, "D": D, "C": C}
    k = compile_kernel(
        "for i in 0:n { for j in 0:m { for k in 0:l { C[i,k] += A[i,j] * D[j,k] } } }",
        formats,
        cache=False,
        force_driver="A",
    )
    rep = lint_kernel(k, formats)
    assert "BER030" in codes(rep)
    (w,) = rep.by_code("BER030")
    assert "searchable" in w.message


def test_plan_lint_without_formats_still_flags():
    from repro.compiler.scheduling import Plan, Step
    from repro.relational.query import Query

    step = Step("enumerate", term="B", level_index=1, binds=(), guards=("j",))
    plan = Plan(
        query=Query.__new__(Query),
        driver="A",
        steps=(step,),
        accesses=(),
        cost=1.0,
    )
    rep = lint_plan(plan)
    assert [d.code for d in rep] == ["BER030"]


# ----------------------------------------------------------------------
# backend fallback
# ----------------------------------------------------------------------
def test_scalar_fallback_is_flagged():
    d = (np.arange(25).reshape(5, 5) % 3 == 0) * 1.0
    A, B = _crs(d), _crs(d)
    C = DenseMatrix.zeros(5, 5)
    formats = {"A": A, "B": B, "C": C}
    k = compile_kernel(
        "for i in 0:n { for j in 0:m { C[i,j] += A[i,j] * B[i,j] } }",
        formats,
        cache=False,
    )
    rep = lint_kernel(k, formats)
    if any(lbl.startswith("fallback") for lbl in k.unit_backends):
        assert "BER031" in codes(rep)
    else:  # pragma: no cover - vectorized strategy grew coverage
        assert "BER031" not in codes(rep)


# ----------------------------------------------------------------------
# generated-code lint on doctored sources
# ----------------------------------------------------------------------
PARAMS = ["A_vals", "Y_vals", "n"]


def test_unbound_name_is_caught():
    src = "def kernel(A_vals, Y_vals, n):\n    for i in range(n):\n        Y_vals[i] = A_vals[i] * ghost\n"
    rep = lint_generated_source(src, PARAMS, {"Y"})
    assert codes(rep) == ["BER032"]


def test_write_outside_outputs_is_caught():
    src = "def kernel(A_vals, Y_vals, n):\n    for i in range(n):\n        A_vals[i] = 0.0\n"
    rep = lint_generated_source(src, PARAMS, {"Y"})
    assert codes(rep) == ["BER033"]


def test_augmented_write_outside_outputs_is_caught():
    src = "def kernel(A_vals, Y_vals, n):\n    for i in range(n):\n        A_vals[i] += 1.0\n"
    rep = lint_generated_source(src, PARAMS, {"Y"})
    assert codes(rep) == ["BER033"]


def test_storage_shadowing_is_caught():
    src = "def kernel(A_vals, Y_vals, n):\n    A_vals = 0\n    Y_vals[0] = A_vals\n"
    rep = lint_generated_source(src, PARAMS, {"Y"})
    assert codes(rep) == ["BER034"]


def test_unparseable_source_is_one_error():
    rep = lint_generated_source("def kernel(:\n", PARAMS, {"Y"})
    assert codes(rep) == ["BER032"]


def test_clean_source_has_no_findings():
    src = (
        "def kernel(A_vals, Y_vals, n):\n"
        "    acc = 0.0\n"
        "    for i in range(n):\n"
        "        acc = acc + A_vals[i]\n"
        "        Y_vals[i] += acc\n"
    )
    assert len(lint_generated_source(src, PARAMS, {"Y"})) == 0


def test_every_shipped_kernel_source_parses_clean(paper_matrix):
    # the real emitted source for a multi-statement program
    A = CRSMatrix.from_coo(paper_matrix)
    x = DenseVector(np.ones(6))
    y = DenseVector(np.zeros(6))
    z = DenseVector(np.zeros(6))
    k = compile_kernel(
        "for i in 0:n { Y[i] += X[i] Z[i] = X[i] }",
        {"X": x, "Y": y, "Z": z},
        cache=False,
    )
    rep = lint_generated_source(k.source, k.param_names, {"Y", "Z"})
    assert rep.ok, rep.render()


# ----------------------------------------------------------------------
# BER035: the prepare/run split must not leak in either direction
# ----------------------------------------------------------------------
SPLIT_PARAMS = ["A_rowptr", "A_vals", "Y_vals", "n"]
SPLIT_HEAD = "def prepare(A_rowptr, n):\n{prepare}\n\ndef run(A_rowptr, A_vals, Y_vals, n, aux):\n{run}\n"


def split_codes(prepare, run):
    src = SPLIT_HEAD.format(prepare=prepare, run=run)
    return codes(lint_generated_source(src, SPLIT_PARAMS, {"Y"}))


def test_clean_split_has_no_findings():
    assert split_codes(
        "    _ne0 = np.flatnonzero(np.diff(A_rowptr))\n    return (_ne0,)",
        "    (_ne0,) = aux\n    for i in range(n):\n        Y_vals[_ne0] += np.add.reduceat(A_vals, A_rowptr[_ne0])",
    ) == []


def test_structure_recomputed_in_run_is_caught():
    # the leak this PR removed from the CRS kernel
    assert split_codes(
        "    return ()",
        "    _ne0 = np.flatnonzero(np.diff(A_rowptr))\n    Y_vals[_ne0] += np.add.reduceat(A_vals, A_rowptr[_ne0])",
    ) == ["BER035"]  # reported once, at the innermost structure-only call


def test_prepare_reading_values_is_caught():
    assert split_codes(
        "    _nz0 = np.flatnonzero(A_vals)\n    return (_nz0,)",
        "    (_nz0,) = aux\n    Y_vals[_nz0] += A_vals[_nz0]",
    ) == ["BER035"]


def test_prepare_writing_storage_is_caught():
    # an output's values are not prepare's to touch; a structure array is
    # not an output, so writing it anywhere is the existing BER033
    assert split_codes("    Y_vals[0] = 0.0\n    return ()", "    Y_vals[0] += A_vals[0]") == ["BER035"]
    assert split_codes("    A_rowptr[0] = 0\n    return ()", "    Y_vals[0] += A_vals[0]") == ["BER033"]


# ----------------------------------------------------------------------
# warm-cache dedupe: linting the same cached kernel twice reports once
# ----------------------------------------------------------------------
def test_warm_cache_double_lint_reports_each_finding_once():
    from repro.analysis.diagnostics import DiagnosticReport
    from repro.compiler import clear_kernel_cache

    clear_kernel_cache()
    A = _crs(np.eye(4))
    f = {"A": A, "X": DenseVector(np.ones(4)), "Y": DenseVector.zeros(4)}
    # composite denominator: the vectorizer declines, fallback:scalar
    # yields a deterministic BER031 warning
    src = "for i in 0:n { for j in 0:n { Y[i] += A[i,j] / (X[i] * X[i]) } }"
    k1 = compile_kernel(src, f)
    k2 = compile_kernel(src, f)  # warm PlanCache: the same kernel object
    assert k1 is k2

    once = lint_kernel(k1, f, where="warm")
    assert [d.code for d in once.warnings()] == ["BER031"]

    merged = DiagnosticReport()
    lint_kernel(k1, f, where="warm", into=merged)
    lint_kernel(k2, f, where="warm", into=merged)
    assert len(merged) == len(once), merged.render()
    assert [d.code for d in merged.warnings()] == ["BER031"]


def test_dedupe_keeps_distinct_findings_and_order():
    from repro.analysis.diagnostics import Diagnostic, DiagnosticReport

    a = Diagnostic("BER032", "error", "name 'g0' is unbound", location="l1")
    b = Diagnostic("BER032", "error", "name 'g1' is unbound", location="l1")
    rep = DiagnosticReport([a, b, a, b, a])
    rep.dedupe()
    assert [d.message for d in rep] == [a.message, b.message]


def test_unbound_name_not_doubled_across_repeated_lint():
    # the same doctored source linted twice into one report: the
    # identical BER032 must appear exactly once
    from repro.analysis.diagnostics import DiagnosticReport

    src = "def kernel(A_vals, Y_vals, n):\n    Y_vals[0] = ghost\n"
    rep = DiagnosticReport()
    rep.extend(lint_generated_source(src, ["A_vals", "Y_vals", "n"], {"Y"}))
    rep.extend(lint_generated_source(src, ["A_vals", "Y_vals", "n"], {"Y"}))
    assert len(rep) == 2  # duplicated before dedupe
    rep.dedupe()
    assert [d.code for d in rep] == ["BER032"]
