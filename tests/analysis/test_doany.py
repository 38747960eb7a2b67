"""The binary DOANY view of the dependence analyzer (BER010-014): legal
nests verify, seeded races are caught."""

import pytest

from repro.analysis import check_program, check_source
from repro.compiler.parser import parse


def codes(report):
    return sorted({d.code for d in report.errors()})


# ----------------------------------------------------------------------
# clean programs
# ----------------------------------------------------------------------
@pytest.mark.parametrize(
    "src",
    [
        "for i in 0:n { for j in 0:n { Y[i] += A[i,j] * X[j] } }",  # spmv
        "for i in 0:n { for j in 0:n { Y[j] += A[i,j] * X[i] } }",  # spmv^T
        "for i in 0:n { Y[i] = alpha * X[i] }",  # covered plain assign
        "for z in 0:1 { for i in 0:n { S[z] += X[i] * Y[i] } }",  # scalar acc
        "for i in 0:n { for j in 0:m { for k in 0:l { C[i,k] += A[i,j] * B[j,k] } } }",
        # multi-statement, disjoint arrays
        "for i in 0:n { Y[i] += X[i] Z[i] = X[i] }",
        # reduce reading its own fully-covered target element
        "for i in 0:n { Y[i] += Y[i] * X[i] }",
    ],
)
def test_legal_nests_verify_clean(src):
    report = check_source(src)
    assert report.ok, report.render()
    infos = report.by_code("BER010")
    assert len(infos) == len(parse(src).body)


def test_clean_verdict_names_the_reason():
    rep = check_source("for i in 0:n { Y[i] += X[i] }")
    assert "legal reduction" in rep.by_code("BER010")[0].message
    rep = check_source("for i in 0:n { Y[i] = X[i] }")
    assert "iteration-independent" in rep.by_code("BER010")[0].message


# ----------------------------------------------------------------------
# seeded defects, one stable code each
# ----------------------------------------------------------------------
def test_plain_assign_not_covering_nest_is_rejected():
    # pipeline also rejects this; the checker must diagnose it BER011
    rep = check_source("for i in 0:n { for j in 0:n { Y[i] = A[i,j] } }")
    assert codes(rep) == ["BER011"]


def test_reduction_reading_own_target_permuted_is_rejected():
    rep = check_source("for i in 0:n { for j in 0:n { Y[i] += A[i,j] * Y[j] } }")
    assert codes(rep) == ["BER012"]


def test_non_reduction_loop_carried_write_is_rejected():
    # the acceptance defect: a plain assignment reading its own target.
    # The front end rewrites `Y[i] = Y[i] * X[i]` to a '*'-reduction, and
    # check_program does not normalize, so the rule is exercised on a
    # directly-built Program — for callers that construct ASTs themselves.
    from repro.compiler.ast_nodes import Assign, BinOp, LoopSpec, Program, Ref

    prog = Program(
        loops=(LoopSpec("i", "0", "n"),),
        body=(
            Assign(
                target=Ref("Y", ("i",)),
                expr=BinOp("*", Ref("Y", ("i",)), Ref("X", ("i",))),
                reduce=False,
            ),
        ),
    )
    rep = check_program(prog)
    assert codes(rep) == ["BER012"]


def test_cross_statement_permuted_flow_dependence():
    rep = check_source(
        "for i in 0:n { for j in 0:n { Y[i,j] += A[i,j] Z[i,j] += Y[j,i] } }"
    )
    assert codes(rep) == ["BER013"]


def test_cross_statement_output_dependence():
    # two writes to the same array, one of them a plain assignment whose
    # tuple does not match: last-writer-wins depends on iteration order
    rep = check_source(
        "for i in 0:n { for j in 0:n { Y[i,j] += A[i,j] Y[j,i] = B[i,j] } }"
    )
    assert "BER014" in codes(rep)


def test_both_reductions_same_array_are_legal():
    rep = check_source("for i in 0:n { Y[i] += X[i] Y[i] += Z[i] }")
    assert rep.ok, rep.render()


# ----------------------------------------------------------------------
# diagnostics carry source carets
# ----------------------------------------------------------------------
def test_error_diagnostic_points_at_the_offending_ref():
    src = "for i in 0:n { for j in 0:n { Y[i] += A[i,j] * Y[j] } }"
    rep = check_source(src)
    (err,) = rep.errors()
    assert err.span is not None
    rendered = err.render()
    assert "^" in rendered and "Y[j]" in src[err.span.start : err.span.end]


def test_check_program_without_source_has_no_snippet():
    prog = parse("for i in 0:n { for j in 0:n { Y[i] += A[i,j] * Y[j] } }")
    (err,) = check_program(prog).errors()
    assert err.render().count("\n") == 0  # no caret block without source
