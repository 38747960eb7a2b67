"""Query extraction (loop nest → Eq. 4) and the query IR itself."""

import pytest

from repro.compiler.parser import parse
from repro.compiler.query_extract import extract_query
from repro.errors import CompileError
from repro.relational.predicates import NZ, TruePred, conj
from repro.relational.query import IndexVar, Query, RelTerm


def q_of(src, sparse):
    program = parse(src)
    return extract_query(program, program.body[0], sparse)


def test_spmv_query_terms():
    q = q_of("for i in 0:n { for j in 0:n { Y[i] += A[i,j] * X[j] } }", {"A", "X"})
    assert q.index_names() == ("i", "j")
    assert [t.array for t in q.terms] == ["Y", "A", "X"]
    assert q.term_for("A").indices == ("i", "j")
    assert q.term_for("X").indices == ("j",)
    assert q.output == "Y"
    assert q.predicate == conj(NZ("A", ("i", "j")), NZ("X", ("j",)))


def test_dense_query_predicate_true():
    q = q_of("for i in 0:n { Y[i] += X[i] }", set())
    assert q.predicate == TruePred()


def test_duplicate_ref_shares_term():
    q = q_of("for i in 0:n { Y[i] += A[i] * A[i] }", {"A"})
    assert [t.array for t in q.terms] == ["Y", "A"]


def test_conflicting_index_tuples_rejected():
    with pytest.raises(CompileError):
        q_of("for i in 0:n { for j in 0:n { Y[i] += A[i,j] * A[j,i] } }", {"A"})


def test_terms_using():
    q = q_of("for i in 0:n { for j in 0:n { Y[i] += A[i,j] * X[j] } }", {"A", "X"})
    assert {t.array for t in q.terms_using("j")} == {"A", "X"}
    assert {t.array for t in q.terms_using("i")} == {"Y", "A"}


def test_query_validation_unbound_index():
    with pytest.raises(CompileError, match="not bound by a loop"):
        Query(
            (IndexVar("i"),),
            (RelTerm("A", ("i", "j"), "a"),),
        )


def test_query_validation_duplicate_vars():
    with pytest.raises(CompileError, match="duplicate index vars"):
        Query((IndexVar("i"), IndexVar("i")), ())


def test_query_validation_output_must_be_term():
    with pytest.raises(CompileError, match="is not a term"):
        Query((IndexVar("i"),), (RelTerm("A", ("i",), "a"),), output="Z")


def test_relterm_fields_and_repr():
    t = RelTerm("A", ("i", "j"), "a")
    assert t.fields() == ("i", "j", "a")
    assert repr(t) == "A(i,j,a)"
    trans = RelTerm("P", ("i", "ip"), None, kind="translation")
    assert trans.fields() == ("i", "ip")


def test_relterm_bad_kind():
    with pytest.raises(CompileError, match="bad term kind"):
        RelTerm("A", ("i",), "a", kind="banana")


def test_query_repr_shows_joins():
    q = q_of("for i in 0:n { Y[i] += A[i] }", {"A"})
    assert "⋈" in repr(q)
    assert "NZ(A(i))" in repr(q)


def test_term_for_missing():
    q = q_of("for i in 0:n { Y[i] += A[i] }", {"A"})
    with pytest.raises(CompileError, match="no term for array"):
        q.term_for("Q")
