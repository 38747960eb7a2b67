"""Parser and AST tests."""

import pytest

from repro.compiler import parse
from repro.compiler.ast_nodes import (
    Assign,
    BinOp,
    LoopSpec,
    Neg,
    Num,
    Program,
    Ref,
    Scalar,
    normalize_statement,
)
from repro.compiler.parser import tokenize
from repro.errors import ParseError

SPMV = "for i in 0:n { for j in 0:n { Y[i] += A[i,j] * X[j] } }"


def test_tokenize():
    assert tokenize("Y[i] += 2.5 * X[j]") == ["Y", "[", "i", "]", "+=", "2.5", "*", "X", "[", "j", "]"]


def test_tokenize_comments_and_ws():
    assert tokenize("a # comment\n b") == ["a", "b"]


def test_tokenize_bad_char():
    with pytest.raises(ParseError):
        tokenize("a @ b")


def test_parse_spmv():
    p = parse(SPMV)
    assert p.loops == (LoopSpec("i", "0", "n"), LoopSpec("j", "0", "n"))
    [stmt] = p.body
    assert stmt.target == Ref("Y", ("i",))
    assert stmt.reduce
    assert stmt.expr == BinOp("*", Ref("A", ("i", "j")), Ref("X", ("j",)))


def test_parse_numeric_bounds():
    p = parse("for i in 0:10 { Y[i] = X[i] }")
    assert p.loops[0].hi == "10"


def test_parse_precedence():
    p = parse("for i in 0:n { Y[i] += A[i] + B[i] * C[i] }")
    e = p.body[0].expr
    assert e.op == "+" and isinstance(e.right, BinOp) and e.right.op == "*"


def test_parse_parens_and_neg():
    p = parse("for i in 0:n { Y[i] += -(A[i] + B[i]) * 2 }")
    e = p.body[0].expr
    assert e.op == "*" and isinstance(e.left, Neg)


def test_parse_scalar_and_number():
    p = parse("for i in 0:n { Y[i] += alpha * X[i] + 1.5 }")
    assert Scalar("alpha") in (p.body[0].expr.left.left, p.body[0].expr.left.right)
    assert p.scalar_names() == {"alpha", "n"}


def test_parse_multiple_statements():
    p = parse("for i in 0:n { Y[i] += X[i]; Z[i] += X[i] }")
    assert len(p.body) == 2
    assert p.arrays() == {"X", "Y", "Z"}


def test_parse_matrix_ref():
    p = parse("for i in 0:n { for j in 0:m { Z[i,j] = A[i,j] } }")
    assert p.body[0].target == Ref("Z", ("i", "j"))


def test_parse_unbound_index_rejected():
    with pytest.raises(ParseError):
        parse("for i in 0:n { Y[i] += X[j] }")


def test_parse_duplicate_loop_vars_rejected():
    with pytest.raises(ParseError):
        parse("for i in 0:n { for i in 0:n { Y[i] += X[i] } }")


def test_parse_trailing_tokens_rejected():
    with pytest.raises(ParseError):
        parse(SPMV + " zzz")


def test_parse_requires_for():
    with pytest.raises(ParseError):
        parse("Y[i] += X[i]")


def test_parse_bad_assign_op():
    # '/=' is not a statement operator (division is not a reduction)
    with pytest.raises(ParseError):
        parse("for i in 0:n { Y[i] /= X[i] }")


def test_normalize_self_addition_to_reduce():
    # the paper writes SpMV as Y(i) = Y(i) + A(i,j)*X(j)
    p = parse("for i in 0:n { for j in 0:n { Y[i] = Y[i] + A[i,j] * X[j] } }")
    assert p.body[0].reduce
    assert p.body[0].expr == BinOp("*", Ref("A", ("i", "j")), Ref("X", ("j",)))


def test_normalize_rejects_self_read_assignment():
    # a self-read under a non-associative operator cannot be normalized
    with pytest.raises(ParseError):
        parse("for i in 0:n { Y[i] = Y[i] / 2 }")


def test_normalize_self_product_to_mult_reduce():
    p = parse("for i in 0:n { Y[i] = Y[i] * 2 }")
    assert p.body[0].reduce and p.body[0].op == "*"


def test_normalize_self_min_to_min_reduce():
    p = parse("for i in 0:n { for j in 0:n { M[i] = min(M[i], A[i,j]) } }")
    assert p.body[0].reduce and p.body[0].op == "min"
    # the self-read is stripped from the normalized RHS
    assert all(r.array != "M" for r in p.body[0].expr.refs())


def test_parse_mult_reduce_statement_op():
    p = parse("for i in 0:n { for j in 0:n { Y[j] *= A[i,j] } }")
    assert p.body[0].reduce and p.body[0].op == "*"


def test_ref_requires_indices():
    with pytest.raises(ParseError):
        Ref("A", ())


def test_program_repr_roundtrippish():
    p = parse(SPMV)
    assert "for i in 0:n" in repr(p)
    assert "Y[i] += " in repr(p)


# ----------------------------------------------------------------------
# sequences of nests and scalar reductions
# ----------------------------------------------------------------------
SEQ = "for i in 0:n { for j in 0:n { Y[i] += A[i,j] * X[j] } } for i in 0:n { s += X[i] * Y[i] }"


def test_top_level_nests_parse_in_order_and_round_trip():
    p = parse(SEQ)
    assert [len(n.loops) for n in p.nests] == [2, 1]
    assert p.nests[1].body[0].target == Scalar("s") and p.nests[1].body[0].reduce
    assert p.scalar_targets() == ("s",) and p.arrays() == {"A", "X", "Y"}
    assert repr(p) == f"{p.nests[0]!r} for i in 0:n {{ s += (X[i] * Y[i]) }}"
    assert parse(SPMV).nests == (parse(SPMV),)  # one nest is its own sequence


def test_a_scalar_target_takes_a_plus_reduction():
    for src in ("for i in 0:n { s *= X[i] }", "for i in 0:n { s = X[i] }"):
        with pytest.raises(ParseError, match="takes a '\\+=' reduction"):
            parse(src)


@pytest.mark.parametrize(
    "src, message, at",
    [
        ("for i in 0:n { Y[i] += s * X[i] } for i in 0:n { s += X[i] }", "read before a nest that writes it", "s *"),
        ("for i in 0:n { s += X[i]  Y[i] += s }", "read before a nest that writes it", "s }"),
        ("for i in 0:n { s += X[i] } for i in 0:n { Y[i] += s[i] }", "both as a scalar and as an array", "s +="),
        ("for i in 0:n { Y[i] += X * X[i] }", "both as a scalar and as an array", "X *"),
    ],
    ids=["read-before-write", "read-in-its-nest", "scalar-then-array", "array-then-scalar"],
)
def test_scalar_misuse_is_a_parse_error_with_a_caret(src, message, at):
    with pytest.raises(ParseError, match=message) as err:
        parse(src)
    assert err.value.span.start == src.index(at) and "^" in str(err.value)


def test_an_unbound_input_scalar_is_a_bind_error_with_a_caret():
    """A scalar read before any nest writes it must be supplied at bind."""
    from repro.compiler import compile_kernel
    from repro.errors import CompileError
    from repro.formats import DenseVector

    src = "for i in 0:n { s += X[i] }\nfor i in 0:n { Y[i] += (s / alpha) * X[i] }"
    fm = {"X": DenseVector.zeros(3), "Y": DenseVector.zeros(3)}
    kern = compile_kernel(src, fm, cache=False)
    with pytest.raises(CompileError, match="missing scalar binding 'alpha'") as err:
        kern.bind(**fm)
    assert err.value.span.start == src.index("alpha") and "line 2" in str(err.value)
    assert kern.slots == ("alpha", "s")
