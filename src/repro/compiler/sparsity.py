"""Sparsity-predicate derivation — the Bik–Wijshoff algorithm (paper Eq. 3).

``sparsity_predicate(expr, sparse)`` computes the predicate under which the
expression can be nonzero, by bottom-up zero-propagation:

* a literal 0 is never nonzero; any other literal or free scalar may be,
* a reference to a sparse array is nonzero only where NZ(A(idx)) holds;
  dense arrays contribute TRUE,
* products/quotients are nonzero only when the left factor is *and*
  (for products) the right factor is — conjunction,
* sums/differences may be nonzero when either side is — disjunction.

``split_statement`` decomposes an additive reduction (``Y += e1 + e2``)
into one statement per additive term so each carries a purely conjunctive
predicate — the union query of the ∨-predicate becomes a sequence of
independent conjunctive queries.
"""

from __future__ import annotations

from repro.compiler.ast_nodes import Assign, BinOp, Expr, MinMax, Neg, Num, Ref, Scalar
from repro.errors import SparsityError
from repro.observability.trace import span
from repro.relational.predicates import NZ, Predicate, TruePred, FalsePred, conj, disj

__all__ = ["sparsity_predicate", "split_statement", "distribute"]


def sparsity_predicate(expr: Expr, sparse: frozenset[str] | set[str]) -> Predicate:
    """Predicate under which ``expr`` may be nonzero.

    ``sparse`` is the set of array names declared (or known, by storage
    format) to be sparse.  Raises :class:`SparsityError` for a sparse
    array in a denominator — dividing by an implicit zero has no
    consistent guarded semantics.
    """
    if isinstance(expr, Num):
        return FalsePred() if expr.value == 0 else TruePred()
    if isinstance(expr, Scalar):
        return TruePred()
    if isinstance(expr, Ref):
        if expr.array in sparse:
            return NZ(expr.array, expr.indices)
        return TruePred()
    if isinstance(expr, Neg):
        return sparsity_predicate(expr.operand, sparse)
    if isinstance(expr, MinMax):
        # min/max may be nonzero whenever either operand may be
        return disj(
            sparsity_predicate(expr.left, sparse),
            sparsity_predicate(expr.right, sparse),
        )
    if isinstance(expr, BinOp):
        if expr.op == "*":
            return conj(
                sparsity_predicate(expr.left, sparse),
                sparsity_predicate(expr.right, sparse),
            )
        if expr.op == "/":
            for r in expr.right.refs():
                if r.array in sparse:
                    raise SparsityError(
                        f"sparse array {r.array!r} used as a denominator; "
                        "division by an implicit zero is undefined"
                    )
            return sparsity_predicate(expr.left, sparse)
        # + and -
        return disj(
            sparsity_predicate(expr.left, sparse),
            sparsity_predicate(expr.right, sparse),
        )
    raise SparsityError(f"cannot analyze expression {expr!r}")


def distribute(expr: Expr) -> Expr:
    """Distribute products (and quotients) over sums: sum-of-products form.

    ``(A + B) * X`` becomes ``A*X + B*X`` so that, after additive
    splitting, every statement carries a purely *conjunctive* sparsity
    predicate (each disjunct of the ∨-predicate becomes its own
    statement).
    """
    if isinstance(expr, Neg):
        return Neg(distribute(expr.operand))
    if not isinstance(expr, BinOp):
        return expr
    left = distribute(expr.left)
    right = distribute(expr.right)
    if expr.op in ("+", "-"):
        return BinOp(expr.op, left, right)
    if expr.op == "*":
        lterms = _additive_terms(left, False)
        rterms = _additive_terms(right, False)
        if len(lterms) == 1 and len(rterms) == 1:
            return BinOp("*", left, right)
        prods = [BinOp("*", lt, rt) for lt in lterms for rt in rterms]
        return _sum_of(prods)
    # division: distribute the numerator only
    lterms = _additive_terms(left, False)
    if len(lterms) == 1:
        return BinOp("/", left, right)
    return _sum_of([BinOp("/", lt, right) for lt in lterms])


def _sum_of(terms: list[Expr]) -> Expr:
    out = terms[0]
    for t in terms[1:]:
        out = BinOp("+", out, t)
    return out


def _additive_terms(expr: Expr, negate: bool) -> list[Expr]:
    """Flatten top-level +/- into a list of (possibly negated) terms."""
    if isinstance(expr, BinOp) and expr.op in ("+", "-"):
        left = _additive_terms(expr.left, negate)
        right = _additive_terms(expr.right, negate ^ (expr.op == "-"))
        return left + right
    if isinstance(expr, Neg):
        return _additive_terms(expr.operand, not negate)
    return [Neg(expr) if negate else expr]


def split_statement(stmt: Assign) -> list[Assign]:
    """Split an additive statement into one reduction per additive term.

    ``Y[i] += A[i,j]*X[j] + B[i,j]*Z[j]`` becomes two ``+=`` statements.
    A plain assignment splits into a zero-filling first statement (still
    ``reduce=False``, compiled as "zero output, then accumulate") followed
    by ``+=`` statements for the remaining terms.  Statements that are not
    top-level sums are returned unchanged.
    """
    with span("compiler.sparsity.split", statement=repr(stmt)) as sp:
        if stmt.reduce and stmt.op != "+":
            # a non-additive reduction combines whole RHS values; splitting
            # `Y *= a + b` into two statements would change its meaning
            sp.set(pieces=1)
            return [stmt]
        terms = _additive_terms(distribute(stmt.expr), negate=False)
        if len(terms) == 1:
            sp.set(pieces=1)
            return [stmt]
        out = [Assign(stmt.target, terms[0], reduce=stmt.reduce)]
        out.extend(Assign(stmt.target, t, reduce=True) for t in terms[1:])
        sp.set(pieces=len(out), split=[repr(s) for s in out])
    return out
