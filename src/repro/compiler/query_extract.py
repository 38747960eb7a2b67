"""Loop nest → relational query (paper Eq. 4).

Each (split, normalized) statement becomes one :class:`Query`:

    Q_sparse = σ_P ( I(i, j, ...) ⋈ A(i,j,a) ⋈ X(j,x) ⋈ Y(i,y) )

* the iteration relation I carries the loop bounds,
* every *distinct* array reference contributes one term (two references to
  the same array with the same index tuple share a term; the same array
  with a different index tuple — e.g. A[i,j] and A[j,i] — is two terms and
  is rejected for now, matching the DOANY kernels the paper targets),
* the sparsity predicate σ_P comes from :mod:`repro.compiler.sparsity`.
"""

from __future__ import annotations

from repro.compiler.ast_nodes import Assign, Program
from repro.compiler.sparsity import sparsity_predicate
from repro.errors import CompileError
from repro.observability.trace import span
from repro.relational.query import IndexVar, Query, RelTerm

__all__ = ["extract_query"]


def extract_query(program: Program, stmt: Assign, sparse: frozenset[str] | set[str]) -> Query:
    """Build the query for one statement of the program.

    ``sparse`` — names of arrays with sparse storage (everything else is
    structurally dense).
    """
    with span("compiler.query_extract.extract", statement=repr(stmt)) as sp:
        index_vars = tuple(IndexVar(l.var, l.lo, l.hi) for l in program.loops)

        seen: dict[str, tuple[str, ...]] = {}
        order: list[str] = []
        for ref in (stmt.target,) + stmt.expr.refs():
            if ref.array in seen:
                if seen[ref.array] != ref.indices:
                    raise CompileError(
                        f"array {ref.array!r} referenced with two different index "
                        f"tuples ({seen[ref.array]} and {ref.indices}); "
                        "unsupported in this DOANY subset"
                    )
            else:
                seen[ref.array] = ref.indices
                order.append(ref.array)

        terms = tuple(RelTerm(a, seen[a], value=f"v_{a}") for a in order)
        predicate = sparsity_predicate(stmt.expr, sparse)
        query = Query(index_vars, terms, predicate, output=stmt.target.array)
        sp.set(
            terms=[repr(t) for t in terms],
            predicate=repr(predicate),
            sparse=sorted(sparse),
        )
    return query
