"""The compiler's relational IR (paper Section 2, Appendix B).

Arrays — sparse and dense — are modelled as relations of index/value tuples,
and a loop nest as a query over them.  This package holds the two IRs the
compiler builds and rewrites:

* :mod:`~repro.relational.predicates` — the sparsity-predicate IR
  (NZ literals combined with AND/OR, normalized to DNF),
* :mod:`~repro.relational.query` — the query IR the compiler extracts from a
  loop nest (Eq. 4 / Eq. 6 of the paper).

No relation is materialized here: the compiler lowers queries to code.
"""

from repro.relational.predicates import (
    NZ,
    And,
    Or,
    TruePred,
    FalsePred,
    Predicate,
    to_dnf,
)
from repro.relational.query import RelTerm, Query

__all__ = [
    "NZ",
    "And",
    "Or",
    "TruePred",
    "FalsePred",
    "Predicate",
    "to_dnf",
    "RelTerm",
    "Query",
]
