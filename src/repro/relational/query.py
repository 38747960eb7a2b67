"""Query IR: what the compiler extracts from a dense loop nest (Eq. 4/6).

A :class:`Query` is the relational form of one DOANY statement:

    Q_sparse = σ_P ( I(i,j,...) ⋈ A(i,j,a) ⋈ X(j,x) ⋈ Y(i,y) ⋈ P(i,i') ... )

* the *iteration term* covers the loop bounds (the relation I),
* one *array term* per distinct array reference, carrying which loop
  indices address each dimension and the name of its value field,
* optional *translation terms* for permutations (paper Sec 2.2),
* the sparsity predicate σ_P.

The IR is deliberately independent of storage formats: the planner combines
it with per-array access-method descriptions to produce an executable plan.
All nodes are immutable and hashable (they key the kernel cache).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable

from repro.errors import CompileError
from repro.relational.predicates import Predicate, TruePred

__all__ = ["RelTerm", "IndexVar", "Query"]


@dataclass(frozen=True)
class IndexVar:
    """A loop index with its half-open dense bounds ``lo <= v < hi``.

    Bounds are symbolic strings (e.g. ``"0"``, ``"n"``); they are resolved
    to integers at kernel-bind time from the arrays' shapes or explicit
    arguments.
    """

    name: str
    lo: str = "0"
    hi: str = "n"

    def __repr__(self):
        return f"{self.name}∈[{self.lo},{self.hi})"


@dataclass(frozen=True)
class RelTerm:
    """One relation in the join: an array viewed as index/value tuples.

    Parameters
    ----------
    array:
        The program-level array name (``"A"``).
    indices:
        Loop-index names addressing each dimension, in dimension order
        (``("i", "j")`` for ``A[i,j]``).
    value:
        Name of the value field (``"a"``), or ``None`` for index-translation
        relations that carry no value.
    kind:
        ``"array"`` for data arrays, ``"translation"`` for permutations /
        index-translation relations.
    """

    array: str
    indices: tuple[str, ...]
    value: str | None = None
    kind: str = "array"

    def __post_init__(self):
        object.__setattr__(self, "indices", tuple(self.indices))
        if self.kind not in ("array", "translation"):
            raise CompileError(f"bad term kind {self.kind!r}")

    def fields(self) -> tuple[str, ...]:
        """All fields of the relation this term denotes."""
        return self.indices + ((self.value,) if self.value else ())

    def __repr__(self):
        v = f",{self.value}" if self.value else ""
        return f"{self.array}({','.join(self.indices)}{v})"


@dataclass(frozen=True)
class Query:
    """σ_P ( I ⋈ term_1 ⋈ ... ⋈ term_k ), plus which term is written.

    ``output`` names the array term that the statement stores into (the
    reduction target for ``+=`` statements); every other term is read-only.
    """

    index_vars: tuple[IndexVar, ...]
    terms: tuple[RelTerm, ...]
    predicate: Predicate = field(default_factory=TruePred)
    output: str | None = None

    def __post_init__(self):
        object.__setattr__(self, "index_vars", tuple(self.index_vars))
        object.__setattr__(self, "terms", tuple(self.terms))
        names = [v.name for v in self.index_vars]
        if len(set(names)) != len(names):
            raise CompileError(f"duplicate index vars {names}")
        known = set(names)
        for t in self.terms:
            for ix in t.indices:
                if ix not in known:
                    raise CompileError(
                        f"term {t} uses index {ix!r} not bound by a loop"
                    )
        if self.output is not None and self.output not in {t.array for t in self.terms}:
            raise CompileError(f"output {self.output!r} is not a term")

    def term_for(self, array: str) -> RelTerm:
        """The (first) term referencing ``array``."""
        for t in self.terms:
            if t.array == array:
                return t
        raise CompileError(f"no term for array {array!r}")

    def terms_using(self, index: str) -> tuple[RelTerm, ...]:
        """All terms whose relation constrains ``index``."""
        return tuple(t for t in self.terms if index in t.indices)

    def index_names(self) -> tuple[str, ...]:
        return tuple(v.name for v in self.index_vars)

    def __repr__(self):
        joins = " ⋈ ".join(map(repr, self.terms))
        return f"σ_{self.predicate!r}( I({','.join(self.index_names())}) ⋈ {joins} )"
