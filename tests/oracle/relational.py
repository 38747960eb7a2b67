"""A small relational evaluator: the test oracle for the paper's equations.

A relation is a bag of rows over named columns.  The operators are the ones
Eqs. 6, 15, 21 and 22 are written in: natural join (a dict on the shared
columns), selection, projection with set semantics (the paper's π), and
union, which keeps multiplicity so that a row two fragments both claim shows
up twice.  Rows are plain Python tuples kept sorted, so two relations are
equal exactly when they have the same columns and the same rows as a bag.
``ind``, ``fragment`` and ``perm`` build the paper's IND, A^(p) and P
relations from a distribution, a row fragment and a permutation.
"""

from __future__ import annotations

import numpy as np


class Rel:
    def __init__(self, fields, rows):
        self.fields = tuple(fields)
        self.rows = sorted(tuple(r) for r in rows)

    @classmethod
    def of(cls, **columns):
        """From equal-length columns (scalars broadcast): ``Rel.of(i=…, p=0)``."""
        cols = np.broadcast_arrays(*(np.asarray(c) for c in columns.values()))
        return cls(columns, zip(*(c.tolist() for c in cols)))

    def __eq__(self, other):
        return self.fields == other.fields and self.rows == other.rows

    def __len__(self):
        return len(self.rows)

    def __repr__(self):
        return f"Rel({self.fields}, {self.rows})"

    def join(self, other):
        """Natural join ⋈ on every column the two relations share."""
        keys = [f for f in self.fields if f in other.fields]
        rest = [k for k, f in enumerate(other.fields) if f not in keys]
        mine = [self.fields.index(f) for f in keys]
        theirs = [other.fields.index(f) for f in keys]
        table: dict[tuple, list[tuple]] = {}
        for r in other.rows:
            table.setdefault(tuple(r[k] for k in theirs), []).append(tuple(r[k] for k in rest))
        rows = [r + s for r in self.rows for s in table.get(tuple(r[k] for k in mine), ())]
        return Rel(self.fields + tuple(other.fields[k] for k in rest), rows)

    def select(self, pred):
        """σ: the rows for which ``pred(**row)`` holds."""
        return Rel(self.fields, [r for r in self.rows if pred(**dict(zip(self.fields, r)))])

    def project(self, *fields):
        """π with set semantics: duplicate rows collapse."""
        idx = [self.fields.index(f) for f in fields]
        return Rel(fields, {tuple(r[k] for k in idx) for r in self.rows})

    def union(self, *others):
        """Bag union ∪ of relations over the same columns."""
        for o in others:
            assert o.fields == self.fields, (self.fields, o.fields)
        return Rel(self.fields, [r for rel in (self, *others) for r in rel.rows])


def ind(dist, i="i", p="p", ip="ip"):
    """IND(i, p, i') from the distribution's owner map."""
    g = np.arange(dist.nglobal)
    return Rel.of(**{i: g, p: dist.owner(g), ip: dist.local_index(g)})


def fragment(frag):
    """A^(p)(i', j, a) from the fragment's COO arrays."""
    m = frag.matrix
    return Rel.of(ip=m.row, j=m.col, a=m.vals)


def perm(P, i="i", ip="ip"):
    """P(i, i') from ``Permutation.perm``."""
    return Rel.of(**{i: np.arange(len(P)), ip: P.perm})
