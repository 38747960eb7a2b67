"""AST of the dense-loop mini-language.

The input language is deliberately tiny: a sequence of perfectly nested
DOANY loops over half-open dense ranges, run in order, whose bodies are
assignment/reduction statements over scalar-indexed array references, e.g.::

    for i in 0:n { for j in 0:n { Y[i] += A[i,j] * X[j] } }

A bare name as a target (``s += X[i] * Y[i]``) is a scalar ``+``
reduction; a later nest may read the scalar it leaves (``s``).

All nodes are immutable and hashable (they key the kernel cache).
"""

from __future__ import annotations

import functools
from dataclasses import dataclass, field

from repro.errors import ParseError
from repro.sourceloc import SourceSpan

__all__ = [
    "Expr",
    "Num",
    "Scalar",
    "Ref",
    "BinOp",
    "Neg",
    "MinMax",
    "Stmt",
    "Assign",
    "LoopSpec",
    "Program",
    "REDUCTION_OPS",
    "normalize_statement",
    "normalize_program",
    "scalar_reads",
]

#: combine operators a reduction statement may use — each one is
#: associative and commutative, so iterations may execute in any order
REDUCTION_OPS = ("+", "*", "min", "max")


class Expr:
    """Base class of expressions."""

    def refs(self) -> tuple["Ref", ...]:
        """All array references, left to right, duplicates preserved."""
        raise NotImplementedError

    def scalars(self) -> frozenset[str]:
        """Names of free scalar variables."""
        raise NotImplementedError


@dataclass(frozen=True)
class Num(Expr):
    """A numeric literal."""

    value: float

    def refs(self):
        return ()

    def scalars(self):
        return frozenset()

    def __repr__(self):
        return repr(self.value)


@dataclass(frozen=True)
class Scalar(Expr):
    """A free scalar variable (bound at kernel-call time, or left by an
    earlier nest's scalar reduction)."""

    name: str
    #: source span (parser-provided; see :class:`Ref.span`)
    span: SourceSpan | None = field(default=None, compare=False, repr=False)

    #: as a statement's target, a scalar is the element ``()`` of ``name``
    array = property(lambda self: self.name)
    indices = ()

    def refs(self):
        return ()

    def scalars(self):
        return frozenset({self.name})

    def __repr__(self):
        return self.name


@dataclass(frozen=True)
class Ref(Expr):
    """An array reference ``A[i, j]`` — indices are loop-variable names."""

    array: str
    indices: tuple[str, ...]
    #: source span of the reference (parser-provided; excluded from
    #: equality/hash/repr so cache keys and dedup are span-insensitive)
    span: SourceSpan | None = field(default=None, compare=False, repr=False)

    def __post_init__(self):
        object.__setattr__(self, "indices", tuple(self.indices))
        if not self.indices:
            raise ParseError(f"reference to {self.array} has no indices", span=self.span)

    def refs(self):
        return (self,)

    def scalars(self):
        return frozenset()

    def __repr__(self):
        return f"{self.array}[{','.join(self.indices)}]"


@dataclass(frozen=True)
class BinOp(Expr):
    """Binary arithmetic: op ∈ {'+', '-', '*', '/'}."""

    op: str
    left: Expr
    right: Expr

    def __post_init__(self):
        if self.op not in ("+", "-", "*", "/"):
            raise ParseError(f"unknown operator {self.op!r}")

    def refs(self):
        return self.left.refs() + self.right.refs()

    def scalars(self):
        return self.left.scalars() | self.right.scalars()

    def __repr__(self):
        return f"({self.left!r} {self.op} {self.right!r})"


@dataclass(frozen=True)
class Neg(Expr):
    """Unary minus."""

    operand: Expr

    def refs(self):
        return self.operand.refs()

    def scalars(self):
        return self.operand.scalars()

    def __repr__(self):
        return f"(-{self.operand!r})"


@dataclass(frozen=True)
class MinMax(Expr):
    """``min(a, b)`` / ``max(a, b)`` — the lattice combine primitives.

    ``fn`` is ``"min"`` or ``"max"``.  These exist so reduction updates
    like ``M[i] = min(M[i], A[i,j])`` can be written (and recognized by
    :func:`normalize_statement` as ``min``-reductions).
    """

    fn: str
    left: Expr
    right: Expr

    def __post_init__(self):
        if self.fn not in ("min", "max"):
            raise ParseError(f"unknown combiner {self.fn!r}")

    def refs(self):
        return self.left.refs() + self.right.refs()

    def scalars(self):
        return self.left.scalars() | self.right.scalars()

    def __repr__(self):
        return f"{self.fn}({self.left!r}, {self.right!r})"


class Stmt:
    """Base class of statements."""


@dataclass(frozen=True)
class Assign(Stmt):
    """``target = expr`` (``reduce=False``) or ``target ⊕= expr``.

    ``op`` is the reduction's combine operator (one of
    :data:`REDUCTION_OPS`; meaningful only when ``reduce=True`` — plain
    assignments keep the default ``"+"``).  All four combine operators
    are associative and commutative, so a reduction's iterations commute
    with each other; which ones a given lowering exploits is the
    dependence analyzer's and the backends' business.

    Plain assignment with a sparse right-hand side is compiled as
    "zero-fill then guarded accumulate", which requires that the RHS does
    not read the target array (checked by :func:`normalize_statement`).
    A :class:`Scalar` target takes a ``+`` reduction, which starts from
    zero on every run.
    """

    target: Ref | Scalar
    expr: Expr
    reduce: bool = False
    #: combine operator of a reduction ("+", "*", "min", "max")
    op: str = "+"
    #: source span of the whole statement (see :class:`Ref.span`)
    span: SourceSpan | None = field(default=None, compare=False, repr=False)

    def __post_init__(self):
        if self.op not in REDUCTION_OPS:
            raise ParseError(f"unknown reduction operator {self.op!r}")
        if not self.reduce and self.op != "+":
            raise ParseError(
                f"plain assignment cannot carry reduction operator {self.op!r}"
            )
        if isinstance(self.target, Scalar) and (not self.reduce or self.op != "+"):
            raise ParseError(
                f"scalar target {self.target.name!r} takes a '+=' reduction",
                span=self.span,
            )

    def __repr__(self):
        op = f"{self.op}=" if self.reduce else "="
        return f"{self.target!r} {op} {self.expr!r}"


@dataclass(frozen=True)
class LoopSpec(Stmt):
    """``for var in lo:hi`` — bounds are integers or scalar names."""

    var: str
    lo: str = "0"
    hi: str = "n"

    def __repr__(self):
        return f"for {self.var} in {self.lo}:{self.hi}"


@dataclass(frozen=True)
class Program(Stmt):
    """A sequence of perfect loop nests that run in order: ``loops`` over
    ``body`` first, then each one-nest program of ``then``.

    A scalar a nest reduces into may be read by later nests only; every
    other scalar is an input bound at call time."""

    loops: tuple[LoopSpec, ...]
    body: tuple[Assign, ...]
    then: tuple["Program", ...] = ()

    def __post_init__(self):
        object.__setattr__(self, "loops", tuple(self.loops))
        object.__setattr__(self, "body", tuple(self.body))
        object.__setattr__(self, "then", tuple(self.then))
        names = [l.var for l in self.loops]
        if len(set(names)) != len(names):
            raise ParseError(f"duplicate loop variables {names}")
        bound = set(names)
        for stmt in self.body:
            for ref in (stmt.target,) + stmt.expr.refs():
                for ix in ref.indices:
                    if ix not in bound:
                        raise ParseError(
                            f"index {ix!r} in {ref!r} is not a loop variable",
                            span=ref.span,
                        )
        if any(nest.then for nest in self.then):
            raise ParseError("a nest of a sequence is one nest")
        self._check_scalars()

    def __hash__(self) -> int:
        return self._hash

    @functools.cached_property
    def _hash(self) -> int:
        """Hashed once: a program keys several memos on every compile."""
        return hash((self.loops, self.body, self.then))

    @functools.cached_property
    def nests(self) -> tuple["Program", ...]:
        """The one-nest programs, in run order."""
        return (Program(self.loops, self.body),) + self.then if self.then else (self,)

    def _check_scalars(self) -> None:
        """A name is a scalar or an array, never both; a reduced scalar is
        read only by nests after one that writes it."""
        arrays, reduced = self.arrays(), set(self.scalar_targets())
        bounds = {l.hi for nest in self.nests for l in nest.loops}
        written: set[str] = set()
        for nest in self.nests:
            targets = [s.target for s in nest.body if isinstance(s.target, Scalar)]
            reads = [r for s in nest.body for r in scalar_reads(s.expr)]
            for node in targets + reads:
                if node.name in arrays:
                    raise ParseError(
                        f"{node.name!r} is used both as a scalar and as an array", span=node.span
                    )
            for node in targets:
                if node.name in bounds:
                    raise ParseError(f"scalar target {node.name!r} is a loop bound", span=node.span)
            names = {t.name for t in targets}
            for node in reads:
                if node.name in reduced and (node.name in names or node.name not in written):
                    raise ParseError(
                        f"scalar {node.name!r} is read before a nest that writes it", span=node.span
                    )
            written |= names

    @functools.cached_property
    def _names(self) -> tuple[frozenset[str], tuple[str, ...], frozenset[str]]:
        """One walk for :meth:`arrays`, :meth:`scalar_targets` and
        :meth:`scalar_names` (a program is immutable)."""
        arrays: set[str] = set()
        targets: dict[str, None] = {}
        scalars: set[str] = set()
        for nest in self.nests:
            for stmt in nest.body:
                if isinstance(stmt.target, Scalar):
                    targets[stmt.target.name] = None
                else:
                    arrays.add(stmt.target.array)
                arrays.update(r.array for r in stmt.expr.refs())
                scalars |= stmt.expr.scalars()
            scalars.update(b for l in nest.loops for b in (l.lo, l.hi) if not b.lstrip("-").isdigit())
        return frozenset(arrays), tuple(targets), frozenset(scalars.difference(targets))

    def arrays(self) -> frozenset[str]:
        return self._names[0]

    def scalar_targets(self) -> tuple[str, ...]:
        """Names of the scalars the program reduces into, first write first."""
        return self._names[1]

    def scalar_names(self) -> frozenset[str]:
        """The scalars bound at call time: loop bounds and free scalars."""
        return self._names[2]

    def __repr__(self):
        loops = " ".join(f"for {l.var} in {l.lo}:{l.hi}" for l in self.loops)
        head = f"{loops} {{ {'; '.join(map(repr, self.body))} }}"
        return " ".join([head, *map(repr, self.then)])


def scalar_reads(expr: Expr):
    """The :class:`Scalar` nodes of an expression, left to right."""
    if isinstance(expr, Scalar):
        yield expr
    for child in (getattr(expr, "left", None), getattr(expr, "right", None), getattr(expr, "operand", None)):
        if child is not None:
            yield from scalar_reads(child)


def normalize_statement(stmt: Assign) -> Assign:
    """Recognize self-updates as reductions; reject unrecognized self-reads.

    The recognized associative/commutative update forms are rewritten to
    ``Assign(reduce=True, op=⊕)`` with the self-read removed from the RHS:

    * ``x[e] = x[e] + rhs`` (either order) → ``op="+"``,
    * ``x[e] = x[e] - rhs``                → ``op="+"`` of ``-rhs``,
    * ``x[e] = x[e] * rhs`` (either order) → ``op="*"``,
    * ``x[e] = min(x[e], rhs)`` / ``max``  → ``op="min"`` / ``"max"``.

    Raises :class:`ParseError` for a plain assignment whose RHS still reads
    the target after normalization (zero-fill compilation would be wrong),
    e.g. a non-associative self-update like ``x[e] = x[e] / rhs``.
    """
    if not stmt.reduce:
        e = stmt.expr
        if isinstance(e, BinOp) and e.op in ("+", "*"):
            red = "+" if e.op == "+" else "*"
            if e.left == stmt.target:
                stmt = Assign(stmt.target, e.right, reduce=True, op=red, span=stmt.span)
            elif e.right == stmt.target:
                stmt = Assign(stmt.target, e.left, reduce=True, op=red, span=stmt.span)
        elif isinstance(e, BinOp) and e.op == "-" and e.left == stmt.target:
            stmt = Assign(stmt.target, Neg(e.right), reduce=True, span=stmt.span)
        elif isinstance(e, MinMax):
            if e.left == stmt.target:
                stmt = Assign(stmt.target, e.right, reduce=True, op=e.fn, span=stmt.span)
            elif e.right == stmt.target:
                stmt = Assign(stmt.target, e.left, reduce=True, op=e.fn, span=stmt.span)
    if not stmt.reduce:
        offender = next(
            (r for r in stmt.expr.refs() if r.array == stmt.target.array), None
        )
        if offender is not None:
            raise ParseError(
                f"plain assignment to {stmt.target.array} reads the target; "
                "write it as a reduction (+=) instead",
                span=offender.span or stmt.span,
            )
    return stmt


def normalize_program(program: Program) -> Program:
    """Normalize every statement (idempotent; parser output is a no-op)."""
    body = tuple(normalize_statement(s) for s in program.body)
    then = tuple(map(normalize_program, program.then))
    if body == program.body and all(a is b for a, b in zip(then, program.then)):
        return program
    return Program(program.loops, body, then)
