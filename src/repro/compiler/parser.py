"""Recursive-descent parser for the dense-loop mini-language.

Grammar (whitespace-insensitive; ``#`` starts a line comment)::

    program := loop+
    loop    := 'for' ID 'in' bound ':' bound '{' (loop | stmts) '}'
    stmts   := stmt (';'? stmt)*
    stmt    := (ref | ID) ('=' | '+=' | '*=') expr
    expr    := term (('+' | '-') term)*
    term    := factor (('*' | '/') factor)*
    factor  := NUM | ref | ID | '(' expr ')' | '-' factor
             | ('min' | 'max') '(' expr ',' expr ')'
    ref     := ID '[' ID (',' ID)* ']'
    bound   := NUM | ID

A bare ID in an expression is a free scalar; a bracketed ID is an array
reference.  The top-level nests run in order; a bare-ID target is a
scalar ``+`` reduction that later nests may read.  The classic SpMV of
the paper, then a dot product over its result::

    for i in 0:n { for j in 0:n { Y[i] += A[i,j] * X[j] } }
    for i in 0:n { s += X[i] * Y[i] }

Every :class:`~repro.errors.ParseError` raised here carries a
:class:`~repro.sourceloc.SourceSpan` and the source text, so the error
renders a caret snippet pointing at the offending tokens; the parser also
stamps spans onto :class:`Ref`, :class:`Scalar` and :class:`Assign` nodes
for the analysis passes (spans are excluded from node equality/hash, so
cache keys are unaffected).
"""

from __future__ import annotations

import functools
import re

from repro.compiler.ast_nodes import (
    Assign,
    BinOp,
    LoopSpec,
    MinMax,
    Neg,
    Num,
    Program,
    Ref,
    Scalar,
    normalize_statement,
)
from repro.errors import ParseError
from repro.observability.trace import span
from repro.sourceloc import SourceSpan

__all__ = ["parse", "tokenize", "tokenize_spans"]

_TOKEN_RE = re.compile(
    r"""
    (?P<ws>\s+|\#[^\n]*)
  | (?P<num>\d+(\.\d+)?([eE][+-]?\d+)?)
  | (?P<id>[A-Za-z_]\w*)
  | (?P<op>\+=|\*=|[{}\[\](),:;=+\-*/])
    """,
    re.VERBOSE,
)


def tokenize_spans(src: str) -> list[tuple[str, SourceSpan]]:
    """Split source text into ``(token, span)`` pairs; raises on unknown
    characters (with a span pointing at the offender)."""
    out: list[tuple[str, SourceSpan]] = []
    pos = 0
    while pos < len(src):
        m = _TOKEN_RE.match(src, pos)
        if m is None:
            raise ParseError(
                f"unexpected character {src[pos]!r}",
                span=SourceSpan(pos, pos + 1),
                source=src,
            )
        start, pos = pos, m.end()
        if m.lastgroup != "ws" and m.group(m.lastgroup):
            out.append((m.group(m.lastgroup), SourceSpan(start, pos)))
    return out


def tokenize(src: str) -> list[str]:
    """Split source text into tokens; raises on unknown characters."""
    return [tok for tok, _ in tokenize_spans(src)]


class _Parser:
    def __init__(self, tokens: list[tuple[str, SourceSpan]], src: str = ""):
        self.toks = tokens
        self.src = src
        self.k = 0

    def peek(self) -> str | None:
        return self.toks[self.k][0] if self.k < len(self.toks) else None

    def span_here(self) -> SourceSpan:
        """Span of the upcoming token (or the end of input)."""
        if self.k < len(self.toks):
            return self.toks[self.k][1]
        end = len(self.src)
        return SourceSpan(end, end)

    def prev_span(self) -> SourceSpan:
        """Span of the most recently consumed token."""
        if 0 < self.k <= len(self.toks):
            return self.toks[self.k - 1][1]
        return SourceSpan(0, 0)

    def error(self, message: str, span: SourceSpan | None = None) -> ParseError:
        return ParseError(message, span=span or self.span_here(), source=self.src)

    def next(self) -> str:
        if self.k >= len(self.toks):
            raise self.error("unexpected end of input")
        t = self.toks[self.k][0]
        self.k += 1
        return t

    def expect(self, tok: str) -> None:
        got = self.next()
        if got != tok:
            raise self.error(f"expected {tok!r}, got {got!r}", self.prev_span())

    # ------------------------------------------------------------------
    def parse_program(self) -> Program:
        if self.peek() != "for":
            raise self.error("program must start with a 'for' loop")
        nests = [self.parse_loop()]
        while self.peek() == "for":
            nests.append(self.parse_loop())
        if self.peek() is not None:
            raise self.error(f"trailing tokens starting at {self.peek()!r}")
        (loops, body), *rest = nests
        return Program(tuple(loops), tuple(body), tuple(Program(*nest) for nest in rest))

    def parse_loop(self) -> tuple[list[LoopSpec], list[Assign]]:
        self.expect("for")
        var = self.ident()
        self.expect("in")
        lo = self.bound()
        self.expect(":")
        hi = self.bound()
        self.expect("{")
        if self.peek() == "for":
            loops, body = self.parse_loop()
            loops = [LoopSpec(var, lo, hi)] + loops
        else:
            loops = [LoopSpec(var, lo, hi)]
            body = self.parse_stmts()
        self.expect("}")
        return loops, body

    def parse_stmts(self) -> list[Assign]:
        stmts = [self.parse_stmt()]
        while self.peek() not in ("}", None):
            if self.peek() == ";":
                self.next()
                if self.peek() == "}":
                    break
            stmts.append(self.parse_stmt())
        return stmts

    def parse_stmt(self) -> Assign:
        start = self.span_here()
        name = self.ident()
        target = self.finish_ref(name, start) if self.peek() == "[" else Scalar(name, span=start)
        op = self.next()
        if op not in ("=", "+=", "*="):
            raise self.error(
                f"expected '=', '+=' or '*=', got {op!r}", self.prev_span()
            )
        expr = self.parse_expr()
        stmt_span = start.merge(self.prev_span())
        return normalize_statement(
            Assign(
                target,
                expr,
                reduce=(op != "="),
                op=op[0] if op != "=" else "+",
                span=stmt_span,
            )
        )

    def parse_expr(self):
        node = self.parse_term()
        while self.peek() in ("+", "-"):
            op = self.next()
            node = BinOp(op, node, self.parse_term())
        return node

    def parse_term(self):
        node = self.parse_factor()
        while self.peek() in ("*", "/"):
            op = self.next()
            node = BinOp(op, node, self.parse_factor())
        return node

    def parse_factor(self):
        t = self.peek()
        if t is None:
            raise self.error("unexpected end of expression")
        if t == "(":
            self.next()
            node = self.parse_expr()
            self.expect(")")
            return node
        if t == "-":
            self.next()
            return Neg(self.parse_factor())
        if re.fullmatch(r"\d+(\.\d+)?([eE][+-]?\d+)?", t):
            self.next()
            return Num(float(t))
        name = self.ident()
        if name in ("min", "max") and self.peek() == "(":
            self.next()
            left = self.parse_expr()
            self.expect(",")
            right = self.parse_expr()
            self.expect(")")
            return MinMax(name, left, right)
        if self.peek() == "[":
            return self.finish_ref(name, self.prev_span())
        return Scalar(name, span=self.prev_span())

    def finish_ref(self, name: str, start: SourceSpan) -> Ref:
        self.expect("[")
        idxs = [self.ident()]
        while self.peek() == ",":
            self.next()
            idxs.append(self.ident())
        self.expect("]")
        return Ref(name, tuple(idxs), span=start.merge(self.prev_span()))

    def ident(self) -> str:
        t = self.next()
        if not re.fullmatch(r"[A-Za-z_]\w*", t) or t in ("for", "in"):
            raise self.error(f"expected identifier, got {t!r}", self.prev_span())
        return t

    def bound(self) -> str:
        t = self.next()
        if re.fullmatch(r"\d+", t) or re.fullmatch(r"[A-Za-z_]\w*", t):
            return t
        raise self.error(f"expected loop bound, got {t!r}", self.prev_span())


@functools.lru_cache(maxsize=1024)
def parse(src: str) -> Program:
    """Parse mini-language source into a :class:`Program`.

    Memoized per source text (programs are immutable): a solver or service
    re-issuing the same nest gets the same ``Program`` object back."""
    with span("compiler.parser.parse", chars=len(src)) as sp:
        try:
            tokens = tokenize_spans(src)
            program = _Parser(tokens, src).parse_program()
        except ParseError as e:
            # errors raised below the parser (node validation,
            # normalize_statement) carry spans but not the source text
            if e.source is None:
                e.source = src
            raise
        sp.set(
            tokens=len(tokens),
            loops=[l.var for nest in program.nests for l in nest.loops],
            statements=sum(len(nest.body) for nest in program.nests),
            arrays=sorted(program.arrays()),
        )
    return program
