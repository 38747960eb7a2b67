"""Dependence & reduction analyzer: the parallelism-classification lattice.

The paper's Sec. 2 promises the compiler a DOANY nest — every iteration
of the loop product may run in any order.  This pass checks that
promise: it answers the binary question (may the iterations run in any
order?) and the finer one the Bernoulli pipeline actually needs — *how
much* ordering freedom does each loop have, and *why*.  Every loop of the
nest is classified into the lattice

    DOALL  ⊏  DOANY  ⊏  REDUCTION(op)  ⊏  SEQUENTIAL

* **DOALL** — no dependence is carried by the loop: every access pair is
  either confined to one iteration or provably disjoint across
  iterations (the index tuples name the loop variable, so distinct
  iterations touch distinct elements).
* **DOANY** — the only carried dependences are additive reduction
  updates (``x[e] += rhs``): iterations commute up to floating-point
  reassociation, the classic DOANY contract.
* **REDUCTION(op)** — the carried dependences are recognized
  associative/commutative updates ``x[e] = x[e] ⊕ rhs`` with
  ⊕ ∈ {``*``, ``min``, ``max``} and rhs independent of ``x``, lowered
  as that in-place update inside the scalar loop nest (C or Python).
* **SEQUENTIAL** — a genuine carried dependence with no commuting
  structure; the verdict carries the witness access pair.

Because indices are plain loop-variable names (the grammar only admits
``A[i,j]``, no affine arithmetic), the carried-dependence test is pure
tuple algebra: accesses ``w`` and ``r`` on the same array can conflict
across two iterations that differ in loop ``v`` unless their index tuples
are equal *and* name ``v`` (then the element is pinned to one
``v``-iteration).  A write whose tuple misses ``v`` is repeated by every
``v``-iteration — an output dependence for a plain write, and exactly the
legal-reduction carve-out for a pure ``⊕=`` update.  :func:`_conflicts`
is the only place that test is made; the lattice verdicts, the witnesses
and the binary BER010-014 view (:func:`check_program`) all read its
output.

A program is a sequence of nests that run in order, so each nest is
classified alone: no dependence crosses from one nest to the next.

Every verdict is packaged as a :class:`ParallelismCertificate` — the
per-loop verdicts plus their evidence, keyed by a fingerprint of the
normalized program — which rides on compiled kernels and their
:class:`~repro.compiler.plan_cache.PlanCache` entries.
:func:`check_certificate` independently re-validates a certificate
against a program (fingerprint, loop set, evidence claims, re-derived
verdicts) and is re-run on every cache hit, so a stale or corrupted
cache entry fails loudly instead of executing with the wrong
parallelism assumption.

Codes:

=======  ============================================================
BER010   info — statement verified iteration-independent / legal reduction
BER011   error — plain assignment's target does not cover the nest
         (many iterations write the same element; last writer wins)
BER012   error — RHS reads the statement's own target across iterations
BER013   error — cross-statement loop-carried flow/anti dependence
BER014   error — cross-statement output dependence (two writes to the
         same array that are not both reductions of one operator)
BER060   info — per-loop verdict (one per loop of the nest)
BER061   info — certificate issued (program verdict + fingerprint)
BER062   error — SEQUENTIAL: carried-dependence witness access pair
BER063   info — recognized reduction update (statement + operator)
BER064   error — certificate validation failed (stale/corrupt/mismatch)
BER065   error — mutation self-check: a planted dependence-breaking
         mutant did not flip the verdict (the analyzer is blind to it)
BER066   info — mutation self-check: planted mutant caught as designed
=======  ============================================================
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from repro.analysis.diagnostics import ERROR, INFO, WARN, Diagnostic, DiagnosticReport
from repro.analysis.registry import register_pass
from repro.errors import ParseError
from repro.fingerprint import fingerprint
from repro.observability.trace import span
from repro.compiler.ast_nodes import (
    Assign,
    BinOp,
    Program,
    Ref,
    REDUCTION_OPS,
    normalize_program,
)

__all__ = [
    "Verdict",
    "Evidence",
    "LoopVerdict",
    "ParallelismCertificate",
    "Classification",
    "classify_program",
    "classify_source",
    "check_program",
    "check_source",
    "check_certificate",
    "program_fingerprint",
    "run_depend_selfcheck",
    "DOALL",
    "DOANY",
    "REDUCTION",
    "SEQUENTIAL",
]

_PASS = "depend"

DOALL = "DOALL"
DOANY = "DOANY"
REDUCTION = "REDUCTION"
SEQUENTIAL = "SEQUENTIAL"

_RANK = {DOALL: 0, DOANY: 1, REDUCTION: 2, SEQUENTIAL: 3}


@dataclass(frozen=True)
class Verdict:
    """One lattice element: a kind plus the combine operator for
    REDUCTION verdicts (``None`` otherwise)."""

    kind: str
    op: str | None = None

    def __post_init__(self):
        if self.kind not in _RANK:
            raise ValueError(f"unknown verdict kind {self.kind!r}")
        if (self.kind == REDUCTION) != (self.op is not None):
            raise ValueError("REDUCTION verdicts (and only they) carry an op")
        if self.op is not None and self.op not in REDUCTION_OPS:
            raise ValueError(f"unknown reduction op {self.op!r}")

    @property
    def rank(self) -> int:
        return _RANK[self.kind]

    def label(self) -> str:
        return f"{self.kind}({self.op})" if self.op else self.kind

    def join(self, other: "Verdict") -> "Verdict":
        """Lattice join (least upper bound): the worse of the two; two
        REDUCTION verdicts with *different* operators do not commute with
        each other and join to SEQUENTIAL."""
        if self.rank > other.rank:
            return self
        if other.rank > self.rank:
            return other
        if self.kind == REDUCTION and self.op != other.op:
            return Verdict(SEQUENTIAL)
        return self

    def to_dict(self) -> dict:
        return {"kind": self.kind, "op": self.op}


@dataclass(frozen=True)
class Evidence:
    """Why one loop earned (part of) its verdict.

    ``kind`` is ``"disjoint"`` (proved-disjoint accesses — DOALL),
    ``"commutes"`` (recognized reduction update — DOANY/REDUCTION), or
    ``"witness"`` (the carried-dependence access pair — SEQUENTIAL).
    ``statements`` are body indices; ``refs`` the access reprs involved.
    """

    kind: str
    detail: str
    statements: tuple[int, ...] = ()
    refs: tuple[str, ...] = ()
    op: str | None = None

    def to_dict(self) -> dict:
        d = {
            "kind": self.kind,
            "detail": self.detail,
            "statements": list(self.statements),
            "refs": list(self.refs),
        }
        if self.op is not None:
            d["op"] = self.op
        return d


@dataclass(frozen=True)
class LoopVerdict:
    """The verdict for one loop variable, with its evidence."""

    var: str
    verdict: Verdict
    evidence: tuple[Evidence, ...] = ()

    def to_dict(self) -> dict:
        return {
            "var": self.var,
            "verdict": self.verdict.to_dict(),
            "evidence": [e.to_dict() for e in self.evidence],
        }


@dataclass(frozen=True)
class ParallelismCertificate:
    """A checkable record of the analyzer's verdicts for one program.

    ``fingerprint`` is :func:`program_fingerprint` of the normalized
    program — a certificate only ever describes exactly one program;
    ``loops`` lists every nest's loops, in run order.
    """

    fingerprint: str
    verdict: Verdict
    loops: tuple[LoopVerdict, ...]
    version: int = 1

    def to_dict(self) -> dict:
        return {
            "version": self.version,
            "fingerprint": self.fingerprint,
            "verdict": self.verdict.to_dict(),
            "loops": [lv.to_dict() for lv in self.loops],
        }


@dataclass
class Classification:
    """Everything :func:`classify_program` produces in one object."""

    program: Program
    verdict: Verdict
    loops: tuple[LoopVerdict, ...]
    certificate: ParallelismCertificate
    report: DiagnosticReport


def program_fingerprint(program: Program) -> str:
    """Stable fingerprint of a (normalized) program's canonical repr."""
    return fingerprint(repr(program))


# ----------------------------------------------------------------------
# the carried-dependence test (the one place the question is answered)
# ----------------------------------------------------------------------
class _Conflict(NamedTuple):
    """Two accesses to one array that can touch the same element from
    different iterations.  ``code`` is the binary checker's BER01x name
    for it (``None`` when both are same-operator reductions, which
    commute); ``carried`` lists the loops whose iterations collide."""

    code: str | None
    k1: int  # statement of the write ``w``
    k2: int  # statement of the other access
    w: Ref
    other: Ref  # a second write (BER011/BER014/commuting) or a read
    carried: tuple[str, ...]


def _conflicts(program: Program) -> list[_Conflict]:
    """Every conflicting access pair of the nest: write-write pairs first
    (the self-pair included — a statement conflicts with its own writes
    from other iterations), then write-read pairs.

    Accesses with tuples ``t1``, ``t2`` are *pinned* for loop ``v`` —
    cannot meet across two ``v``-iterations — when the tuples are equal
    and name ``v``.  One access pattern is never pinned: a plain
    assignment reading its own target, because zero-fill compilation
    would read the cleared element (normalization rejects or rewrites
    those, so only directly-built programs reach that rule)."""
    loop_vars = tuple(l.var for l in program.loops)
    body = program.body
    out: list[_Conflict] = []

    def carried(t1, t2):
        return tuple(v for v in loop_vars if not (t1 == t2 and v in t1))

    for k1, s1 in enumerate(body):
        for k2 in range(k1, len(body)):
            s2 = body[k2]
            vs = carried(s1.target.indices, s2.target.indices)
            if s1.target.array != s2.target.array or not vs:
                continue
            if s1.reduce and s2.reduce and s1.op == s2.op:
                code = None
            else:
                code = "BER011" if k1 == k2 else "BER014"
            out.append(_Conflict(code, k1, k2, s1.target, s2.target, vs))
    for k1, s1 in enumerate(body):
        for k2, s2 in enumerate(body):
            for r in s2.expr.refs():
                if r.array != s1.target.array:
                    continue
                vs = carried(s1.target.indices, r.indices)
                if k1 == k2 and not s1.reduce:
                    vs = loop_vars
                if vs:
                    code = "BER012" if k1 == k2 else "BER013"
                    out.append(_Conflict(code, k1, k2, s1.target, r, vs))
    return out


def _classify_loop(
    program: Program, conflicts: list[_Conflict], v: str
) -> tuple[Verdict, tuple[Evidence, ...]]:
    """Classify one loop variable from the conflicts it carries."""
    body = program.body
    verdict = Verdict(DOALL)
    evidence: list[Evidence] = []
    for c in conflicts:
        if v not in c.carried:
            continue
        k1, k2, w = c.k1, c.k2, c.w
        stmts = (k1, k2) if k1 != k2 else (k1,)
        if c.code is None:
            op = body[k1].op
            verdict = verdict.join(
                Verdict(DOANY) if op == "+" else Verdict(REDUCTION, op)
            )
            evidence.append(
                Evidence(
                    "commutes",
                    f"carried updates to {w.array!r} are "
                    f"'{op}'-reductions with RHS independent of the "
                    "target: iterations commute",
                    stmts,
                    (repr(w),) if k1 == k2 else (repr(w), repr(c.other)),
                    op=op,
                )
            )
            continue
        verdict = verdict.join(Verdict(SEQUENTIAL))
        if c.code in ("BER012", "BER013"):
            # reductions never survive here: normalization strips the
            # recognized self-read from the RHS
            detail = (
                f"flow/anti dependence carried by {v!r}: statement "
                f"[{k1}] writes {w!r} while statement [{k2}] reads "
                f"{c.other!r} — iterations of {v!r} are not independent"
            )
            refs = (repr(w), repr(c.other))
        else:
            if k1 == k2:
                why = (
                    f"every iteration of {v!r} writes {w!r} as a "
                    "plain assignment: last writer wins"
                )
            elif body[k1].reduce and body[k2].reduce:
                why = (
                    f"statements [{k1}] and [{k2}] update {w.array!r} "
                    f"with different operators ('{body[k1].op}' vs "
                    f"'{body[k2].op}'): the updates do not commute with "
                    "each other"
                )
            else:
                why = (
                    f"statements [{k1}] and [{k2}] both write "
                    f"{w.array!r} and at least one is a plain "
                    "assignment: the final value depends on order"
                )
            detail = f"output dependence carried by {v!r}: {why}"
            refs = (repr(w),) if k1 == k2 else (repr(w), repr(c.other))
        evidence.append(Evidence("witness", detail, stmts, refs))

    if verdict.kind == DOALL:
        evidence.append(
            Evidence(
                "disjoint",
                f"no dependence is carried by {v!r}: every written element "
                f"is pinned to a single {v!r}-iteration",
                tuple(range(len(body))),
                tuple(repr(s.target) for s in body if v in s.target.indices),
            )
        )
    # drop duplicate evidence (symmetric pairs produce identical records)
    return verdict, tuple(dict.fromkeys(evidence))


def _diag(code, severity, message, location, node=None, source=None, pass_name=_PASS):
    span = getattr(node, "span", None)
    return Diagnostic(
        code,
        severity,
        message,
        pass_name=pass_name,
        location=location,
        span=span,
        source=source if span is not None else None,
    )


# ----------------------------------------------------------------------
# the binary DOANY view: each conflict under its BER01x name, with carets
# ----------------------------------------------------------------------
def _binary_view(
    program: Program, conflicts: list[_Conflict], source: str | None
) -> list[Diagnostic]:
    """BER011-014 errors (per statement, then per statement pair), then a
    BER010 for every statement no conflict touches."""
    body = program.body

    def order(c: _Conflict):
        if c.k1 == c.k2:
            return (0, c.k1, c.k1, c.code == "BER012")
        # per pair: first statement's writes read by the second, the
        # reverse, then the write-write conflict
        rank = 2 if c.code == "BER014" else int(c.k1 > c.k2)
        return (1, min(c.k1, c.k2), max(c.k1, c.k2), rank)

    out: list[Diagnostic] = []
    dirty: set[int] = set()
    for c in sorted((c for c in conflicts if c.code), key=order):
        k1, k2, w, other = c.k1, c.k2, c.w, c.other
        dirty |= {k1, k2}
        if c.code == "BER011":
            msg = (
                f"plain assignment target {w!r} does not cover "
                f"loop variable(s) {sorted(c.carried)}: every iteration of "
                "the missing loops writes the same element (not DOANY); "
                "write a reduction with '+=' or index the target fully"
            )
        elif c.code == "BER012":
            if body[k1].reduce:
                why = (
                    "the update is not a pure reduction: iteration order "
                    "changes the value read"
                )
            else:
                why = "zero-fill compilation would read the cleared target"
            msg = (
                f"{other!r} reads the statement's own target "
                f"{w!r} across iterations — {why}"
            )
        elif c.code == "BER013":
            kind = "flow" if k1 < k2 else "anti"
            msg = (
                f"loop-carried {kind} dependence: statement "
                f"[{k1}] writes {w!r}, statement [{k2}] reads "
                f"{other!r} — iterations are not independent"
            )
        else:
            msg = (
                f"output dependence: statements [{k1}] and "
                f"[{k2}] both write {w.array!r} and at "
                "least one is a plain assignment — the final "
                "value depends on iteration order"
            )
        where = (
            f"statement [{k1}]" if k1 == k2 else f"statements [{k1}]→[{k2}]"
        )
        node = w if c.code == "BER011" else other
        out.append(_diag(c.code, ERROR, msg, where, node, source, "doany"))
    for k, stmt in enumerate(body):
        if k not in dirty:
            verdict = "legal reduction" if stmt.reduce else "iteration-independent"
            out.append(
                _diag(
                    "BER010",
                    INFO,
                    f"{stmt!r}: verified {verdict} (DOANY-legal)",
                    f"statement [{k}]",
                    stmt,
                    source,
                    "doany",
                )
            )
    return out


def check_program(program: Program, source: str | None = None) -> DiagnosticReport:
    """The binary question — is every statement DOANY-legal, and if not,
    exactly why — as BER010-014 rows over this analyzer's conflicts.

    The program is checked as given (not normalized).  ``source`` is the
    text it was parsed from; with it, diagnostics carry caret snippets.
    """
    return DiagnosticReport(
        [d for nest in program.nests for d in _binary_view(nest, _conflicts(nest), source)]
    )


def check_source(source: str) -> DiagnosticReport:
    """Parse mini-language text and run :func:`check_program` on it."""
    from repro.compiler.parser import parse

    return check_program(parse(source), source=source)


@functools.lru_cache(maxsize=1024)
def classify_program(
    program: Program,
    source: str | None = None,
    gate: bool = True,
) -> Classification:
    """Classify every loop of the nest; package the verdicts.

    Memoized per ``(program, source, gate)`` — programs and certificates
    are immutable, and the returned report is shared: read it, do not add
    to it.

    The program is normalized first (recognized self-updates become
    reductions), so parser output and directly-built programs classify
    identically.  ``gate=True`` (the compile-gate mode) reports
    SEQUENTIAL witnesses at **error** severity, each preceded by its
    BER011-014 rendering with a source caret.  ``gate=False`` is
    classification-as-a-product (the CLI): witnesses render at **warn**
    severity and the BER01x rows are omitted.
    """
    with span("analysis.depend.classify", gate=gate) as sp:
        program = normalize_program(program)
        nests = [(nest, _conflicts(nest)) for nest in program.nests]
        loops: list[LoopVerdict] = []
        verdict = Verdict(DOALL)
        for nest, conflicts in nests:
            for spec in nest.loops:
                lv, ev = _classify_loop(nest, conflicts, spec.var)
                loops.append(LoopVerdict(spec.var, lv, ev))
                verdict = verdict.join(lv)
        sp.set(verdict=verdict.label())

        report = DiagnosticReport()
        if gate:
            for nest, conflicts in nests:
                view = _binary_view(nest, conflicts, source)
                report.extend(d for d in view if d.severity == ERROR)

        witness_severity = ERROR if gate else WARN
        for lv in loops:
            report.add(
                _diag(
                    "BER060",
                    INFO,
                    f"loop {lv.var!r}: {lv.verdict.label()} — "
                    + "; ".join(e.detail for e in lv.evidence),
                    f"loop {lv.var}",
                )
            )
            for e in lv.evidence:
                if e.kind == "witness":
                    report.add(
                        _diag(
                            "BER062",
                            witness_severity,
                            f"SEQUENTIAL witness (loop {lv.var!r}): {e.detail} "
                            f"[{' vs '.join(e.refs)}]",
                            f"loop {lv.var}, statements {list(e.statements)}",
                        )
                    )
        for k, stmt in ((k, s) for nest, _ in nests for k, s in enumerate(nest.body)):
            if stmt.reduce and stmt.op != "+":
                report.add(
                    _diag(
                        "BER063",
                        INFO,
                        f"recognized reduction update {stmt!r}: associative/"
                        f"commutative combine '{stmt.op}' with RHS independent "
                        "of the target",
                        f"statement [{k}]",
                        stmt,
                        source,
                    )
                )

        certificate = ParallelismCertificate(
            fingerprint=program_fingerprint(program),
            verdict=verdict,
            loops=tuple(loops),
        )
        report.add(
            _diag(
                "BER061",
                INFO,
                f"parallelism certificate issued: program verdict "
                f"{verdict.label()}, fingerprint {certificate.fingerprint}",
                "program",
            )
        )
    return Classification(program, verdict, tuple(loops), certificate, report)


def classify_source(source: str, gate: bool = True) -> Classification:
    """Parse mini-language text and classify it."""
    from repro.compiler.parser import parse

    return classify_program(parse(source), source=source, gate=gate)


# ----------------------------------------------------------------------
# certificate validation (re-run on every plan-cache hit)
# ----------------------------------------------------------------------
def check_certificate(
    program: Program, certificate: ParallelismCertificate
) -> DiagnosticReport:
    """Validate a certificate against a program, without trusting it.

    Checks, each a BER064 error on failure:

    * the fingerprint matches the normalized program,
    * the certified loops are exactly the program's loops, in order,
    * every evidence record's claims hold structurally (statement
      indices in range, cited accesses present in those statements,
      commute evidence matching an actual reduction of that operator),
    * each per-loop verdict equals a fresh re-derivation, and the
      program verdict is the lattice join of the per-loop verdicts.

    This is pure tuple algebra — microseconds, cheap enough to re-run on
    every cache hit.
    """
    report = DiagnosticReport()

    def fail(msg: str, where: str = "certificate") -> None:
        report.add(_diag("BER064", ERROR, msg, where))

    if certificate is None:
        fail("no certificate attached to the compiled plan")
        return report
    if certificate.version != 1:
        fail(f"unsupported certificate version {certificate.version}")
        return report
    program = normalize_program(program)
    fp = program_fingerprint(program)
    if certificate.fingerprint != fp:
        fail(
            f"fingerprint mismatch: certificate says "
            f"{certificate.fingerprint}, program hashes to {fp} — the "
            "certificate describes a different loop nest"
        )
        return report
    want_vars = [l.var for nest in program.nests for l in nest.loops]
    have_vars = [lv.var for lv in certificate.loops]
    if want_vars != have_vars:
        fail(
            f"certified loops {have_vars} do not match the program's "
            f"loops {want_vars}"
        )
        return report

    # per nest: its conflicts and each statement's accesses
    facts = {
        id(nest): (_conflicts(nest), [{repr(s.target)} | {repr(r) for r in s.expr.refs()} for s in nest.body])
        for nest in program.nests
    }
    joined = Verdict(DOALL)
    nest_of = [nest for nest in program.nests for _ in nest.loops]
    for nest, lv in zip(nest_of, certificate.loops):
        conflicts, accesses_of = facts[id(nest)]
        where = f"certificate, loop {lv.var}"
        for e in lv.evidence:
            if any(k < 0 or k >= len(nest.body) for k in e.statements):
                fail(
                    f"evidence cites statement indices {list(e.statements)} "
                    f"outside the program body", where,
                )
                continue
            cited = set().union(
                *(accesses_of[k] for k in e.statements)
            ) if e.statements else set()
            missing = [r for r in e.refs if r not in cited]
            if missing:
                fail(
                    f"evidence cites accesses {missing} absent from "
                    f"statements {list(e.statements)}", where,
                )
            if e.kind == "commutes":
                stmts = [nest.body[k] for k in e.statements]
                if not all(s.reduce and s.op == e.op for s in stmts):
                    fail(
                        f"commute evidence claims '{e.op}'-reductions but "
                        f"statements {list(e.statements)} are not", where,
                    )
        fresh, _ = _classify_loop(nest, conflicts, lv.var)
        if fresh != lv.verdict:
            fail(
                f"verdict mismatch: certificate says "
                f"{lv.verdict.label()}, re-derivation says {fresh.label()}",
                where,
            )
        joined = joined.join(lv.verdict)
    if joined != certificate.verdict:
        fail(
            f"program verdict {certificate.verdict.label()} is not the "
            f"join of the per-loop verdicts ({joined.label()})"
        )
    return report


# ----------------------------------------------------------------------
# seeded mutation self-check: planted dependence-breaking mutants must
# flip the verdict (the detector itself is on trial)
# ----------------------------------------------------------------------
def _rotate_tuple(indices: tuple[str, ...], loop_vars: tuple[str, ...]) -> tuple[str, ...]:
    """An index tuple provoking aliasing: rotate a multi-index tuple, or
    swap a single index for the next loop variable."""
    if len(indices) > 1:
        return indices[1:] + indices[:1]
    k = loop_vars.index(indices[0]) if indices[0] in loop_vars else 0
    return (loop_vars[(k + 1) % len(loop_vars)],)


def mutate_plainify(program: Program, rng) -> Program | None:
    """Defect: a reduction whose target does not cover the nest silently
    becomes a plain assignment (the classic dropped-'+=')."""
    loop_vars = frozenset(l.var for l in program.loops)
    cands = [
        k
        for k, s in enumerate(program.body)
        if s.reduce and not loop_vars <= set(s.target.indices)
    ]
    if not cands:
        return None
    k = int(rng.choice(cands))
    body = list(program.body)
    s = body[k]
    body[k] = Assign(s.target, s.expr, reduce=False)
    return Program(program.loops, tuple(body))


def mutate_self_read(program: Program, rng) -> Program | None:
    """Defect: the RHS gains a read of the target under a rotated index
    tuple — a planted loop-carried flow dependence."""
    if len(program.loops) < 2 and all(
        len(s.target.indices) < 2 for s in program.body
    ):
        return None
    loop_vars = tuple(l.var for l in program.loops)
    k = int(rng.integers(len(program.body)))
    body = list(program.body)
    s = body[k]
    alias = Ref(s.target.array, _rotate_tuple(s.target.indices, loop_vars))
    if alias.indices == s.target.indices:
        return None
    body[k] = Assign(s.target, BinOp("*", s.expr, alias), s.reduce, s.op)
    return Program(program.loops, tuple(body))


def mutate_mixed_ops(program: Program, rng) -> Program | None:
    """Defect: a second update to the same array with a *different*
    combine operator — updates that no longer commute with each other."""
    loop_vars = frozenset(l.var for l in program.loops)
    cands = [
        k
        for k, s in enumerate(program.body)
        if s.reduce and not loop_vars <= set(s.target.indices)
    ]
    if not cands:
        return None
    k = int(rng.choice(cands))
    s = program.body[k]
    other = "*" if s.op != "*" else "+"
    extra = Assign(s.target, s.expr, reduce=True, op=other)
    return Program(program.loops, program.body + (extra,))


def mutate_drop_target_index(program: Program, rng) -> Program | None:
    """Defect: a covering plain-assignment target loses one index — every
    iteration of the dropped loop now writes the same element."""
    loop_vars = frozenset(l.var for l in program.loops)
    cands = [
        k
        for k, s in enumerate(program.body)
        if not s.reduce
        and len(s.target.indices) > 1
        and loop_vars <= set(s.target.indices)
    ]
    if not cands:
        return None
    k = int(rng.choice(cands))
    body = list(program.body)
    s = body[k]
    drop = int(rng.integers(len(s.target.indices)))
    kept = tuple(ix for a, ix in enumerate(s.target.indices) if a != drop)
    body[k] = Assign(Ref(s.target.array, kept), s.expr, reduce=False)
    return Program(program.loops, tuple(body))


_MUTANTS = {
    "plainify-reduction": mutate_plainify,
    "inject-self-read": mutate_self_read,
    "mixed-op-update": mutate_mixed_ops,
    "drop-target-index": mutate_drop_target_index,
}

#: clean probe nests for the self-check, spanning the whole lattice
#: short of SEQUENTIAL (built inline — analysis passes cannot import
#: the test suite)
_PROBES = (
    ("spmv", "for i in 0:n { for j in 0:m { Y[i] += A[i,j] * X[j] } }"),
    ("spmv_t", "for i in 0:n { for j in 0:m { Y[j] += A[i,j] * X[i] } }"),
    ("rowprod", "for i in 0:n { for j in 0:m { Y[i] = Y[i] * A[i,j] } }"),
    ("rowmin", "for i in 0:n { for j in 0:m { M[i] = min(M[i], A[i,j]) } }"),
    ("entrywise", "for i in 0:n { for j in 0:m { C[i,j] = A[i,j] * B[i,j] } }"),
)


def run_depend_selfcheck(seed: int = 1997) -> DiagnosticReport:
    """Apply every seeded dependence-breaking mutant to every clean probe
    and require the lattice verdict to strictly worsen.  An escaped
    mutant is a BER065 error — the analyzer itself failed."""
    from repro.compiler.parser import parse

    rng = np.random.default_rng(seed)
    report = DiagnosticReport()

    def note(code, message, name):
        severity = INFO if code == "BER066" else ERROR
        report.add(
            Diagnostic(
                code, severity, message, pass_name=_PASS, location=f"probe {name}"
            )
        )

    for name, src in _PROBES:
        program = normalize_program(parse(src))
        clean = classify_program(program, source=src)
        if clean.verdict.kind == SEQUENTIAL:
            report.extend(clean.report.errors())
            note(
                "BER065",
                "unmutated probe classified SEQUENTIAL — the probe set or "
                "the analyzer is broken",
                name,
            )
            continue
        for mname, mutate in _MUTANTS.items():
            mutant = mutate(program, rng)
            if mutant is None:
                continue
            try:
                mutated = classify_program(mutant, gate=False).verdict
            except ParseError:
                # the front-end itself rejects the mutant (e.g. a planted
                # self-read in a plain assignment) — caught even earlier
                # than the analyzer
                code, text = "BER066", "caught: rejected by normalization before analysis"
            else:
                if mutated.rank > clean.verdict.rank:
                    code = "BER066"
                    text = f"caught: {clean.verdict.label()} → {mutated.label()}"
                else:
                    code = "BER065"
                    text = (
                        f"escaped: verdict stayed {mutated.label()} (clean: "
                        f"{clean.verdict.label()}) — the analyzer is blind "
                        "to this planted dependence"
                    )
            note(code, f"seeded mutant {mname!r} {text}", name)
    return report


# ----------------------------------------------------------------------
# registered sweep passes over the shipped kernels: the lattice
# classification + self-check ("depend") and the binary view ("doany")
# ----------------------------------------------------------------------
def _shipped_sources() -> tuple[str, ...]:
    from repro.kernels.spmm import SPMM_SRC
    from repro.kernels.spmv import SPMV_SRC, SPMV_T_SRC
    from repro.kernels.vecops import AXPY_SRC, DOT_SRC, SCALE_SRC

    return (SPMV_SRC, SPMV_T_SRC, SPMM_SRC, AXPY_SRC, DOT_SRC, SCALE_SRC)


@register_pass(
    "depend",
    "parallelism-lattice classification of shipped kernels "
    "(+ seeded mutation self-check)",
)
def _sweep() -> DiagnosticReport:
    report = DiagnosticReport()
    for src in _shipped_sources():
        report.extend(classify_source(src).report)
    report.extend(run_depend_selfcheck())
    return report


@register_pass("doany", "DOANY dependence checker over shipped kernels")
def _sweep_binary() -> DiagnosticReport:
    report = DiagnosticReport()
    for src in _shipped_sources():
        report.extend(check_source(src))
    return report
