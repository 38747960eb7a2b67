"""Dependence & reduction analyzer: the parallelism-classification lattice.

The DOANY pass (:mod:`repro.analysis.doany`) answers a binary question —
may the iterations of this nest run in any order?  This pass answers the
finer one the paper's Bernoulli pipeline actually needs: *how much*
ordering freedom does each loop have, and *why*.  Every loop of the nest
is classified into the lattice

    DOALL  ⊏  DOANY  ⊏  REDUCTION(op)  ⊏  SEQUENTIAL

* **DOALL** — no dependence is carried by the loop: every access pair is
  either confined to one iteration or provably disjoint across
  iterations (the index tuples name the loop variable, so distinct
  iterations touch distinct elements).
* **DOANY** — the only carried dependences are additive reduction
  updates (``x[e] += rhs``): iterations commute up to floating-point
  reassociation, the classic DOANY contract the legacy gate accepted.
* **REDUCTION(op)** — the carried dependences are recognized
  associative/commutative updates ``x[e] = x[e] ⊕ rhs`` with
  ⊕ ∈ {``*``, ``min``, ``max``} and rhs independent of ``x`` — newly
  admitted by this pass, and lowered through privatized-accumulation
  scatters (``np.multiply.at`` / ``np.minimum.at`` / ``np.maximum.at``).
* **SEQUENTIAL** — a genuine carried dependence with no commuting
  structure; the verdict carries the witness access pair.

Because indices are plain loop-variable names, the carried-dependence
test is pure tuple algebra: accesses ``w`` and ``r`` on the same array
can conflict across two iterations that differ in loop ``v`` unless
their index tuples are equal *and* name ``v`` (then the element is
pinned to one ``v``-iteration).

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
import hashlib
from dataclasses import dataclass, field

import numpy as np

from repro.analysis.diagnostics import ERROR, INFO, WARN, Diagnostic, DiagnosticReport
from repro.errors import ParseError
from repro.analysis.registry import register_pass
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
    program — a certificate only ever describes exactly one loop nest.
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
    return hashlib.sha256(repr(program).encode()).hexdigest()[:16]


# ----------------------------------------------------------------------
# core per-loop classification
# ----------------------------------------------------------------------
def _pinned(t1: tuple[str, ...], t2: tuple[str, ...], v: str) -> bool:
    """True when accesses with tuples t1, t2 cannot touch the same element
    from two different iterations of loop ``v``: equal tuples naming ``v``
    pin the element to a single ``v``-iteration."""
    return t1 == t2 and v in t1


def _classify_loop(program: Program, v: str) -> tuple[Verdict, tuple[Evidence, ...]]:
    """Classify one loop variable of a *normalized* program."""
    body = program.body
    verdict = Verdict(DOALL)
    evidence: list[Evidence] = []

    writes = [(k, s.target, s.reduce, s.op) for k, s in enumerate(body)]
    reads = [(k, r) for k, s in enumerate(body) for r in s.expr.refs()]

    # write-write pairs, the self-pair included: a statement conflicts
    # with its own writes from other v-iterations
    for a, (k1, w1, red1, op1) in enumerate(writes):
        for k2, w2, red2, op2 in writes[a:]:
            if w1.array != w2.array:
                continue
            if _pinned(w1.indices, w2.indices, v):
                continue
            if red1 and red2 and op1 == op2:
                verdict = verdict.join(
                    Verdict(DOANY) if op1 == "+" else Verdict(REDUCTION, op1)
                )
                evidence.append(
                    Evidence(
                        "commutes",
                        f"carried updates to {w1.array!r} are "
                        f"'{op1}'-reductions with RHS independent of the "
                        "target: iterations commute",
                        (k1, k2) if k1 != k2 else (k1,),
                        (repr(w1),) if k1 == k2 else (repr(w1), repr(w2)),
                        op=op1,
                    )
                )
            else:
                if k1 == k2:
                    why = (
                        f"every iteration of {v!r} writes {w1!r} as a "
                        "plain assignment: last writer wins"
                    )
                elif red1 and red2:
                    why = (
                        f"statements [{k1}] and [{k2}] update {w1.array!r} "
                        f"with different operators ('{op1}' vs '{op2}'): "
                        "the updates do not commute with each other"
                    )
                else:
                    why = (
                        f"statements [{k1}] and [{k2}] both write "
                        f"{w1.array!r} and at least one is a plain "
                        "assignment: the final value depends on order"
                    )
                verdict = verdict.join(Verdict(SEQUENTIAL))
                evidence.append(
                    Evidence(
                        "witness",
                        f"output dependence carried by {v!r}: {why}",
                        (k1, k2) if k1 != k2 else (k1,),
                        (repr(w1),) if k1 == k2 else (repr(w1), repr(w2)),
                    )
                )

    # write-read pairs (same or different statement): any read of a
    # written array not pinned to the writing iteration is a carried
    # flow/anti dependence — reductions never survive here because
    # normalization strips the recognized self-read from the RHS
    for k1, w, _red, _op in writes:
        for k2, r in reads:
            if r.array != w.array:
                continue
            if _pinned(w.indices, r.indices, v):
                continue
            verdict = verdict.join(Verdict(SEQUENTIAL))
            evidence.append(
                Evidence(
                    "witness",
                    f"flow/anti dependence carried by {v!r}: statement "
                    f"[{k1}] writes {w!r} while statement [{k2}] reads "
                    f"{r!r} — iterations of {v!r} are not independent",
                    (k1, k2) if k1 != k2 else (k1,),
                    (repr(w), repr(r)),
                )
            )

    if verdict.kind == DOALL:
        pinned_writes = tuple(
            repr(w) for _, w, _, _ in writes if v in w.indices
        )
        evidence.append(
            Evidence(
                "disjoint",
                f"no dependence is carried by {v!r}: every written element "
                f"is pinned to a single {v!r}-iteration",
                tuple(range(len(body))),
                pinned_writes,
            )
        )
    # drop duplicate evidence (symmetric pairs produce identical records)
    seen: set[tuple] = set()
    uniq: list[Evidence] = []
    for e in evidence:
        key = (e.kind, e.detail, e.statements, e.refs, e.op)
        if key not in seen:
            seen.add(key)
            uniq.append(e)
    return verdict, tuple(uniq)


def _diag(code, severity, message, location, node=None, source=None):
    span = getattr(node, "span", None)
    return Diagnostic(
        code,
        severity,
        message,
        pass_name=_PASS,
        location=location,
        span=span,
        source=source if span is not None else None,
    )


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
    SEQUENTIAL witnesses at **error** severity and merges the legacy
    DOANY checker's findings in front of them — the binary checker is an
    independent implementation, and any program it rejects is demoted to
    SEQUENTIAL here even if this analyzer's native verdict disagrees
    (defense in depth; the two should always agree).  ``gate=False`` is
    classification-as-a-product (the CLI): witnesses render at **warn**
    severity and the legacy findings are omitted.
    """
    program = normalize_program(program)
    loops: list[LoopVerdict] = []
    verdict = Verdict(DOALL)
    for spec in program.loops:
        lv, ev = _classify_loop(program, spec.var)
        loops.append(LoopVerdict(spec.var, lv, ev))
        verdict = verdict.join(lv)

    report = DiagnosticReport()
    if gate:
        from repro.analysis.doany import check_program

        legacy = check_program(program, source=source)
        if not legacy.ok:
            report.extend(legacy.errors())
            verdict = verdict.join(Verdict(SEQUENTIAL))

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
    for k, stmt in enumerate(program.body):
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
    want_vars = [l.var for l in program.loops]
    have_vars = [lv.var for lv in certificate.loops]
    if want_vars != have_vars:
        fail(
            f"certified loops {have_vars} do not match the program's "
            f"loops {want_vars}"
        )
        return report

    accesses_of = []
    for stmt in program.body:
        accesses_of.append(
            {repr(stmt.target)} | {repr(r) for r in stmt.expr.refs()}
        )
    joined = Verdict(DOALL)
    for lv in certificate.loops:
        where = f"certificate, loop {lv.var}"
        for e in lv.evidence:
            if any(k < 0 or k >= len(program.body) for k in e.statements):
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
                stmts = [program.body[k] for k in e.statements]
                if not all(s.reduce and s.op == e.op for s in stmts):
                    fail(
                        f"commute evidence claims '{e.op}'-reductions but "
                        f"statements {list(e.statements)} are not", where,
                    )
        fresh, _ = _classify_loop(program, lv.var)
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
# flip the verdict (regions-pass idiom — the detector itself is on trial)
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

    report = DiagnosticReport()
    rng = np.random.default_rng(seed)
    for name, src in _PROBES:
        program = normalize_program(parse(src))
        clean = classify_program(program, source=src)
        if clean.verdict.kind == SEQUENTIAL:
            report.extend(clean.report.errors())
            report.add(
                _diag(
                    "BER065",
                    ERROR,
                    "unmutated probe classified SEQUENTIAL — the probe "
                    "set or the analyzer is broken",
                    f"probe {name}",
                )
            )
            continue
        for mname, mutate in _MUTANTS.items():
            mutant = mutate(program, rng)
            if mutant is None:
                continue  # mutation not applicable to this probe shape
            try:
                mutated = classify_program(mutant, gate=False)
            except ParseError:
                # the front-end itself rejects the mutant (e.g. a planted
                # self-read in a plain assignment) — caught even earlier
                # than the analyzer
                report.add(
                    _diag(
                        "BER066",
                        INFO,
                        f"seeded mutant {mname!r} caught: rejected by "
                        "normalization before analysis",
                        f"probe {name}",
                    )
                )
                continue
            if mutated.verdict.rank <= clean.verdict.rank:
                report.add(
                    _diag(
                        "BER065",
                        ERROR,
                        f"seeded mutant {mname!r} escaped: verdict stayed "
                        f"{mutated.verdict.label()} (clean: "
                        f"{clean.verdict.label()}) — the analyzer is blind "
                        "to this planted dependence",
                        f"probe {name}",
                    )
                )
            else:
                report.add(
                    _diag(
                        "BER066",
                        INFO,
                        f"seeded mutant {mname!r} caught: "
                        f"{clean.verdict.label()} → {mutated.verdict.label()}",
                        f"probe {name}",
                    )
                )
    return report


# ----------------------------------------------------------------------
# registered sweep pass: classify the shipped kernels + self-check
# ----------------------------------------------------------------------
@register_pass(
    "depend",
    "parallelism-lattice classification of shipped kernels "
    "(+ seeded mutation self-check)",
)
def _sweep() -> DiagnosticReport:
    from repro.kernels.spmm import SPMM_SRC
    from repro.kernels.spmv import SPMV_SRC, SPMV_T_SRC
    from repro.kernels.vecops import AXPY_SRC, DOT_SRC, SCALE_SRC

    report = DiagnosticReport()
    for src in (SPMV_SRC, SPMV_T_SRC, SPMM_SRC, AXPY_SRC, DOT_SRC, SCALE_SRC):
        report.extend(classify_source(src).report)
    report.extend(run_depend_selfcheck())
    return report
