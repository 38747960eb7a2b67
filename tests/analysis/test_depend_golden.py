"""Golden accept/reject table for the fold of ``analysis/doany.py`` into
``analysis/depend.py``.

At the commit that still had both analyzers, this generator enumerated a
small grammar of loop nests and recorded, per program, the binary checker's
``ok``, the lattice analyzer's native verdict (``gate=False``) and the sorted
BER01x code set.  ``GOLDEN_SHA256`` is the digest of that table; the one
surviving implementation must reproduce every row.

Parent-commit findings: 5,450 programs (2,025 refused by the parser), and
on every one the binary checker rejected exactly the nests for which the
lattice analyzer held a witness.  Two accepted nests carry the *label*
SEQUENTIAL without a witness — different-operator reductions on different
arrays, whose per-loop verdicts join to SEQUENTIAL because no single
operator names the nest; both analyzers' gates admit them (pinned by
``test_mixed_operator_reductions_on_different_arrays_are_admitted`` in
``test_depend.py``).
"""

import hashlib
import itertools

from repro.analysis import check_source
from repro.analysis.depend import classify_source
from repro.errors import ParseError

GOLDEN_SHA256 = "ff4f84acfd638dbd08ebf386db7e09eb8c722eefe5b12173c4d26cc93cec0766"
GOLDEN_ROWS = 5450

LOOP_VARS = "ijk"
#: operand product that names every loop variable of a depth-d nest
BASE = {1: "A[i]", 2: "A[i,j]", 3: "A[i,j] * B[j,k]"}
OPS = ("=", "+=", "*", "min", "max")


def _tuples(depth):
    """Rank-1 and rank-2 index tuples over the nest's loop variables."""
    vs = LOOP_VARS[:depth]
    return [(v,) for v in vs] + list(itertools.permutations(vs, 2))


def _ref(array, indices):
    return f"{array}[{','.join(indices)}]"


def statements(depth, targets):
    """Every statement of the grammar writing one of ``targets``: target
    tuple x update form x (pure operand | operand times a read of Y or Z)."""
    reads = [""] + [
        f" * {_ref(a, t)}" for a in "YZ" for t in _tuples(depth)
    ]
    out = []
    for array, t, op, read in itertools.product(targets, _tuples(depth), OPS, reads):
        target, rhs = _ref(array, t), BASE[depth] + read
        if op in ("=", "+="):
            out.append(f"{target} {op} {rhs}")
        elif op == "*":
            out.append(f"{target} = {target} * {rhs}")
        else:
            out.append(f"{target} = {op}({target}, {rhs})")
    return out


def _picker(seed):
    """Version-independent pseudo-random index stream (a 64-bit LCG)."""
    state = seed
    while True:
        state = (state * 6364136223846793005 + 1442695040888963407) % 2**64
        yield state >> 33


def programs():
    """The enumeration: every one-statement nest at depth 1-3, every
    two-statement nest at depth 1, and seeded samples of the two- and
    three-statement nests at depth 2 and 3."""
    bodies = []
    for depth in (1, 2, 3):
        bodies += [(depth, (s,)) for s in statements(depth, "Y")]
    pool1 = statements(1, "YZ")
    bodies += [(1, pair) for pair in itertools.product(pool1, pool1)]
    pick = _picker(1997)
    for depth, arity, count in ((2, 2, 1500), (3, 2, 1000), (2, 3, 600), (3, 3, 400)):
        first, rest = statements(depth, "Y"), statements(depth, "YZ")
        for _ in range(count):
            body = [first[next(pick) % len(first)]]
            body += [rest[next(pick) % len(rest)] for _ in range(arity - 1)]
            bodies.append((depth, tuple(body)))
    for depth, body in bodies:
        head = " ".join(f"for {v} in 0:n {{" for v in LOOP_VARS[:depth])
        yield f"{head} {' '.join(body)} {'}' * depth}"


def table():
    """One row per program: source, binary ``ok``, native lattice verdict,
    sorted BER01x codes (or ``ParseError`` when the front end refuses it)."""
    rows = []
    for src in programs():
        try:
            legacy = check_source(src)
            native = classify_source(src, gate=False).verdict
        except ParseError:
            rows.append(f"{src}\tParseError")
            continue
        codes = ",".join(sorted({d.code for d in legacy}))
        rows.append(f"{src}\t{legacy.ok}\t{native.label()}\t{codes}")
    return rows


def test_depend_alone_reproduces_the_two_analyzer_table():
    rows = table()
    assert len(rows) == GOLDEN_ROWS
    digest = hashlib.sha256("\n".join(rows).encode()).hexdigest()
    assert digest == GOLDEN_SHA256


def test_binary_view_rejects_exactly_the_nests_with_a_witness():
    for src in programs():
        try:
            legacy = check_source(src)
        except ParseError:
            continue
        gated = classify_source(src, gate=True)
        witnesses = gated.report.by_code("BER062")
        assert legacy.ok == gated.report.ok == (not witnesses), src
        assert legacy.ok == (sorted({d.code for d in legacy}) == ["BER010"]), src
        if witnesses:
            assert gated.verdict.label() == "SEQUENTIAL", src
            assert gated.report.diagnostics[0].code in ("BER011", "BER012", "BER013", "BER014")
