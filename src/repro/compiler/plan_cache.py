"""The key of the kernel cache (:class:`PlanCache`, a :class:`~repro.memo.Memo`).

It captures everything the generated code depends on — nothing more, so
rebinding fresh data of the same structure is a pure hit:

* the **loop nest**: the canonical ``repr`` of the parsed
  :class:`~repro.compiler.ast_nodes.Program` (source text that parses to
  the same program shares kernels),
* the **format specs**: each array's :meth:`~repro.formats.base.Format.spec`
  — class identity plus any structure that changes codegen (wrapped
  formats, translated axes), never data,
* the **sparsity predicates** of the split statements (Bik–Wijshoff
  output; distinguishes the query structure the planner sees),
* the **backend** name and the planner options (forced driver, merge
  joins).
"""

from __future__ import annotations

import functools

from repro.compiler.ast_nodes import Program
from repro.compiler.sparsity import sparsity_predicate, split_statement
from repro.memo import Memo

__all__ = ["PlanCache", "kernel_cache_key", "DEFAULT_MAX_ENTRIES"]

#: default PlanCache bound — high enough that eviction never triggers in
#: any single-process workload (the whole test suite compiles a few
#: hundred distinct kernels), low enough to bound a long-lived service
DEFAULT_MAX_ENTRIES = 4096


def kernel_cache_key(
    program: Program,
    formats,
    backend: str,
    force_driver: str | None = None,
    allow_merge: bool = True,
    extra_key: tuple = (),
) -> tuple:
    """The cache key for one compilation request (see module docstring).

    ``extra_key`` lets callers who compile on behalf of a *decision* —
    notably :mod:`repro.compiler.autoplan`, which keys on the structure
    profile's fingerprint — keep otherwise-identical requests apart (or,
    symmetrically, share them only when the decision inputs matched).
    """
    sparse = frozenset(
        name for name in program.arrays() if not formats[name].structurally_dense
    )
    specs = tuple(sorted((name, fmt.spec()) for name, fmt in formats.items()))
    return (
        *_program_key(program, sparse),
        specs,
        backend,
        force_driver,
        allow_merge,
        tuple(extra_key),
    )


@functools.lru_cache(maxsize=1024)
def _program_key(program: Program, sparse: frozenset) -> tuple[str, tuple]:
    """The program-only part of the key: canonical text and the sparsity
    predicates of the split statements (memoized — programs are immutable)."""
    predicates = tuple(
        repr(sparsity_predicate(piece.expr, sparse))
        for stmt in program.body
        for piece in split_statement(stmt)
    )
    return repr(program), predicates


class PlanCache(Memo):
    """The kernel store: a :class:`~repro.memo.Memo` whose build is a
    compile (``get_or_compile``) and whose ``insert`` stores a kernel."""

    def __init__(self, name: str = "compiler", max_entries: int = DEFAULT_MAX_ENTRIES):
        super().__init__(name, max_entries)

    get_or_compile = Memo.get_or_build
    insert = Memo.put
