"""The query optimizer: join ordering and join-implementation selection.

Given one conjunctive query (paper Eq. 4) plus the access-method
descriptions of the storage formats, the planner decides

* which sparse relation *drives* — enumerates its stored entries through
  its level hierarchy, fixing the loop structure (join order),
* how every other relation is accessed once its indices are bound:
  a *search* per level (the join implementation: O(1) dense lookup,
  binary search on a sorted level, ...), or a *secondary enumeration*
  when a level's axis is still unbound (chained drivers, e.g. the
  sparse-×-sparse product Z[i,k] += A[i,j]·B[j,k] where A drives (i,j)
  and B's compressed column level then enumerates k),
* where the leftover dense loops go (innermost).

Cost model: product of the enumerated levels' average fanouts times the
extents of the dense loops, plus the per-iteration search costs declared
by the access methods.  The cheapest candidate driver wins; callers can
force a driver (the join-order ablation bench does).
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace

import numpy as np

from repro.errors import PlanningError
from repro.formats.base import Format
from repro.observability.trace import span
from repro.relational.predicates import NZ, to_dnf
from repro.relational.query import Query, RelTerm

__all__ = ["Step", "TermAccess", "Plan", "plan_query"]


@dataclass(frozen=True)
class Step:
    """One step of the nested access structure.

    kind:
      * ``"enumerate"`` — open a loop over ``term``'s level ``level_index``
        (binding ``binds``),
      * ``"search"``    — locate a position in ``term``'s level
        ``level_index`` from already-bound indices (may skip),
      * ``"dense"``     — a plain dense loop over loop variable ``var``.
    """

    kind: str
    term: str | None = None
    level_index: int = 0
    binds: tuple[str, ...] = ()
    var: str | None = None
    #: loop vars this level also binds that are *already* bound outside:
    #: the enumeration must be filtered (emit `if new != old: continue`)
    guards: tuple[str, ...] = ()
    #: for kind=="merge": index of the sorted loop step this merge rides
    #: on (the cursor resets just before that loop opens)
    anchor: int = -1
    #: for kind=="merge": the key loop variable
    key: str | None = None

    def __repr__(self):
        if self.kind == "dense":
            return f"dense({self.var})"
        if self.kind == "merge":
            return f"merge({self.term}.L{self.level_index} on {self.key}@{self.anchor})"
        return f"{self.kind}({self.term}.L{self.level_index}->{','.join(self.binds) or '∅'})"


@dataclass(frozen=True)
class TermAccess:
    """How one relation participates: ``driver``, ``chained`` (some levels
    enumerate), ``searched``, or ``dense`` (O(1) loads, no steps)."""

    term: RelTerm
    mode: str


@dataclass(frozen=True)
class Plan:
    """An executable access plan for one conjunctive query."""

    query: Query
    driver: str | None
    steps: tuple[Step, ...]
    accesses: tuple[TermAccess, ...]
    cost: float
    noop: bool = False  # predicate is FALSE: nothing to execute
    #: every candidate driver the planner weighed, as
    #: ``(driver_name_or_None, cost_or_None, verdict)`` — verdict is
    #: ``"chosen"``, ``"rejected: ..."`` or ``"illegal: ..."``.  Feeds
    #: ``repro.observability.explain``.
    considered: tuple[tuple[str | None, float | None, str], ...] = ()

    def describe(self) -> str:
        """Human-readable plan summary (used in docs and tests)."""
        if self.noop:
            return "noop (predicate is FALSE)"
        parts = [f"driver={self.driver or 'dense-iteration'}"]
        parts.append("steps: " + " ; ".join(map(repr, self.steps)))
        parts.append(
            "access: "
            + ", ".join(f"{a.term.array}:{a.mode}" for a in self.accesses)
        )
        return "\n".join(parts)


def _axis_var_map(term: RelTerm) -> dict[int, str]:
    """Matrix/vector axis -> loop variable name for a term."""
    return {k: v for k, v in enumerate(term.indices)}


def _extent_hint(query: Query, formats: dict[str, Format], var: str) -> float:
    """Best-effort extent of a loop var (cost model only)."""
    for t in query.terms:
        if var in t.indices:
            fmt = formats[t.array]
            return float(fmt.shape[t.indices.index(var)])
    for iv in query.index_vars:
        if iv.name == var and iv.hi.lstrip("-").isdigit():
            return float(iv.hi)
    return 1000.0


def _merge_anchor(
    steps: list[Step], formats: dict[str, Format], key_var: str
) -> int | None:
    """Index of the step a merge on ``key_var`` can ride on, or None.

    Requirements: the key is bound by the *innermost* loop opened so far,
    and that loop enumerates its indices in sorted order (dense loops
    always do; format levels declare ``sorted_enum``)."""
    loop_steps = [
        k for k, s in enumerate(steps) if s.kind in ("enumerate", "dense")
    ]
    if not loop_steps:
        return None
    last = loop_steps[-1]
    s = steps[last]
    if key_var not in s.binds:
        return None
    if s.kind == "enumerate":
        level = formats[s.term].levels()[s.level_index]
        if not level.sorted_enum:
            return None
    return last


def _try_schedule(
    query: Query,
    formats: dict[str, Format],
    conjunct: tuple[NZ, ...],
    driver: RelTerm | None,
    allow_merge: bool = True,
) -> Plan | None:
    """Build a plan with the given primary driver, or None if illegal."""
    sparse_terms = [
        t for t in query.terms if not formats[t.array].structurally_dense
    ]
    conj_arrays = {lit.array for lit in conjunct}
    output = query.output

    # sparse term ordering: driver first, then remaining conjunct terms in
    # query order, then any other sparse terms (there should be none for
    # well-formed split statements)
    ordered: list[RelTerm] = []
    if driver is not None:
        ordered.append(driver)
    for t in sparse_terms:
        if t is not (driver) and t.array != output:
            ordered.append(t)
    # the output, if sparse, cannot be scheduled (outputs must be dense)
    if output is not None and not formats[output].structurally_dense:
        return None

    steps: list[Step] = []
    bound: set[str] = set()
    accesses: list[TermAccess] = []
    cost = 1.0
    iters = 1.0

    for pos, t in enumerate(ordered):
        fmt = formats[t.array]
        avm = _axis_var_map(t)
        enumerated = False
        searched = False
        for li, level in enumerate(fmt.levels()):
            level_vars = tuple(avm[a] for a in level.binds if a in avm)
            new_vars = tuple(v for v in dict.fromkeys(level_vars) if v not in bound)
            if not level.binds or new_vars:
                # must enumerate: binds an internal index or new loop vars;
                # vars already bound, or bound twice here (A[i,i] on one
                # level binding both axes), become filter guards
                if not level.enumerable:
                    return None
                guard_vars = tuple(v for k, v in enumerate(level_vars) if v in bound or v in level_vars[:k])
                steps.append(
                    Step(
                        "enumerate",
                        term=t.array,
                        level_index=li,
                        binds=new_vars,
                        guards=guard_vars,
                    )
                )
                bound.update(new_vars)
                iters *= max(1.0, level.avg_fanout())
                enumerated = True
            else:
                # all of this level's axes are bound: search, or ride the
                # innermost sorted loop with a two-pointer merge
                anchor = None
                if (
                    allow_merge
                    and level.mergeable
                    and len(fmt.levels()) == 1
                    and len(level_vars) == 1
                ):
                    anchor = _merge_anchor(steps, formats, level_vars[0])
                if anchor is not None:
                    steps.append(
                        Step(
                            "merge",
                            term=t.array,
                            level_index=li,
                            anchor=anchor,
                            key=level_vars[0],
                        )
                    )
                    cost += iters * 1.5
                    searched = True
                elif level.searchable:
                    steps.append(Step("search", term=t.array, level_index=li))
                    cost += iters * level.search_cost
                    searched = True
                else:
                    return None
        if pos == 0 and driver is not None:
            mode = "driver"
        elif enumerated:
            mode = "chained"
        else:
            mode = "searched"
        # a sparse term that is merely searched, but whose NZ literal is
        # not part of the predicate, would change semantics (its miss must
        # yield 0, not skip); split statements never produce this
        if mode == "searched" and t.array not in conj_arrays:
            raise PlanningError(
                f"sparse term {t.array!r} searched without an NZ guard; "
                "statement was not properly split"
            )
        accesses.append(TermAccess(t, mode))

    # leftover loop variables run as dense loops, innermost, program order
    for iv in query.index_vars:
        if iv.name not in bound:
            steps.append(Step("dense", var=iv.name, binds=(iv.name,)))
            bound.add(iv.name)
            iters *= _extent_hint(query, formats, iv.name)

    # dense terms are accessed in place
    for t in query.terms:
        if formats[t.array].structurally_dense:
            mode = "output" if t.array == output else "dense"
            accesses.append(TermAccess(t, mode))

    cost += iters
    return Plan(
        query=query,
        driver=driver.array if driver is not None else None,
        steps=tuple(steps),
        accesses=tuple(accesses),
        cost=cost,
    )


def plan_query(
    query: Query,
    formats: dict[str, Format],
    force_driver: str | None = None,
    allow_merge: bool = True,
) -> Plan:
    """Choose the cheapest legal plan for a conjunctive query.

    ``force_driver`` pins the primary driver; ``allow_merge`` toggles the
    merge-join implementation (ablation / testing hooks).  Raises
    :class:`PlanningError` when the predicate is disjunctive (the compiler
    splits statements first) or no legal plan exists.
    """
    for t in query.terms:
        if t.array not in formats:
            raise PlanningError(f"no format given for array {t.array!r}")
    dnf = to_dnf(query.predicate)
    if len(dnf) == 0:
        return Plan(query, None, (), (), cost=0.0, noop=True)
    if len(dnf) > 1:
        raise PlanningError(
            "disjunctive predicate reached the planner; statements must be "
            "split additively first (see repro.compiler.sparsity)"
        )
    conjunct = dnf[0]
    conj_arrays = {lit.array for lit in conjunct}

    candidates: list[RelTerm | None] = []
    if force_driver is not None:
        forced = [t for t in query.terms if t.array == force_driver]
        if not forced:
            raise PlanningError(f"forced driver {force_driver!r} is not a term")
        candidates = [forced[0]]
    elif conj_arrays:
        candidates = [
            t
            for t in query.terms
            if t.array in conj_arrays
            and not formats[t.array].structurally_dense
        ]
        if not candidates:
            # all guarded arrays are dense (e.g. TRUE predicate): pure
            # dense iteration
            candidates = [None]
    else:
        candidates = [None]

    best: Plan | None = None
    errors: list[str] = []
    considered: list[tuple[str | None, float | None, str]] = []
    with span(
        "compiler.scheduling.plan",
        query=repr(query),
        candidates=[c.array if c is not None else None for c in candidates],
    ) as sp:
        for cand in candidates:
            name = cand.array if cand is not None else None
            try:
                plan = _try_schedule(query, formats, conjunct, cand, allow_merge)
            except PlanningError as e:
                errors.append(str(e))
                considered.append((name, None, f"illegal: {e}"))
                continue
            if plan is None:
                considered.append(
                    (
                        name,
                        None,
                        "illegal: no legal schedule (unsearchable level, "
                        "unenumerable level, or sparse output)",
                    )
                )
                continue
            considered.append((name, plan.cost, ""))
            if best is None or plan.cost < best.cost:
                best = plan
        if best is None:
            detail = ("; ".join(errors)) or "no candidate driver admits a legal schedule"
            raise PlanningError(f"cannot plan query {query!r}: {detail}")
        considered = [
            (
                name,
                cost,
                verdict
                or (
                    "chosen"
                    if name == best.driver and cost == best.cost
                    else f"rejected: cost {cost:g} vs best {best.cost:g}"
                ),
            )
            for name, cost, verdict in considered
        ]
        best = replace(best, considered=tuple(considered))
        sp.set(
            driver=best.driver,
            cost=best.cost,
            steps=[repr(s) for s in best.steps],
            access={a.term.array: a.mode for a in best.accesses},
        )
    return best
