"""Python code generation from access plans: one printer.

A backend is a name in :data:`STRATEGIES`, which lists the lowering
strategies it probes, in order, for every planned statement:

* **scalar** — nested Python loops following the plan's steps exactly.
  It is the one printer of loop code: every unit of the
  ``"interpreted"`` backend, and every unit of the ``"vectorized"``
  backend that is not ``block-gemv``.  At ``bind()`` the native tier
  (:mod:`repro.compiler.native`) translates that print to C; it runs as
  Python only when no C compiler is on ``PATH`` or native declines the
  unit (and always for ``"interpreted"``, the semantic reference).
* **block-gemv** — the ``"vectorized"`` backend's first strategy: when
  the driver exposes a dense :meth:`inner_block_view` (a block format
  whose blocks average ``_SMALL_BLOCK`` values or more, where BLAS beats
  the C nest), its level walk collapses into one batched dense product
  per block shape, grouped once by :func:`~repro.formats.blocks.block_groups`.

A program's nests print in order, one unit after another; consecutive
units of a single-loop nest whose plans are that dense loop share it.  A
scalar lives in a local of ``run``: the call-time ones load from the
kernel's slot array :data:`SLOTS` on entry, a reduced one starts at zero
before its first unit, and each one a unit writes is stored back on exit.

Every kernel is emitted as two functions over the formats' flat storage
arrays (``A_rowptr``, ``X_vals``, ...), the loop bounds and the slot
array — the paper's inspector/executor split applied to one sequential
kernel:
``prepare(<structure>) -> aux`` runs once per ``bind()`` and holds whatever
a strategy hoisted (``block-gemv``'s block groups);
``run(<storage>, aux)`` does the value-dependent work and mutates the
output storage in place.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.compiler.ast_nodes import Assign, BinOp, Expr, Neg, Num, Program, Ref, Scalar
from repro.compiler.scheduling import Plan, Step
from repro.errors import CompileError
from repro.formats.base import Emitter, Format
from repro.formats.blocks import block_groups
from repro.observability.trace import span

__all__ = ["generate_source", "get_backend", "scalar_slots", "KernelUnit", "SLOTS", "STRATEGIES"]

#: the ``run`` parameter holding the call-time scalars, one float64 slot each
SLOTS = "scalars"


@dataclass(frozen=True)
class KernelUnit:
    """One statement with its plan (the compiler emits one nest per unit):
    ``nest`` indexes the program's nests; ``zero`` starts the unit by
    zeroing its target (a plain assignment, or a scalar's first unit)."""

    stmt: Assign
    plan: Plan
    nest: int = 0
    zero: bool = False


def scalar_slots(program: Program) -> tuple[str, ...]:
    """The call-time scalars, in slot order: all but the loop bounds."""
    bounds = {l.hi for nest in program.nests for l in nest.loops}
    return tuple(sorted((program.scalar_names() - bounds).union(program.scalar_targets())))


class _NestState:
    """Mutable walk state while emitting one loop nest."""

    def __init__(self):
        self.parent_pos: dict[str, str | None] = {}
        self.final_pos: dict[str, str] = {}
        self.depth_opened = 0


def _emit_steps(
    g: Emitter,
    program: Program,
    plan: Plan,
    formats: dict[str, Format],
    steps: tuple[Step, ...],
) -> _NestState:
    """Emit the nested access structure for ``steps``; returns walk state."""
    st = _NestState()
    loopspec = {l.var: l for l in program.loops}
    base_depth = g.depth
    # merge steps reset their cursor just before their anchor loop opens
    merge_by_anchor: dict[int, list[int]] = {}
    for k, step in enumerate(steps):
        if step.kind == "merge":
            merge_by_anchor.setdefault(step.anchor, []).append(k)
    cursors: dict[int, str] = {}
    for k, step in enumerate(steps):
        for mk in merge_by_anchor.get(k, ()):
            cur = g.fresh(f"cur_{steps[mk].term}")
            cursors[mk] = cur
            g.emit(f"{cur} = 0")
        if step.kind == "dense":
            spec = loopspec[step.var]
            g.open(
                f"for {step.var} in range({spec.lo}, {spec.hi}):"
            )
        elif step.kind == "merge":
            fmt = formats[step.term]
            level = fmt.levels()[step.level_index]
            pos = level.emit_merge(
                g, step.term, st.parent_pos.get(step.term), step.key, cursors[k]
            )
            st.parent_pos[step.term] = pos
            st.final_pos[step.term] = pos
        else:
            fmt = formats[step.term]
            level = fmt.levels()[step.level_index]
            term = plan.query.term_for(step.term)
            avm = {a: v for a, v in enumerate(term.indices)}
            parent = st.parent_pos.get(step.term)
            if step.kind == "enumerate":
                axis_vars: dict[int, str] = {}
                guard_pairs: list[tuple[str, str]] = []
                for a in level.binds:
                    if a not in avm:
                        continue
                    v = avm[a]
                    # the first occurrence of a new variable binds it; an
                    # already-bound one, or any repeat (A[i,i]), is filtered
                    if v in axis_vars.values() or v not in step.binds:
                        tmp = g.fresh(f"g_{v}")
                        axis_vars[a] = tmp
                        guard_pairs.append((tmp, v))
                    else:
                        axis_vars[a] = v
                pos = level.emit_enumerate(g, step.term, parent, axis_vars)
                for tmp, v in guard_pairs:
                    g.open(f"if {tmp} != {v}:")
                    g.emit("continue")
                    g.close()
            else:  # search
                axis_exprs = {a: avm[a] for a in level.binds if a in avm}
                pos = level.emit_search(g, step.term, parent, axis_exprs)
            st.parent_pos[step.term] = pos
            st.final_pos[step.term] = pos
    st.depth_opened = g.depth - base_depth
    return st


# ----------------------------------------------------------------------
# scalar expression emission
# ----------------------------------------------------------------------
def _emit_expr_scalar(
    g: Emitter,
    expr: Expr,
    formats: dict[str, Format],
    plan: Plan,
    st: _NestState,
) -> str:
    if isinstance(expr, Num):
        return repr(expr.value)
    if isinstance(expr, Scalar):
        return expr.name
    if isinstance(expr, Neg):
        return f"(-{_emit_expr_scalar(g, expr.operand, formats, plan, st)})"
    if isinstance(expr, BinOp):
        l = _emit_expr_scalar(g, expr.left, formats, plan, st)
        r = _emit_expr_scalar(g, expr.right, formats, plan, st)
        return f"({l} {expr.op} {r})"
    if isinstance(expr, Ref):
        fmt = formats[expr.array]
        avm = {a: v for a, v in enumerate(expr.indices)}
        pos = st.final_pos.get(expr.array)
        return fmt.emit_load(g, expr.array, avm, pos)
    raise CompileError(f"cannot emit expression {expr!r}")


def _emit_scalar_nest(
    g: Emitter, program: Program, unit: KernelUnit, formats: dict[str, Format], *more: KernelUnit
) -> None:
    """``unit``'s nest; ``more`` units, whose plans walk the same dense
    loops, run their statements in the same loop body after it."""
    st = _emit_steps(g, program, unit.plan, formats, unit.plan.steps)
    for u in (unit, *more):
        stmt = u.stmt
        value = _emit_expr_scalar(g, stmt.expr, formats, u.plan, st)
        if isinstance(stmt.target, Scalar):
            g.emit(f"{stmt.target.name} += {value}")
            continue
        avm = {a: v for a, v in enumerate(stmt.target.indices)}
        formats[stmt.target.array].emit_accumulate(
            g, stmt.target.array, avm, None, value,
            op="=" if _stores(u) else stmt.op if stmt.reduce else "+",
        )
    g.close(st.depth_opened)


# ----------------------------------------------------------------------
# block-gemv strategy: collapse the driver's whole level walk into one
# batched dense matrix-vector product per block *shape* (i-nodes, clique
# blocks, dense windows)
# ----------------------------------------------------------------------
def _multiplicative_factors(expr: Expr):
    """Flatten a product/quotient chain into (sign, [(op, factor), ...]);
    op is '*' or '/'.  Returns None if the expression is not such a chain."""
    sign = 1.0
    factors: list[tuple[str, Expr]] = []

    def walk(e: Expr, op: str) -> bool:
        nonlocal sign
        if isinstance(e, Neg):
            sign = -sign
            return walk(e.operand, op)
        if isinstance(e, BinOp) and e.op in ("*", "/"):
            if op == "/":
                # (a / (b*c)) — keep whole right side as one denominator
                factors.append((op, e))
                return True
            return walk(e.left, op) and walk(e.right, e.op)
        if isinstance(e, (Num, Scalar, Ref)):
            factors.append((op, e))
            return True
        return False

    ok = walk(expr, "*")
    return (sign, factors) if ok else None


def _chain(parts) -> str | None:
    """Left-to-right product/quotient of ``(op, code)`` pairs; the order
    fixes the rounding.  None when there is nothing to chain."""
    out = None
    for op, code in parts:
        if out is None:
            out = code if op == "*" else f"(1.0 {op} {code})"
        else:
            out = f"({out} {op} {code})"
    return out


#: globals of every generated kernel source
RUNTIME = {"np": np, "block_groups": block_groups}


def _block_plan_shape(unit: KernelUnit, formats: dict[str, Format]):
    """If the plan ends with the driver's full level walk — unguarded
    enumerations of which only the last two bind (one row var, one col
    var) — and the format exposes a block view, return
    (row_var, col_var, outer_steps); else None."""
    plan = unit.plan
    if plan.noop or plan.driver is None:
        return None
    fmt = formats[plan.driver]
    if fmt.inner_block_view(plan.driver) is None:
        return None
    nlev = len(fmt.levels())
    walk = plan.steps[-nlev:]
    if nlev < 2 or len(walk) != nlev:
        return None
    if not all(
        s.kind == "enumerate"
        and s.term == plan.driver
        and s.level_index == k
        and not s.guards
        and len(s.binds) == (1 if k >= nlev - 2 else 0)
        for k, s in enumerate(walk)
    ):
        return None
    return walk[-2].binds[0], walk[-1].binds[0], plan.steps[:-nlev]


def _block_vectorizable(unit: KernelUnit, formats: dict[str, Format]) -> bool:
    if unit.stmt.reduce and unit.stmt.op != "+":
        return False  # the GEMV collapse sums; other combines don't fit
    shape = _block_plan_shape(unit, formats)
    if shape is None:
        return False
    row_var, col_var, outer = shape
    stmt = unit.stmt
    target = stmt.target
    if target.indices != (row_var,):
        return False
    tfmt = formats[target.array]
    if not tfmt.writable or tfmt.ndim != 1:
        return False
    mf = _multiplicative_factors(stmt.expr)
    if mf is None:
        return False
    driver = unit.plan.driver
    term = unit.plan.query.term_for(driver)
    outer_vars = set()
    for s in outer:
        outer_vars.update(s.binds)
    for op, f in mf[1]:
        if isinstance(f, BinOp):
            return False
        if isinstance(f, Ref):
            if f.array == driver:
                if f.indices != term.indices:
                    return False
                continue
            rf = formats[f.array]
            if not rf.structurally_dense or rf.ndim != 1:
                return False
            idx = set(f.indices)
            if not (idx == {row_var} or idx == {col_var} or idx <= outer_vars):
                return False
    return True


def _emit_block_nest(
    g: Emitter, program: Program, unit: KernelUnit, formats: dict[str, Format]
) -> None:
    plan, stmt = unit.plan, unit.stmt
    row_var, col_var, outer = _block_plan_shape(unit, formats)
    view = formats[plan.driver].inner_block_view(plan.driver)
    # which blocks share a shape, and where their rows, columns and values
    # live, is structure: grouped once in prepare (see block_groups)
    (rstart, ridx), (cstart, cidx) = view["rows"], view["cols"]
    groups = g.hoist(
        "grp",
        f"block_groups({view['nrows']}, {view['ncols']}, {view['voff']}, "
        f"{rstart}, {ridx}, {cstart}, {cidx})",
    )
    st = _emit_steps(g, program, plan, formats, outer)
    R, C, V, shape, add_at = (g.fresh(b) for b in ("R", "C", "V", "sh", "at"))
    g.open(f"for {R}, {C}, {V}, {shape}, {add_at} in {groups}:")
    blk = g.fresh("B")
    g.emit(f"{blk} = {view['vals']}[{V}].reshape({shape})")

    sign, factors = _multiplicative_factors(stmt.expr)
    col_parts: list[tuple[str, str]] = []
    row_parts: list[tuple[str, str]] = []
    scalar_parts: list[tuple[str, str]] = []
    for op, f in factors:
        if isinstance(f, Num):
            scalar_parts.append((op, repr(f.value)))
        elif isinstance(f, Scalar):
            scalar_parts.append((op, f.name))
        elif f.array == plan.driver:
            continue  # the block itself
        elif set(f.indices) == {col_var}:
            col_parts.append((op, formats[f.array].emit_load_vec(f.array, [C])))
        elif set(f.indices) == {row_var}:
            row_parts.append((op, formats[f.array].emit_load_vec(f.array, [R])))
        else:  # outer-bound scalar load
            tmp = Emitter()
            code = formats[f.array].emit_load(
                tmp, f.array, {a: v for a, v in enumerate(f.indices)}, None
            )
            scalar_parts.append((op, code))
    if sign < 0:
        scalar_parts.insert(0, ("*", "-1.0"))

    xg = _chain(col_parts)
    if xg:
        # one batched product per shape; a one-block batch is a 2-D view
        # whose product goes to BLAS (dense windows of hybrid plans)
        x = g.fresh("x")
        g.emit(f"{x} = {xg}")
        res = f"{blk} @ {x} if {blk}.ndim == 2 else np.einsum('tij,tj->ti', {blk}, {x})"
    else:
        res = f"{blk}.sum(axis=-1)"
    pre = _chain(row_parts)
    if pre:
        res = f"({pre}) * ({res})"
    if scalar_parts:
        res = f"({_chain(scalar_parts)}) * ({res})"
    out_name = f"{stmt.target.array}_vals"
    y = g.fresh("y")
    g.emit(f"{y} = {res}")
    g.open(f"if {add_at}:")
    g.emit(f"np.add.at({out_name}, {R}, {y})")
    g.close()
    g.open("else:")
    g.emit(f"{out_name}[{R}] += {y}")
    g.close(2 + st.depth_opened)


def _zero_fill(g: Emitter, target: Ref | Scalar, formats: dict[str, Format]) -> None:
    if isinstance(target, Scalar):
        g.emit(f"{target.name} = 0.0")
        return
    fmt = formats[target.array]
    colons = ", ".join(":" for _ in range(fmt.ndim))
    g.emit(f"{target.array}_vals[{colons}] = 0.0")


#: backend name -> its lowering strategies ``(label, applies(unit,
#: formats), emit(g, program, unit, formats))``, probed in order; the last,
#: the scalar nest, accepts every unit
STRATEGIES = {
    "interpreted": (("scalar", lambda unit, formats: True, _emit_scalar_nest),),
    "vectorized": (
        ("block-gemv", _block_vectorizable, _emit_block_nest),
        ("scalar", lambda unit, formats: True, _emit_scalar_nest),
    ),
}


def get_backend(name: str | None = None) -> str:
    """``name`` checked against :data:`STRATEGIES` (``None``: ``"vectorized"``)."""
    name = "vectorized" if name is None else name
    if name not in STRATEGIES:
        raise CompileError(
            f"unknown executor backend {name!r}; available: {', '.join(STRATEGIES)}"
        )
    return name


def _lower_unit(g: Emitter, program: Program, unit: KernelUnit, formats, backend: str) -> str:
    """Emit one unit through the first of ``backend``'s strategies that
    accepts it (the scalar nest accepts every unit); returns its label."""
    label, _, emit = next(s for s in STRATEGIES[backend] if s[1](unit, formats))
    emit(g, program, unit, formats)
    return label


def _dense_groups(units: list[KernelUnit]):
    """Runs of consecutive units to print as one loop: units of one
    single-loop nest whose plans are that dense loop.  Every access there
    is pinned to its iteration, so sharing the loop changes no value —
    unless a unit zeroes an array an earlier one touched (the zero runs
    before the shared loop), which starts a new run."""
    group: list[KernelUnit] = []
    for u in units:
        if group and u.nest == group[0].nest and _dense_loop(u) and _dense_loop(group[0]) and not (
            _fills(u) and any(u.stmt.target.array in (v.stmt.target.array, *(r.array for r in v.stmt.expr.refs())) for v in group)
        ):
            group.append(u)
            continue
        if group:
            yield group
        group = [u]
    if group:
        yield group


def _dense_loop(unit: KernelUnit) -> bool:
    return not unit.plan.noop and len(unit.plan.steps) == 1 and unit.plan.steps[0].kind == "dense"


def _stores(unit: KernelUnit) -> bool:
    """A plain assignment its dense loop writes once per element: a store,
    not a zero fill and an accumulate (``0.0 + -0.0`` is ``0.0``)."""
    return unit.zero and _dense_loop(unit) and unit.stmt.target.indices == (unit.plan.steps[0].var,)


def _fills(unit: KernelUnit) -> bool:
    """The unit zeroes its target before its loop."""
    return unit.zero and not _stores(unit)


def generate_source(
    program: Program,
    units: list[KernelUnit],
    formats: dict[str, Format],
    param_names: list[str],
    backend: str,
) -> tuple[str, tuple[str, ...]]:
    """Emit the kernel's two functions for the program's plan units.

    ``prepare(<structure>) -> aux`` computes everything that depends on
    structure alone (whatever the strategies
    :meth:`~repro.formats.base.Emitter.hoist`); its
    parameters are ``param_names`` minus the formats' value arrays and
    :data:`SLOTS`.  ``run(<param_names>, aux)`` does the value-dependent
    work.  Every unit is lowered through the strategies
    :data:`STRATEGIES` lists for the ``backend`` name.  Returns the source
    plus the per-unit lowering labels (``"noop"`` or a strategy label).
    """
    with span("compiler.codegen.generate", units=len(units), backend=backend) as sp:
        g = Emitter()
        # parameter names must never be reused as generated temporaries (a
        # storage array named like a fresh temp would be clobbered)
        slots = scalar_slots(program)
        g.reserve([*param_names, *slots, "aux"])
        g.depth = 1
        g.lines += [f"    {name} = {SLOTS}[{k}]" for k, name in enumerate(slots)]
        labels: list[str] = []
        for group in _dense_groups(units):
            for unit in group:
                if _fills(unit):  # plain assignment: zero-fill then guarded accumulate
                    _zero_fill(g, unit.stmt.target, formats)
            unit = group[0]
            if unit.plan.noop:
                labels.append("noop")
            elif len(group) > 1:
                _emit_scalar_nest(g, program.nests[unit.nest], unit, formats, *group[1:])
                labels += ["scalar"] * len(group)
            else:
                labels.append(_lower_unit(g, program.nests[unit.nest], unit, formats, backend))
        written = {u.stmt.target.name for u in units if isinstance(u.stmt.target, Scalar)}
        g.lines += [f"    {SLOTS}[{k}] = {name}" for k, name in enumerate(slots) if name in written]
        if not g.lines:
            g.emit("pass")
        values = {f"{n}_{k}" for n, f in formats.items() for k in f.value_keys} | {SLOTS}
        names = [name for name, _ in g.hoisted]
        aux = ", ".join(names) + ("," if len(names) == 1 else "")
        head = [f"def prepare({', '.join(p for p in param_names if p not in values)}):"]
        head += [f"    {name} = {code}" for name, code in g.hoisted]
        head += [f"    return ({aux})", "", ""]
        head += [f"def run({', '.join([*param_names, 'aux'])}):"]
        if names:
            head.append(f"    ({aux}) = aux")
        src = "\n".join(head + g.lines) + "\n"
        sp.set(backends=labels, lines=len(g.lines), chars=len(src))
    return src, tuple(labels)


def define(source: str) -> tuple:
    """``(prepare, run, prepare's parameter names)`` that ``source`` defines."""
    ns = dict(RUNTIME)
    with span("compiler.codegen.exec", chars=len(source)):
        exec(compile(source, "<bernoulli-kernel>", "exec"), ns)
    code = ns["prepare"].__code__
    return ns["prepare"], ns["run"], code.co_varnames[: code.co_argcount]
