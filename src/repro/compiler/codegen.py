"""Python code generation from access plans.

A backend is a name in :data:`STRATEGIES`, which lists the lowering
strategies it probes, in order, for every planned statement:

* **scalar** — nested Python loops following the plan's steps exactly;
  the semantic reference (the ``"interpreted"`` backend's one strategy)
  and the ``"fallback:scalar"`` lowering of any statement none of the
  ``"vectorized"`` strategies accepts (say, an innermost search: no
  contiguous view to vectorize over).
* **segmented / block-gemv / vectorized** — the ``"vectorized"``
  backend's strategies: when the access-method properties expose a
  contiguous :meth:`inner_vector_view`, a dense :meth:`inner_block_view`,
  or a whole-matrix :meth:`segmented_view`, loops are replaced by numpy
  slice/gather/scatter operations (``np.dot`` for reductions, slice
  ``+=`` for affine scatters, ``np.add.at`` for gather scatters,
  ``np.add.reduceat`` for segmented reductions, one batched product per
  block shape for dense blocks).  This plays the role of
  the paper's generated C code: it exploits exactly the contiguity the
  formats were designed to expose.
* **reduce-scatter** — the op-aware variant for non-additive reductions
  the dependence analyzer certifies (``REDUCTION(op)``, op ∈ ``*``,
  ``min``, ``max``): the same vector shapes lowered through privatized
  accumulation (``np.prod``/``.min()``/``.max()`` on contiguous views,
  ``np.multiply.at``/``np.minimum.at``/``np.maximum.at`` for gather
  scatters).  The additive strategies above stay ``+``-only.

Every kernel is emitted as two functions over the formats' flat storage
arrays (``A_rowptr``, ``X_vals``, ...) and the free scalars — the paper's
inspector/executor split applied to one sequential kernel:
``prepare(<structure>) -> aux`` runs once per ``bind()`` and holds whatever
a strategy hoisted (segment starts, range checks, scratch buffers);
``run(<storage>, aux)`` does the value-dependent work and mutates the
output storage in place.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.compiler.ast_nodes import Assign, BinOp, Expr, Neg, Num, Program, Ref, Scalar
from repro.compiler.scheduling import Plan, Step
from repro.errors import CompileError, FormatError
from repro.formats.base import Emitter, Format
from repro.formats.blocks import block_groups
from repro.observability import metrics as _metrics
from repro.observability.trace import span

__all__ = ["generate_source", "get_backend", "KernelUnit", "STRATEGIES"]


@dataclass(frozen=True)
class KernelUnit:
    """One statement with its plan (the compiler emits one nest per unit)."""

    stmt: Assign
    plan: Plan


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
    g: Emitter, program: Program, unit: KernelUnit, formats: dict[str, Format]
) -> None:
    plan, stmt = unit.plan, unit.stmt
    st = _emit_steps(g, program, plan, formats, plan.steps)
    value = _emit_expr_scalar(g, stmt.expr, formats, plan, st)
    out_fmt = formats[stmt.target.array]
    avm = {a: v for a, v in enumerate(stmt.target.indices)}
    out_fmt.emit_accumulate(
        g, stmt.target.array, avm, None, value,
        op=stmt.op if stmt.reduce else "+",
    )
    g.close(st.depth_opened)


# ----------------------------------------------------------------------
# vectorized and reduce-scatter strategies
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


def _chain(parts, seed: str | None = None) -> str | None:
    """Left-to-right product/quotient of ``(op, code)`` pairs; the order
    fixes the rounding.  None when there is nothing to chain."""
    out = seed
    for op, code in parts:
        if out is None:
            out = code if op == "*" else f"(1.0 {op} {code})"
        else:
            out = f"({out} {op} {code})"
    return out


def _load_part(op: str, fmt: Format, name: str, idx: str):
    """``(op, code, gather)`` of the 1-D vector load ``name[idx]``.
    ``gather`` is the ``(array, index, extent)`` of a plain fancy load —
    what :func:`_emit_flat_product` turns into ``np.take(out=)`` — or None
    when the format overrides the load (translated vectors)."""
    gather = (f"{name}_vals", idx, f"{name}_n0") if _plain_vals(fmt) else None
    return op, fmt.emit_load_vec(name, [idx]), gather


def _plain_vals(fmt: Format) -> bool:
    """The format loads ``name[idx]`` as ``name_vals[idx]`` (no override)."""
    return type(fmt).emit_load_vec is Format.emit_load_vec


def _emit_flat_product(g: Emitter, parts) -> str:
    """Emit the per-entry product of ``parts`` (``_load_part`` triples) and
    return the expression holding it.

    With a gather among two or more factors the product is built in one
    scratch buffer owned by ``aux``: ``np.take(..., out=, mode="clip")``
    then in-place multiplies, same factor order as the plain expression.
    ``clip`` skips numpy's per-call bounds check, so ``prepare`` checks the
    index array against the extent once and raises ``FormatError``."""
    first = next((p[2] for p in parts if p[2]), None)
    if first is None or len(parts) < 2:
        return _chain([(op, code) for op, code, _ in parts])
    buf = g.hoist("buf", f"np.empty({first[1]}.shape)")
    cur = None
    for op, code, gather in parts:
        if gather and cur != buf:
            arr, idx, extent = gather
            g.hoist(
                None,
                f"if {idx}.size and not (0 <= {idx}.min() and {idx}.max() < {extent}): "
                f"raise FormatError('{idx} holds an index outside [0, {extent})')",
            )
            g.emit(f"np.take({arr}, {idx}, out={buf}, mode='clip')")
            code = buf
        if cur is None and op == "*":
            cur = code
        else:
            fn = "np.multiply" if op == "*" else "np.divide"
            g.emit(f"{fn}({cur or '1.0'}, {code}, out={buf})")
            cur = buf
    return cur


def _vector_shape_ok(unit: KernelUnit, formats: dict[str, Format]) -> bool:
    """Plan/expression shape the single-axis vectorizer can lower
    (operator-agnostic — the strategies split on the statement's op)."""
    plan, stmt = unit.plan, unit.stmt
    if plan.noop or not plan.steps:
        return False
    last = plan.steps[-1]
    if last.guards:
        return False
    if last.kind not in ("enumerate", "dense"):
        return False
    if last.kind == "enumerate":
        fmt = formats[last.term]
        if last.level_index != len(fmt.levels()) - 1:
            return False
        if fmt.inner_vector_view(last.term, "0") is None:
            return False
    mf = _multiplicative_factors(stmt.expr)
    if mf is None:
        return False
    if any(isinstance(f, BinOp) for _, f in mf[1]):
        return False  # composite denominator: leave scalar
    # every ref must only use outer vars or vars bound by the last step
    inner = set(last.binds)
    outer: set[str] = set()
    for s in plan.steps[:-1]:
        outer.update(s.binds)
    for ref in (stmt.target,) + stmt.expr.refs():
        for v in ref.indices:
            if v not in inner and v not in outer:
                return False
        # a ref reading the array being driven must BE the driver ref
        if ref.array == last.term and last.kind == "enumerate":
            term = plan.query.term_for(last.term)
            if ref.indices != term.indices:
                return False
    return True


def _vectorizable(unit: KernelUnit, formats: dict[str, Format]) -> bool:
    """The additive vectorizer: slice/gather lowering for '+' updates."""
    stmt = unit.stmt
    if stmt.reduce and stmt.op != "+":
        return False
    return _vector_shape_ok(unit, formats)


def _reduction_scatter_applies(unit: KernelUnit, formats: dict[str, Format]) -> bool:
    """Privatized-accumulation scatter for non-additive reductions
    ('*', 'min', 'max') — the ufunc.at family handles duplicate targets."""
    stmt = unit.stmt
    if not (stmt.reduce and stmt.op != "+"):
        return False
    if not _vector_shape_ok(unit, formats):
        return False
    inner = set(unit.plan.steps[-1].binds)
    if not any(v in inner for r in stmt.expr.refs() for v in r.indices):
        # nothing varies over the vector axis: the per-entry contribution
        # would be a broadcast scalar, which a combine like np.prod would
        # count once instead of once per iteration — leave it scalar
        return False
    return True


def _emit_vector_nest(
    g: Emitter, program: Program, unit: KernelUnit, formats: dict[str, Format]
) -> None:
    plan, stmt = unit.plan, unit.stmt
    last = plan.steps[-1]
    target = stmt.target
    out_name = f"{target.array}_vals"
    red_op = stmt.op if stmt.reduce else "+"
    sign, factors = _multiplicative_factors(stmt.expr)
    # Work that does not depend on the outer iteration moves in front of the
    # outer loops.  The view is probed with "\0" standing for the parent
    # position, so anything parent-dependent is recognizable.
    scatter_back = flat_prod = None
    if last.kind == "enumerate" and len(plan.steps) > 1:
        axes = plan.query.term_for(last.term).indices
        probe = formats[last.term].inner_vector_view(last.term, "\0")
        index = {v: probe["index"][a] for a, v in enumerate(axes) if a in probe["index"]}

        def flat(tpl: str) -> str | None:
            """The whole array a ``ARRAY[{s}:{e}]`` template slices by entry
            position (then ``part(s, e) == part(whole)[s:e]``), or None."""
            head = tpl.removesuffix("[{s}:{e}]")
            return None if head == tpl or "{" in head or "\0" in head else head

        def flat_part(op: str, f: Ref):
            """``_load_part`` triple of a vector factor that depends on the
            entry position alone, else None."""
            if f.array == last.term:
                head = flat(probe["vals"])
                return head and (op, head, None)
            kind, tpl = index[f.indices[0]] if len(f.indices) == 1 else (None, "")
            head = flat(tpl) if kind == "gather" else None
            return head and _load_part(op, formats[f.array], f.array, head)

        # (a) every vector factor is such a slice (jagged diagonals): form
        # the product over all entries once, slice it per outer iteration.
        # Scatter targets only — reductions keep their np.dot rounding.
        parts = [
            flat_part(op, f)
            for op, f in factors
            if isinstance(f, Ref) and set(f.indices) & set(index)
        ]
        if set(target.indices) & set(index) and all(parts):
            flat_prod = _emit_flat_product(g, parts)
        # (b) a 1-D target scattered through a "prefix" index (PERM[0:len]
        # on every jagged diagonal) pays one gather-scatter per outer
        # iteration.  Accumulate in permuted order instead: gather the
        # target once, update contiguous prefixes, scatter back once — the
        # same adds in the same order, so bitwise the per-iteration result.
        kind, perm = index.get(target.indices[0], (None, None))
        if (
            kind == "prefix"
            and len(target.indices) == 1
            and _plain_vals(formats[target.array])
            and all(r.array != target.array for r in stmt.expr.refs())
        ):
            acc = g.fresh("acc")
            g.emit(f"{acc} = {out_name}[{perm}]")
            scatter_back = f"{out_name}[{perm}] = {acc}"
            out_name = acc
    st = _emit_steps(g, program, plan, formats, plan.steps[:-1])

    s_var, e_var = g.fresh("s"), g.fresh("e")
    span_len = f"({e_var} - {s_var})"
    # var -> (kind, payload, unique): kind "affine"|"gather"; unique means
    # the index values never repeat within the slice (safe for fancy `+=`)
    vec_map: dict[str, tuple[str, str, bool]] = {}
    driver_vals: str | None = None
    if last.kind == "dense":
        spec = {l.var: l for l in program.loops}[last.var]
        g.emit(f"{s_var} = {spec.lo}")
        g.emit(f"{e_var} = {spec.hi}")
        vec_map[last.var] = ("affine", s_var, True)
    else:
        fmt = formats[last.term]
        term = plan.query.term_for(last.term)
        parent = st.parent_pos.get(last.term)
        view = fmt.inner_vector_view(last.term, parent)
        if view is None:
            raise CompileError("vectorizer: view vanished at emit time")
        lo, hi = view["slice"]
        g.emit(f"{s_var} = {lo}")
        g.emit(f"{e_var} = {hi}")
        avm = {a: v for a, v in enumerate(term.indices)}
        unique_axes = view.get("unique_axes", frozenset())
        for a, (kind, tpl) in view["index"].items():
            if a not in avm:
                continue
            if kind == "prefix":
                kind, tpl = "gather", f"{tpl}[:{span_len}]"
            elif kind == "gather":
                tpl = tpl.format(s=s_var, e=e_var)
            vec_map[avm[a]] = (kind, tpl, kind == "affine" or a in unique_axes)
        driver_vals = view["vals"].format(s=s_var, e=e_var)

    def index_parts(ref: Ref):
        """Per-axis numpy index code of ``ref`` under the vector map, plus
        (any axis gathered, fancy in-place update is duplicate-free)."""
        paired = sum(v in vec_map for v in ref.indices) > 1
        parts, gather, safe = [], False, False
        for v in ref.indices:
            kind, payload, unique = vec_map.get(v, ("scalar", v, False))
            if kind == "affine":
                safe = True
                if paired:
                    # two vectorized axes address *pairs*; slices would
                    # select the whole block (C[i,j] over a diagonal run)
                    payload = f"np.arange({payload}, {payload} + {span_len})"
                else:
                    payload = f"{payload}:{payload} + {span_len}"
            elif kind == "gather":
                gather, safe = True, safe or unique
            parts.append(payload)
        return parts, gather, safe

    def ref_expr(ref: Ref) -> tuple[str, bool]:
        """(code, is_vector) for a reference under the vector map."""
        if last.kind == "enumerate" and ref.array == last.term:
            return driver_vals, True
        fmt = formats[ref.array]
        if not any(v in vec_map for v in ref.indices):
            avm = {a: v for a, v in enumerate(ref.indices)}
            return fmt.emit_load(Emitter(), ref.array, avm, st.final_pos.get(ref.array)), False
        # a numpy indexing expression through the format's own hook
        return fmt.emit_load_vec(ref.array, index_parts(ref)[0]), True

    scalar_parts: list[tuple[str, str]] = []
    vector_parts: list[tuple[str, str]] = []
    for op, f in factors:
        if isinstance(f, Num):
            scalar_parts.append((op, repr(f.value)))
        elif isinstance(f, Scalar):
            scalar_parts.append((op, f.name))
        elif isinstance(f, BinOp):
            raise CompileError("vectorizer: nested denominator unsupported")
        else:
            code, is_vec = ref_expr(f)
            (vector_parts if is_vec else scalar_parts).append((op, code))
    if sign < 0:
        scalar_parts.insert(0, ("*", "-1.0"))

    contrib = f"{flat_prod}[{s_var}:{e_var}]" if flat_prod else _chain(vector_parts) or "1.0"
    tgt_idx = ", ".join(target.indices)
    combine = {"min": "np.minimum", "max": "np.maximum"}.get(red_op)

    def emit_update(sel: str, value: str) -> None:
        if combine:
            g.emit(f"{sel} = {combine}({sel}, {value})")
        else:
            g.emit(f"{sel} {red_op}= {value}")

    if not any(v in vec_map for v in target.indices) and red_op == "+":
        # full reduction over the vector axis into a scalar target slot
        mults = [c for op, c in vector_parts if op == "*"]
        if len(mults) == 2 and len(vector_parts) == 2:
            contrib = f"np.dot({mults[0]}, {mults[1]})"
        else:
            contrib = f"np.sum({contrib})"
        if scalar_parts:
            contrib = f"({_chain(scalar_parts)}) * {contrib}"
        g.emit(f"{out_name}[{tgt_idx}] += {contrib}")
    elif not any(v in vec_map for v in target.indices):
        # non-additive full reduction into a scalar slot: combine the
        # per-entry contribution vector, guarding the empty slice (min/max
        # of an empty slice is the identity — no entries, no combine)
        if scalar_parts:
            # scalars fold into every entry BEFORE the combine (they do
            # not factor out of a product or a min the way they scale a sum)
            contrib = f"({_chain(scalar_parts)}) * {contrib}"
        if red_op == "*":
            g.emit(f"{out_name}[{tgt_idx}] *= np.prod({contrib})")
        else:
            red_var = g.fresh("red")
            g.emit(f"{red_var} = np.asarray({contrib})")
            g.open(f"if {red_var}.size:")
            emit_update(f"{out_name}[{tgt_idx}]", f"{red_var}.{red_op}()")
            g.close()
    else:
        if scalar_parts:
            contrib = f"({_chain(scalar_parts)}) * {contrib}"
        # fancy `+=` loses updates on duplicate targets; it is safe iff at
        # least one vectorized target axis is duplicate-free in the slice
        # (affine axes always are), since then the index tuples are distinct
        idx_parts, gather, safe_inplace = index_parts(target)
        if scatter_back:  # the accumulator holds the target in prefix order
            idx_parts, gather = [f":{span_len}"], False
        if gather and not safe_inplace:
            # unbuffered ufunc scatter: duplicate target indices each get
            # their own combine (privatized accumulation)
            ufunc = combine or {"+": "np.add", "*": "np.multiply"}[red_op]
            idx = idx_parts[0] if len(idx_parts) == 1 else f"({', '.join(idx_parts)})"
            if len(idx_parts) > 1 or st.depth_opened:
                g.emit(f"{ufunc}.at({out_name}, {idx}, {contrib})")
            else:
                # one flat scatter (Coordinate): when prepare finds the
                # targets sorted in runs long enough for reduceat to beat
                # ufunc.at (measured break-even ~9 entries), reduce each run
                # and update its now duplicate-free target once
                tgt = idx.replace(s_var, lo).replace(e_var, hi)
                cut = g.hoist("cut", f"np.flatnonzero({tgt}[1:] != {tgt}[:-1]) + 1")
                starts = g.hoist(
                    "seg",
                    f"np.concatenate(([0], {cut})) if {tgt}.size >= 12 * ({cut}.size + 1)"
                    f" and ({tgt}[1:] >= {tgt}[:-1]).all() else None",
                )
                rows = g.hoist("rows", f"None if {starts} is None else {tgt}[{starts}]")
                val = g.fresh("v")
                g.emit(f"{val} = {contrib}")
                g.open(f"if {starts} is None:")
                g.emit(f"{ufunc}.at({out_name}, {idx}, {val})")
                g.close()
                g.open("else:")
                emit_update(f"{out_name}[{rows}]", f"{ufunc}.reduceat({val}, {starts})")
                g.close()
        else:
            emit_update(f"{out_name}[{', '.join(idx_parts)}]", contrib)
    g.close(st.depth_opened)
    if scatter_back:
        g.emit(scatter_back)


# ----------------------------------------------------------------------
# block-gemv strategy: collapse the driver's whole level walk into one
# batched dense matrix-vector product per block *shape* (i-nodes, clique
# blocks, dense windows)
# ----------------------------------------------------------------------
#: globals of every generated kernel source
RUNTIME = {"np": np, "FormatError": FormatError, "block_groups": block_groups}


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
    tfmt = formats[target.array]
    if target.indices != (row_var,) or not tfmt.writable or tfmt.ndim != 1:
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


# ----------------------------------------------------------------------
# segmented strategy: collapse a full two-level enumeration into
# one flat product + one segmented reduction (np.add.reduceat / 2-D sum)
# ----------------------------------------------------------------------
def _segmented_plan_shape(unit: KernelUnit, formats: dict[str, Format]):
    """If the plan is exactly 'driver outer level then driver inner level'
    over a format with a segmented view, return (view, outer_var,
    inner_vars); else None."""
    plan, stmt = unit.plan, unit.stmt
    if plan.noop or len(plan.steps) != 2:
        return None
    s0, s1 = plan.steps
    if not (
        s0.kind == "enumerate"
        and s1.kind == "enumerate"
        and s0.term == s1.term == plan.driver
        and s0.level_index == 0
        and s1.level_index == 1
        and not s0.guards
        and not s1.guards
        and len(s0.binds) == 1
    ):
        return None
    fmt = formats[s0.term]
    view = fmt.segmented_view(s0.term)
    if view is None:
        return None
    return view, s0.binds[0], set(s1.binds)


def _segmented_vectorizable(unit: KernelUnit, formats: dict[str, Format]) -> bool:
    if unit.stmt.reduce and unit.stmt.op != "+":
        return False  # np.add.reduceat / .sum are additive by nature
    shape = _segmented_plan_shape(unit, formats)
    if shape is None:
        return False
    view, outer_var, inner_vars = shape
    stmt = unit.stmt
    # reduction into a dense vector indexed by the outer variable
    target = stmt.target
    tfmt = formats[target.array]
    if target.indices != (outer_var,) or not tfmt.writable or tfmt.ndim != 1:
        return False
    mf = _multiplicative_factors(stmt.expr)
    if mf is None:
        return False
    driver = unit.plan.driver
    term = unit.plan.query.term_for(driver)
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
            # either per-segment constant (outer var) or gathered (inner)
            if not (idx == {outer_var} or idx <= inner_vars):
                return False
    return True


def _emit_segmented_nest(
    g: Emitter, program: Program, unit: KernelUnit, formats: dict[str, Format]
) -> None:
    view, outer_var, _inner = _segmented_plan_shape(unit, formats)
    stmt = unit.stmt
    driver = unit.plan.driver
    term = unit.plan.query.term_for(driver)
    avm = {a: v for a, v in enumerate(term.indices)}
    # index gather expressions keyed by inner loop var
    gather_of = {
        avm[a]: expr for a, expr in view["index"].items() if a in avm
    }
    sign, factors = _multiplicative_factors(stmt.expr)
    flat_parts = []  # per-entry factors (_load_part triples)
    outer_parts: list[tuple[str, str]] = []  # per-segment factors
    scalar_parts: list[tuple[str, str]] = []
    for op, f in factors:
        if isinstance(f, Num):
            scalar_parts.append((op, repr(f.value)))
        elif isinstance(f, Scalar):
            scalar_parts.append((op, f.name))
        elif f.array == driver:
            flat_parts.append((op, view["vals"], None))
        elif set(f.indices) == {outer_var}:
            outer_parts.append((op, f.array))
        else:
            flat_parts.append(
                _load_part(op, formats[f.array], f.array, gather_of[f.indices[0]])
            )
    if sign < 0:
        scalar_parts.insert(0, ("*", "-1.0"))

    prod = _emit_flat_product(g, flat_parts)
    if view["kind"] == "segments":
        # the non-empty rows and their segment starts are structure: found
        # once in prepare; a matrix without empty rows updates Y in place
        seg = view["segments"]
        ne = g.hoist("ne", f"np.flatnonzero(np.diff({seg}))")
        starts = g.hoist("seg", f"{seg}[{ne}]")
        rows = g.hoist("rows", f"slice(None) if {ne}.size + 1 == {seg}.size else {ne}")
        red = f"np.add.reduceat({prod}, {starts})"
    else:  # dense2d
        rows = ":"
        red = f"({prod}).sum(axis=1)"
    if outer_parts:
        pieces = _chain(
            [(op, formats[name].emit_load_vec(name, [rows])) for op, name in outer_parts]
        )
        red = f"({pieces}) * {red}"
    if scalar_parts:
        red = f"({_chain(scalar_parts)}) * {red}"
    g.emit(f"{stmt.target.array}_vals[{rows}] += {red}")


def _zero_fill(g: Emitter, target: Ref, formats: dict[str, Format]) -> None:
    fmt = formats[target.array]
    colons = ", ".join(":" for _ in range(fmt.ndim))
    g.emit(f"{target.array}_vals[{colons}] = 0.0")


#: backend name -> its lowering strategies ``(label, applies(unit,
#: formats), emit(g, program, unit, formats))``, probed in order of how
#: much of the nest each one collapses; ``applies`` is side-effect free
STRATEGIES = {
    "interpreted": (("scalar", lambda unit, formats: True, _emit_scalar_nest),),
    "vectorized": (
        ("segmented", _segmented_vectorizable, _emit_segmented_nest),
        ("block-gemv", _block_vectorizable, _emit_block_nest),
        ("vectorized", _vectorizable, _emit_vector_nest),
        ("reduce-scatter", _reduction_scatter_applies, _emit_vector_nest),
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
    accepts it; returns its label.  A unit none accepts is lowered through
    the scalar nest under a traced ``codegen.fallback`` span — graceful
    degradation, never an error."""
    for label, applies, emit in STRATEGIES[backend]:
        if applies(unit, formats):
            emit(g, program, unit, formats)
            return label
    with span(
        "codegen.fallback",
        backend=backend,
        driver=unit.plan.driver,
        steps=[repr(s) for s in unit.plan.steps],
        reason="no strategy of this backend lowers the plan",
    ):
        _emit_scalar_nest(g, program, unit, formats)
    _metrics.record("compiler.fallbacks", backend=backend)
    return "fallback:scalar"


def generate_source(
    program: Program,
    units: list[KernelUnit],
    formats: dict[str, Format],
    param_names: list[str],
    backend: str,
) -> tuple[str, tuple[str, ...]]:
    """Emit the kernel's two functions for the program's plan units.

    ``prepare(<structure>) -> aux`` computes everything that depends on
    structure alone — index sets, range checks, scratch buffers (whatever
    the strategies :meth:`~repro.formats.base.Emitter.hoist`); its
    parameters are ``param_names`` minus the formats' value arrays and the
    free scalars that are not loop bounds.  ``run(<param_names>, aux)``
    does the value-dependent work.  Every unit is lowered through the
    strategies :data:`STRATEGIES` lists for the ``backend`` name.  Returns
    the source plus the per-unit lowering labels (``"noop"``, a strategy
    label, or ``"fallback:scalar"``).
    """
    with span("compiler.codegen.generate", units=len(units), backend=backend) as sp:
        g = Emitter()
        # parameter names must never be reused as generated temporaries (a
        # storage array named like a fresh temp would be clobbered)
        g.reserve([*param_names, "aux"])
        g.depth = 1
        labels: list[str] = []
        for unit in units:
            if not unit.stmt.reduce:
                # plain assignment: zero-fill then guarded accumulate
                _zero_fill(g, unit.stmt.target, formats)
            if unit.plan.noop:
                labels.append("noop")
                continue
            labels.append(_lower_unit(g, program, unit, formats, backend))
        if not g.lines:
            g.emit("pass")
        values = {f"{n}_{k}" for n, f in formats.items() for k in f.value_keys}
        values |= program.scalar_names() - {l.hi for l in program.loops}
        names = [name for name, _ in g.hoisted if name]
        aux = ", ".join(names) + ("," if len(names) == 1 else "")
        head = [f"def prepare({', '.join(p for p in param_names if p not in values)}):"]
        head += [f"    {name} = {code}" if name else f"    {code}" for name, code in g.hoisted]
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
