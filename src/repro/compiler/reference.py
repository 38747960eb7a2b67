"""Interpreted reference executor: the semantic oracle for compiled kernels.

Runs a :class:`Program` naively over *dense* numpy views of the data —
every iteration of every loop, no sparsity exploitation.  Compiled kernels
must produce bit-identical structure (and numerically-close values, since
summation order may differ) to this executor.

Reduction semantics
-------------------
``+``-reductions accumulate over every iteration; skipping an iteration
whose contribution is zero changes nothing, so dense and guarded-sparse
execution agree.  The non-additive combine operators (``*``, ``min``,
``max``) have no such absorbing identity: multiplying by a stored zero or
taking ``min`` against an *implicit* zero is observable.  Compiled
kernels follow the paper's guarded-execution model — they combine over
the **stored entries** of the sparse operands only (the GraphBLAS monoid
convention).  To make the reference match, pass ``sparse={"A", ...}``:
iterations where any listed array reads exactly ``0.0`` are then skipped
for non-``+`` reductions.  With the default ``sparse=()`` the reference
runs fully dense (every iteration combines), which is the right oracle
for structurally dense data.
"""

from __future__ import annotations

import itertools

import numpy as np

from repro.compiler.ast_nodes import (
    Assign,
    BinOp,
    Expr,
    MinMax,
    Neg,
    Num,
    Program,
    Ref,
    Scalar,
)
from repro.errors import CompileError

__all__ = ["run_reference"]


def _eval(expr: Expr, env: dict[str, int], arrays: dict[str, np.ndarray], scalars: dict[str, float]) -> float:
    if isinstance(expr, Num):
        return expr.value
    if isinstance(expr, Scalar):
        return float(scalars[expr.name])
    if isinstance(expr, Ref):
        idx = tuple(env[v] for v in expr.indices)
        return float(arrays[expr.array][idx])
    if isinstance(expr, Neg):
        return -_eval(expr.operand, env, arrays, scalars)
    if isinstance(expr, MinMax):
        l = _eval(expr.left, env, arrays, scalars)
        r = _eval(expr.right, env, arrays, scalars)
        return min(l, r) if expr.fn == "min" else max(l, r)
    if isinstance(expr, BinOp):
        l = _eval(expr.left, env, arrays, scalars)
        r = _eval(expr.right, env, arrays, scalars)
        if expr.op == "+":
            return l + r
        if expr.op == "-":
            return l - r
        if expr.op == "*":
            return l * r
        return l / r
    raise CompileError(f"cannot evaluate {expr!r}")


def _combine(op: str, old: float, val: float) -> float:
    if op == "+":
        return old + val
    if op == "*":
        return old * val
    if op == "min":
        return min(old, val)
    return max(old, val)


def run_reference(
    program: Program,
    arrays: dict[str, np.ndarray],
    scalars: dict[str, float] | None = None,
    sparse: frozenset[str] | set[str] | tuple = (),
) -> dict[str, np.ndarray]:
    """Execute the program densely; returns the (mutated) arrays dict.

    ``arrays`` maps array names to dense numpy arrays (copies are made, so
    inputs are untouched); ``scalars`` supplies free scalar values and any
    symbolic loop bounds not inferable from array extents.  ``sparse``
    names arrays treated as guarded sparse operands: for non-``+``
    reductions, iterations where a listed array reads ``0.0`` are skipped
    (see the module docstring).
    """
    if program.then:
        raise CompileError("the reference executor runs a program of one nest")
    scalars = dict(scalars or {})
    sparse = frozenset(sparse)
    arrays = {k: np.array(v, dtype=np.float64) for k, v in arrays.items()}

    # resolve loop bounds from scalars or array extents
    extents: dict[str, int] = {}
    for spec in program.loops:
        if spec.hi.isdigit():
            extents[spec.var] = int(spec.hi)
        elif spec.hi in scalars:
            extents[spec.var] = int(scalars[spec.hi])
        else:
            found = None
            for stmt in program.body:
                for ref in (stmt.target,) + stmt.expr.refs():
                    for axis, v in enumerate(ref.indices):
                        if v == spec.var:
                            found = arrays[ref.array].shape[axis]
            if found is None:
                raise CompileError(f"cannot resolve bound {spec.hi!r}")
            extents[spec.var] = int(found)
        if spec.lo != "0":
            raise CompileError("reference executor requires 0-based loops")

    ranges = [range(extents[l.var]) for l in program.loops]
    names = [l.var for l in program.loops]
    for stmt in program.body:
        if not stmt.reduce:
            arrays[stmt.target.array][...] = 0.0
        guarded = (
            [r for r in stmt.expr.refs() if r.array in sparse]
            if stmt.reduce and stmt.op != "+"
            else []
        )
        for point in itertools.product(*ranges):
            env = dict(zip(names, point))
            if any(
                arrays[r.array][tuple(env[v] for v in r.indices)] == 0.0
                for r in guarded
            ):
                continue
            idx = tuple(env[v] for v in stmt.target.indices)
            val = _eval(stmt.expr, env, arrays, scalars)
            if stmt.reduce:
                arrays[stmt.target.array][idx] = _combine(
                    stmt.op, float(arrays[stmt.target.array][idx]), val
                )
            else:
                arrays[stmt.target.array][idx] += val  # zero-filled above
    return arrays
