"""The compile path: a short list of passes behind one front door.

``compile_kernel(src, formats)`` is the paper's pipeline — dense DOANY
loops → relations → query plan → code — run as plain functions over one
:class:`CompileRequest` whose slots they fill:

    every request   front_end → gate
    with a cache    key → single-flight lookup
    on a miss       plan → lower    (one print, nothing exec-ed)
    on a hit        recheck

and returns a :class:`CompiledKernel` that can be invoked repeatedly with
*any* data stored in the same formats:

    >>> k = compile_kernel("for i in 0:n { for j in 0:n { Y[i] += A[i,j] * X[j] } }",
    ...                    formats={"A": a_crs, "X": x_dense, "Y": y_dense})
    >>> k(A=a_crs, X=x_dense, Y=y_dense)     # y += A @ x, in place

The gate refuses a nest that is not DOANY-safe.  Compilation is cached
in a :class:`~repro.compiler.plan_cache.PlanCache` keyed on (loop nest,
format specs, sparsity predicates, backend, planner options):
rebinding new data of the same structure costs only a dict merge, and the
cache's hit/miss counters land in ``repro.observability.metrics``.
:func:`compile_request` is the same path with the cache passed in — the
service calls it with its own.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from typing import Mapping

import numpy as np

from repro.compiler import codegen, native
from repro.compiler.ast_nodes import BinOp, Expr, Neg, Program, Scalar, normalize_program, scalar_reads
from repro.compiler.codegen import KernelUnit, get_backend
from repro.compiler.parser import parse
from repro.compiler.plan_cache import PlanCache, kernel_cache_key
from repro.compiler.query_extract import extract_query
from repro.compiler.scheduling import plan_query
from repro.compiler.sparsity import split_statement
from repro.errors import CompileError, FormatError, VerificationError
from repro.fingerprint import fingerprint
from repro.formats.base import Format
from repro.observability import metrics as _metrics
from repro.observability import trace as _trace

__all__ = [
    "CompiledKernel",
    "KernelCounters",
    "KERNEL_CACHE",
    "compile_kernel",
    "clear_kernel_cache",
    "kernel_cache_stats",
]


@dataclass(frozen=True)
class KernelCounters:
    """Work counters for one kernel invocation (Table-1 methodology).

    ``flops`` counts one floating-point operation per arithmetic operator
    per driven entry plus one for the accumulate — for CRS SpMV that is
    the classic ``2·nnz``.  ``nnz_touched`` sums the stored entries of
    every sparse operand; ``rows_visited`` sums the output rows written.
    """

    flops: float = 0.0
    nnz_touched: int = 0
    rows_visited: int = 0

    def mflops(self, seconds: float) -> float:
        """MFlop/s at these counters over ``seconds`` of wall time."""
        return self.flops / seconds / 1e6 if seconds > 0 else float("nan")

    def __add__(self, other: "KernelCounters") -> "KernelCounters":
        return KernelCounters(
            self.flops + other.flops,
            self.nnz_touched + other.nnz_touched,
            self.rows_visited + other.rows_visited,
        )


def _count_flop_ops(expr: Expr) -> int:
    """Arithmetic operators in an expression tree (negation included)."""
    if isinstance(expr, BinOp):
        return 1 + _count_flop_ops(expr.left) + _count_flop_ops(expr.right)
    if isinstance(expr, Neg):
        return 1 + _count_flop_ops(expr.operand)
    return 0

#: process-global plan/kernel cache (see :mod:`repro.compiler.plan_cache`)
KERNEL_CACHE = PlanCache("compiler")


@dataclass
class _BoundVar:
    """Resolution rule for one loop variable's upper bound."""

    var: str
    hi_symbol: str  # numeral or scalar name
    anchors: list[tuple[str, int]]  # (array, axis) whose extent must equal hi


class CompiledKernel:
    """A compiled sparse kernel, bound per call to concrete storage.

    The record of what the passes produced: the program, its plan units
    and the binding rules derived here; :func:`lower` adds the emitted
    ``source`` and its ``unit_backends`` labels, and the first bind that
    runs it all as Python defines :attr:`python_pair`."""

    def __init__(
        self,
        program: Program,
        units: list[KernelUnit],
        formats: Mapping[str, Format],
        backend: str,
        certificate,
        text: str | None = None,
    ):
        self.program = program
        #: the text ``program`` was parsed from (None: built directly)
        self.text = text
        self.units = units
        #: :class:`~repro.analysis.depend.ParallelismCertificate` of the
        #: request that compiled this kernel; re-validated on every
        #: plan-cache hit
        self.certificate = certificate
        self.format_classes = {name: type(f) for name, f in formats.items()}
        self.format_specs = {name: f.spec() for name, f in formats.items()}
        #: name of the executor backend this kernel was lowered with
        self.backend = backend
        self.scalar_names = sorted(program.scalar_names())
        #: the call-time scalars, in the order of the slot array a bound
        #: call owns (``bind(...).scalars``)
        self.slots = codegen.scalar_slots(program)
        self._bound_vars = self._bound_var_rules(formats)
        # per-unit flops per driven entry: operators in the expression plus
        # one for the accumulate into the target
        self._ops_per_entry = [
            _count_flop_ops(u.stmt.expr) + 1 for u in units
        ]
        #: counters of the most recent ``__call__`` (None until metrics or
        #: tracing is enabled — counting is skipped on the bare fast path)
        self.last_counters: KernelCounters | None = None
        storage_keys: list[str] = []
        for name, fmt in sorted(formats.items()):
            keys = sorted(fmt.storage(name).keys())
            for k in keys:
                if k in storage_keys:
                    raise CompileError(f"storage key collision on {k!r}")
            storage_keys.extend(keys)
        self.param_names = storage_keys + [
            s for s in self.scalar_names if s not in storage_keys and s not in self.slots
        ] + [codegen.SLOTS] * bool(self.slots)
        #: :class:`~repro.compiler.native.NativeState` of the latest bind()
        #: (None before the first): native C, or Python and why
        self.native = None
        self._native_memo: dict = {}  # operand signature -> per-unit tiers
        self.source: str
        #: per-unit lowering labels (strategy name or "noop")
        self.unit_backends: tuple[str, ...]

    # ------------------------------------------------------------------
    def _bound_var_rules(self, formats: Mapping[str, Format]) -> list[_BoundVar]:
        rules = []
        for k, nest in enumerate(self.program.nests):
            for spec in nest.loops:
                if spec.lo != "0":
                    raise CompileError(
                        f"loop over {spec.var!r} must start at 0 (got {spec.lo!r}); "
                        "sparse enumeration covers the full index range"
                    )
                anchors = [
                    (term.array, axis)
                    for unit in self.units
                    if unit.nest == k
                    for term in unit.plan.query.terms
                    for axis, v in enumerate(term.indices)
                    if v == spec.var
                ]
                rules.append(_BoundVar(spec.var, spec.hi, anchors))
        return rules

    @functools.cached_property
    def python_pair(self) -> tuple:
        """``(prepare, run, prepare's parameter names)`` that ``source`` defines,
        at first use (the C tier never needs it; racing binds may define it twice)."""
        return codegen.define(self.source)

    @functools.cached_property
    def _outputs(self) -> tuple[int, ...]:
        """Positions in ``param_names`` of the arrays the kernel writes
        (the slot array when it reduces a scalar)."""
        targets = {u.stmt.target.array for u in self.units} - set(self.slots)
        written = {f"{t}_{k}" for t in targets for k in self.format_classes[t].value_keys}
        if self.program.scalar_targets():
            written.add(codegen.SLOTS)
        return tuple(i for i, p in enumerate(self.param_names) if p in written)

    def describe_plans(self) -> str:
        """Plan summaries for every compiled statement."""
        out = []
        for k, unit in enumerate(self.units):
            out.append(f"[{k}] {unit.stmt!r}\n{unit.plan.describe()}")
        return "\n\n".join(out)

    # ------------------------------------------------------------------
    def counters(self, **bindings) -> KernelCounters:
        """Estimated work counters for one invocation on these bindings.

        Accepts the same array bindings as :meth:`__call__` (scalars are
        ignored).  The estimate drives MFlop/s reporting: driven entries
        are the driver's stored nonzeros (or the dense iteration product),
        each costing the statement's operator count plus the accumulate.
        """
        arrays = {
            n: v for n, v in bindings.items() if isinstance(v, Format)
        }
        return self._counters_for(arrays)

    def _counters_for(self, arrays: Mapping[str, Format]) -> KernelCounters:
        extents: dict[str, int] = {}
        for rule in self._bound_vars:
            if rule.hi_symbol.isdigit():
                extents[rule.var] = int(rule.hi_symbol)
            elif rule.anchors and rule.anchors[0][0] in arrays:
                arr, axis = rule.anchors[0]
                extents[rule.var] = int(arrays[arr].shape[axis])
        total = KernelCounters()
        for unit, ops in zip(self.units, self._ops_per_entry):
            plan = unit.plan
            if plan.noop:
                continue
            if plan.driver is not None and plan.driver in arrays:
                entries = int(arrays[plan.driver].nnz)
            else:
                entries = 1
                for iv in plan.query.index_vars:
                    entries *= extents.get(iv.name, 1)
            # dense loops below a sparse driver multiply the entry count
            if plan.driver is not None:
                for step in plan.steps:
                    if step.kind == "dense":
                        entries *= extents.get(step.var, 1)
            nnz = sum(
                int(arrays[t.array].nnz)
                for t in plan.query.terms
                if t.array in arrays
                and not arrays[t.array].structurally_dense
            )
            target = unit.stmt.target.array
            rows = (
                int(arrays[target].shape[0]) if target in arrays else 0
            )
            total = total + KernelCounters(float(ops * entries), nnz, rows)
        return total

    # ------------------------------------------------------------------
    def bind(self, **bindings):
        """Pre-bind storage and scalars; returns a zero-argument callable.

        All validation, storage-dict construction, bound resolution and the
        generated ``prepare`` happen once; the returned closure only invokes
        the generated ``run`` — as C (:mod:`repro.compiler.native`), whose
        check twin range-checks every index here, or as Python, after each
        format's :meth:`~repro.formats.base.Format.validate`.  Either way a
        bad index is a :class:`~repro.errors.FormatError` at ``bind()``.
        Use this in loops that run the same kernel on the same containers.

        Contract: between calls the containers' *values* may change in
        place, their *structure* (index arrays, extents) may not — rebind
        after changing it, or after replacing an array.  The callable owns
        its scratch and its ``scalars``, the float64 slot array of the
        call-time scalars (in :attr:`slots` order): write an input there
        before a call, read a reduced scalar after it.  So it is not
        re-entrant across threads; the kernel
        itself is, since every ``bind()`` prepares its own ``aux`` (which
        holds indices and scratch only, never matrix values)."""
        return self._bind(bindings)[0]

    def _bind(self, bindings):
        """``(bound, work)``: the bound callable, which records the work
        counters per call when metrics are on, and the memoized function
        that derives them (the one place they are computed)."""
        ns = self._build_namespace(bindings)
        args = tuple(ns[k] for k in self.param_names)
        for i in self._outputs:
            if not args[i].flags.writeable:
                raise FormatError(f"output array {self.param_names[i]} is read-only")
        arrays = {n: v for n, v in bindings.items() if isinstance(v, Format)}
        with _trace.span("kernel.prepare", backend=self.backend):
            # per run of units, the C run (its check twin runs here) or the
            # generated Python run over what its prepare derives
            steps = native.tier_up(self, arrays, args) or [self.python_pair]
            if not all(map(callable, steps)):  # a Python run indexes unchecked
                for fmt in arrays.values():
                    fmt.validate()
            calls = [
                s if callable(s) else functools.partial(s[1], *args, s[0](*[ns[k] for k in s[2]]))
                for s in steps
            ]
        _metrics.record("compiler.kernels.prepares")
        counters = None

        def work() -> KernelCounters:
            nonlocal counters
            if counters is None:
                counters = self._counters_for(arrays)
            return counters

        def bound() -> None:
            for run in calls:  # unit order
                run()
            if _metrics.metrics_enabled():
                c = work()
                _metrics.record("kernel.calls")
                _metrics.record("kernel.flops", c.flops)
                _metrics.record("kernel.nnz_touched", c.nnz_touched)
                _metrics.record("kernel.rows_visited", c.rows_visited)

        bound.scalars = ns[codegen.SLOTS]
        return bound, work

    def __call__(self, **bindings) -> dict[str, float]:
        """Run the kernel: ``run(..., prepare(...))`` through :meth:`bind`.
        Pass each array as a Format instance of the compiled class, plus
        any free scalars.  Outputs mutate in place; returns the call-time
        scalars by name, the reduced ones as this call left them."""
        bound, work = self._bind(bindings)
        if not (_metrics.metrics_enabled() or _trace.tracing_enabled()):
            bound()
            return dict(zip(self.slots, bound.scalars.tolist()))
        # slow path: run under a span carrying the work counters
        c = self.last_counters = work()
        with _trace.span(
            "kernel.call",
            flops=c.flops,
            nnz_touched=c.nnz_touched,
            rows_visited=c.rows_visited,
            arrays={n: cls.__name__ for n, cls in self.format_classes.items()},
        ):
            bound()
        return dict(zip(self.slots, bound.scalars.tolist()))

    def _build_namespace(self, bindings) -> dict:
        ns: dict[str, object] = {}
        scalars: dict[str, float] = {}
        arrays: dict[str, Format] = {}
        for name, value in bindings.items():
            if isinstance(value, Format):
                arrays[name] = value
            else:
                scalars[name] = value
        missing = set(self.format_classes) - set(arrays)
        if missing:
            raise CompileError(f"missing array bindings: {sorted(missing)}")
        for name, fmt in arrays.items():
            want = self.format_classes.get(name)
            if want is None:
                raise CompileError(f"unexpected array binding {name!r}")
            if type(fmt) is not want:
                raise CompileError(
                    f"array {name!r} was compiled for {want.__name__}, "
                    f"got {type(fmt).__name__}"
                )
            spec = fmt.spec()
            if spec != self.format_specs[name]:
                raise CompileError(
                    f"array {name!r} was compiled for format spec "
                    f"{self.format_specs[name]!r}, got {spec!r} (composite "
                    "formats must match structurally, not just by class)"
                )
            ns.update(fmt.storage(name))
        # resolve loop bounds
        for rule in self._bound_vars:
            if rule.hi_symbol.isdigit():
                hi = int(rule.hi_symbol)
            elif rule.hi_symbol in scalars:
                hi = int(scalars[rule.hi_symbol])
            elif rule.anchors:
                hi = int(arrays[rule.anchors[0][0]].shape[rule.anchors[0][1]])
                scalars[rule.hi_symbol] = hi
            else:
                raise CompileError(
                    f"cannot resolve loop bound {rule.hi_symbol!r}; pass it "
                    "as a keyword"
                )
            for arr, axis in rule.anchors:
                got = int(arrays[arr].shape[axis])
                if got != hi:
                    raise CompileError(
                        f"extent mismatch on loop var {rule.var!r}: bound is "
                        f"{hi} but {arr} axis {axis} has extent {got}"
                    )
        for s in self.scalar_names:
            if s not in scalars:
                read = (r for nest in self.program.nests for st in nest.body for r in scalar_reads(st.expr))
                where = next((r.span for r in read if r.name == s), None)
                raise CompileError(f"missing scalar binding {s!r}", span=where, source=self.text)
            ns[s] = scalars[s]
        ns[codegen.SLOTS] = np.array([scalars.get(s, 0.0) for s in self.slots], dtype=np.float64)
        return ns


@dataclass(slots=True)
class CompileRequest:
    """One compile request: the arguments of :func:`compile_kernel`
    (validated on construction), then the slots the passes fill."""

    source: str | Program
    formats: Mapping[str, Format]
    backend: str | None = None
    force_driver: str | None = None
    allow_merge: bool = True
    extra_key: tuple = ()
    program: Program | None = None  # front_end: normalized
    certificate: object = None  # gate
    key: tuple | None = None  # key
    units: list[KernelUnit] | None = None  # plan
    kernel: CompiledKernel | None = None  # lower, or the cache
    outcome: str = "compiled"  # or the cache's "hit" / "coalesced"

    def __post_init__(self):
        self.backend = get_backend(self.backend)

    @property
    def key_fingerprint(self) -> str:
        """Short stable token of the structural key (for logs/spans)."""
        return fingerprint(repr(self.key), 12)


def front_end(req: CompileRequest) -> None:
    """Text or ``Program`` → normalized program, every array with a format."""
    src = req.source
    # parser output is already normalized
    req.program = parse(src) if isinstance(src, str) else normalize_program(src)
    for name in req.program.arrays():
        if name not in req.formats:
            raise CompileError(f"no format given for array {name!r}")
        if not isinstance(req.formats[name], Format):
            raise CompileError(
                f"array {name!r} must be bound to a Format, "
                f"got {type(req.formats[name]).__name__}"
            )


def gate(req: CompileRequest) -> None:
    """The one dependence gate: classify the nest (memoized, pure tuple
    algebra), keep the certificate, refuse a SEQUENTIAL witness."""
    from repro.analysis.depend import classify_program

    text = req.source if isinstance(req.source, str) else None
    cls = classify_program(req.program, source=text, gate=True)
    req.certificate = cls.certificate
    if not cls.report.ok:
        raise VerificationError(
            f"loop nest is {cls.verdict.label()} — not DOANY-safe:\n"
            + cls.report.render("error"),
            diagnostics=tuple(cls.report.errors()),
        )


def key(req: CompileRequest) -> None:
    """Everything the generated code depends on, and nothing else."""
    req.key = kernel_cache_key(
        req.program, req.formats, req.backend,
        req.force_driver, req.allow_merge, req.extra_key,
    )


def plan(req: CompileRequest) -> None:
    """Statements → conjunctive pieces → relational queries → join plans."""
    program, formats = req.program, req.formats
    sparse = {
        name for name in program.arrays() if not formats[name].structurally_dense
    }
    req.units = []
    reduced: set[str] = set()
    for k, nest in enumerate(program.nests):
        loop_vars = {l.var for l in nest.loops}
        for stmt in nest.body:
            for piece in split_statement(stmt):
                if not piece.reduce:
                    free = loop_vars - set(piece.target.indices)
                    if free:
                        raise CompileError(
                            f"plain assignment {piece!r} has free loop vars "
                            f"{sorted(free)}; write the reduction with '+='"
                        )
                query = extract_query(nest, piece, sparse)
                best = plan_query(
                    query, dict(formats),
                    force_driver=req.force_driver, allow_merge=req.allow_merge,
                )
                # a scalar's first unit starts it at zero
                first = isinstance(piece.target, Scalar) and piece.target.name not in reduced
                reduced.add(piece.target.array)
                req.units.append(KernelUnit(piece, best, k, not piece.reduce or first))


def lower(req: CompileRequest) -> None:
    """Plan units → Python source, printed once (``exec``-ed only by a Python bind)."""
    text = req.source if isinstance(req.source, str) else None
    kern = CompiledKernel(
        req.program, req.units, req.formats, req.backend, req.certificate, text
    )
    kern.source, kern.unit_backends = codegen.generate_source(
        req.program, req.units, dict(req.formats), kern.param_names,
        backend=req.backend,
    )
    req.kernel = kern


def recheck(req: CompileRequest) -> None:
    """Never trust a cached plan's parallelism claim.  A stored
    certificate equal to the one just derived for *this* request's
    program is validated by that derivation; any other one goes through
    the full independent re-check."""
    kern = req.kernel
    if kern.certificate == req.certificate:
        return
    from repro.analysis.depend import check_certificate

    chk = check_certificate(req.program, kern.certificate)
    if not chk.ok:
        raise VerificationError(
            "cached plan's parallelism certificate failed "
            "validation:\n" + chk.render("error"),
            diagnostics=tuple(chk.errors()),
        )


#: what every request runs, and what a miss (or ``cache=None``) runs to
#: build the kernel; ``key`` and ``recheck`` bracket the cache lookup
REQUEST_PASSES = (front_end, gate)
MISS_PASSES = (plan, lower)


def compile_request(req: CompileRequest, cache: PlanCache | None) -> CompileRequest:
    """The compiler's one front door: run the pass list against ``cache``
    (``None``: always build, touch no cache) and return the filled request.

    :func:`compile_kernel` calls it with the process cache and the service
    with its own.  Single-flight makes concurrent requests for one key
    compile exactly once; a pass that raises leaves nothing cached.
    """

    def build() -> CompiledKernel:
        _metrics.record("compiler.compilations")
        for run_pass in MISS_PASSES:
            run_pass(req)
        kern = req.kernel
        sp.set(
            units=len(kern.units),
            drivers=[u.plan.driver for u in kern.units],
            lowerings=list(kern.unit_backends),
            source_chars=len(kern.source),
        )
        return kern

    with _trace.span(
        "compiler.compile_kernel",
        backend=req.backend,
        force_driver=req.force_driver,
        formats={n: type(f).__name__ for n, f in req.formats.items()},
    ) as sp:
        for run_pass in REQUEST_PASSES:
            run_pass(req)
        if cache is None:
            build()
        else:
            key(req)
            req.kernel, req.outcome = cache.get_or_compile(
                req.key, build, backend=req.backend
            )
            if req.outcome != "compiled":
                recheck(req)
        sp.set(cache_hit=req.outcome != "compiled", cache_outcome=req.outcome)
    return req


def compile_kernel(
    source: str | Program,
    formats: Mapping[str, Format],
    force_driver: str | None = None,
    allow_merge: bool = True,
    cache: bool = True,
    backend: str | None = None,
    extra_key: tuple = (),
) -> CompiledKernel:
    """Compile a dense DOANY loop nest against concrete storage formats.

    Every request, cache hits included, classifies the nest into the
    parallelism lattice DOALL ⊏ DOANY ⊏ REDUCTION(op) ⊏ SEQUENTIAL
    (:mod:`repro.analysis.depend`); a SEQUENTIAL witness raises
    :class:`~repro.errors.VerificationError`.  The kernel keeps the
    :class:`~repro.analysis.depend.ParallelismCertificate`, and a hit
    re-validates it (:func:`recheck`).

    Parameters
    ----------
    source:
        Mini-language text or an already-parsed :class:`Program`.
    formats:
        Example instance per array name; the kernel accepts any instances
        of the same format spec at call time.
    backend:
        Executor backend name — ``"vectorized"`` (default) or
        ``"interpreted"``; any other name raises
        :class:`~repro.errors.CompileError`.
    force_driver:
        Pin the planner's primary driver (ablation hook).
    cache:
        ``False`` builds a fresh kernel and touches no cache.
    extra_key:
        Extra cache-key components (hashable tuple).  Used by the
        auto-planner to join the structure-profile fingerprint to the
        key so equal-shape matrices with different structure never share
        an auto-planned kernel.
    """
    req = CompileRequest(
        source, formats, backend, force_driver, allow_merge, extra_key
    )
    return compile_request(req, KERNEL_CACHE if cache else None).kernel


def clear_kernel_cache() -> None:
    """Drop all cached kernels and cache statistics (test isolation hook)."""
    KERNEL_CACHE.clear()


def kernel_cache_stats() -> dict[str, int]:
    """Hit/miss/size statistics of the process-global kernel cache."""
    return KERNEL_CACHE.stats()
