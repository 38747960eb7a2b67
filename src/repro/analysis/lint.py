"""Plan & generated-code linter.

Two halves, one report:

* **plan lint** — walk a :class:`~repro.compiler.scheduling.Plan`'s steps
  and flag join shapes that execute correctly but defeat the paper's cost
  story: a guarded enumerate×enumerate join (filtering a full enumeration
  against already-bound indices) where the level declared itself
  searchable, and executor backends that fell back to scalar lowering;
* **generated-code lint** — ``ast``-parse the emitted kernel source and
  check structural hygiene the ``exec`` boundary cannot: every name loaded
  is a parameter, a bound local, or a known builtin; subscript writes land
  only in declared output arrays; no statement rebinds a storage
  parameter.

Codes:

=======  ============================================================
BER030   warn — guarded enumerate×enumerate join (filter guard on an
         already-bound index; worse when the level was searchable)
BER031   warn — executor backend fell back to scalar lowering
BER032   error — generated code reads a name that is never bound
BER033   error — generated code writes an array outside the declared
         kernel outputs
BER034   error — generated code rebinds a storage parameter
BER035   error — the ``prepare``/``run`` split leaks: ``prepare`` touches
         a value array, or ``run`` recomputes something that depends on
         structure alone
=======  ============================================================
"""

from __future__ import annotations

import ast

from repro.analysis.diagnostics import ERROR, WARN, Diagnostic, DiagnosticReport
from repro.analysis.registry import register_pass
from repro.compiler.codegen import RUNTIME

__all__ = [
    "lint_plan",
    "lint_generated_source",
    "lint_kernel",
    "lint_shipped_kernels",
]

_PASS = "lint"

#: names the generated code may read without binding them itself: the
#: builtins it uses and the namespace its source is exec'd in
_ALLOWED_GLOBALS = frozenset(
    {"range", "len", "min", "max", "abs", "int", "float", "enumerate", "slice"}
) | frozenset(RUNTIME)


def _diag(code, severity, message, location):
    return Diagnostic(code, severity, message, pass_name=_PASS, location=location)


# ----------------------------------------------------------------------
# plan lint
# ----------------------------------------------------------------------
def lint_plan(plan, formats=None, where: str = "plan") -> DiagnosticReport:
    """Flag plan shapes that are legal but costly.

    ``formats`` (name → Format instance) refines the message: with it the
    linter can say whether a search join was actually available at the
    guarded level."""
    report = DiagnosticReport()
    if plan.noop:
        return report
    for k, step in enumerate(plan.steps):
        if step.kind != "enumerate" or not step.guards:
            continue
        level = None
        if formats is not None and step.term in formats:
            level = formats[step.term].levels()[step.level_index]
        if level is None:
            hint = "a filtered full enumeration runs in the join's inner loop"
        elif level.searchable:
            hint = (
                "the level is searchable — a join order that binds all of "
                "its axes first could search instead of filtering"
            )
        else:
            hint = (
                "the level is not searchable, so the filter is forced; "
                "consider a format whose level can be searched on "
                f"{list(step.guards)}"
            )
        report.add(
            _diag(
                "BER030",
                WARN,
                f"enumerate×enumerate join: step {step!r} enumerates "
                f"{step.term!r} and filters on already-bound "
                f"{list(step.guards)}; {hint}",
                f"{where}, step {k}",
            )
        )
    return report


# ----------------------------------------------------------------------
# generated-code lint
# ----------------------------------------------------------------------
def lint_generated_source(
    source: str, param_names, output_arrays, where: str = "generated source"
) -> DiagnosticReport:
    """``ast``-level hygiene checks on an emitted kernel function.

    ``output_arrays`` are the array names the program's statements write;
    any subscript store into a parameter outside their storage prefixes
    is an error (the kernel would silently corrupt an input operand).
    """
    report = DiagnosticReport()
    params = set(param_names)
    try:
        tree = ast.parse(source)
    except SyntaxError as e:
        report.add(
            _diag(
                "BER032",
                ERROR,
                f"generated source does not parse: {e.msg}",
                f"{where} line {e.lineno}",
            )
        )
        return report

    bound: set[str] = set(params)
    loads: list[ast.Name] = []

    class Visitor(ast.NodeVisitor):
        def visit_FunctionDef(self, node):
            bound.add(node.name)
            bound.update(a.arg for a in node.args.args)
            self.generic_visit(node)

        def visit_Name(self, node):
            if isinstance(node.ctx, ast.Load):
                loads.append(node)
            else:
                bound.add(node.id)
                if node.id in params and isinstance(node.ctx, ast.Store):
                    report.add(
                        _diag(
                            "BER034",
                            ERROR,
                            f"statement rebinds storage parameter {node.id!r} "
                            "— later loads read the shadowing value, not the "
                            "bound storage",
                            f"{where} line {node.lineno}",
                        )
                    )

    Visitor().visit(tree)
    for node in loads:
        if node.id not in bound and node.id not in _ALLOWED_GLOBALS:
            report.add(
                _diag(
                    "BER032",
                    ERROR,
                    f"name {node.id!r} is read but never bound (not a "
                    "parameter, local, or allowed global) — the kernel "
                    "would raise NameError at run time",
                    f"{where} line {node.lineno}",
                )
            )

    ok_prefixes = tuple(f"{a}_" for a in output_arrays)
    for node in ast.walk(tree):
        target = None
        if isinstance(node, ast.Assign):
            targets = node.targets
        elif isinstance(node, (ast.AugAssign,)):
            targets = [node.target]
        else:
            continue
        for target in targets:
            if not isinstance(target, ast.Subscript):
                continue
            base = target.value
            while isinstance(base, ast.Subscript):
                base = base.value
            if not isinstance(base, ast.Name) or base.id not in params:
                continue  # writes into generated locals are fine
            if not base.id.startswith(ok_prefixes):
                report.add(
                    _diag(
                        "BER033",
                        ERROR,
                        f"subscript write into {base.id!r}, which is not "
                        f"storage of a declared output "
                        f"({sorted(output_arrays)}) — an input operand "
                        "would be mutated",
                        f"{where} line {node.lineno}",
                    )
                )
    report.extend(_lint_split(tree, where))
    return report


def _lint_split(tree: ast.Module, where: str) -> DiagnosticReport:
    """BER035: the inspector/executor contract of a ``prepare`` + ``run``
    source.  Structure is exactly what ``prepare`` takes; the values are
    the remaining parameters of ``run``."""
    report = DiagnosticReport()
    fns = {n.name: n for n in tree.body if isinstance(n, ast.FunctionDef)}
    if not {"prepare", "run"} <= set(fns):
        return report
    structure = {a.arg for a in fns["prepare"].args.args}
    values = {a.arg for a in fns["run"].args.args} - structure - {"aux"}

    def leak(message, node):
        report.add(_diag("BER035", ERROR, message, f"{where} line {node.lineno}"))

    for node in ast.walk(fns["prepare"]):
        # (a write into a structure array is already BER033: not an output)
        if isinstance(node, ast.Name) and node.id in values:
            leak(
                f"prepare touches {node.id!r}, a value that may change "
                "between bound calls — aux would go stale", node,
            )
    for node in ast.walk(fns["run"]):
        if not isinstance(node, ast.Call) or ast.unparse(node.func) == "range":
            continue
        names = {
            n.id
            for arg in [*node.args, *(k.value for k in node.keywords)]
            for n in ast.walk(arg)
            if isinstance(n, ast.Name)
        }
        if names and names <= structure:
            leak(
                f"run recomputes {ast.unparse(node)!r} on every call although "
                "it depends on structure alone — hoist it into prepare", node,
            )
    return report


# ----------------------------------------------------------------------
# whole-kernel entry point
# ----------------------------------------------------------------------
def lint_kernel(
    kernel, formats=None, where: str = "kernel", into: DiagnosticReport | None = None
) -> DiagnosticReport:
    """Lint a :class:`~repro.compiler.kernels.CompiledKernel`: every
    unit's plan, the backend lowering labels, and the emitted source.

    Pass ``formats`` (the instances the kernel was compiled against) to
    get level-aware plan messages; without it plan lint still runs but
    cannot say whether a search was available.

    ``into`` accumulates findings into an existing report instead of a
    fresh one.  Either way the result is deduplicated: linting the same
    kernel object twice (a warm :class:`~repro.compiler.plan_cache.PlanCache`
    serves one kernel to every identical compile) reports each finding
    once, not once per compile."""
    report = into if into is not None else DiagnosticReport()
    for k, unit in enumerate(kernel.units):
        report.extend(
            lint_plan(unit.plan, formats, where=f"{where}, unit [{k}]")
        )
    for k, label in enumerate(kernel.unit_backends):
        if label.startswith("fallback"):
            report.add(
                _diag(
                    "BER031",
                    WARN,
                    f"backend {kernel.backend!r} lowered unit [{k}] via "
                    f"{label!r} — the vectorized strategy did not apply",
                    f"{where}, unit [{k}]",
                )
            )
    outputs = {u.stmt.target.array for u in kernel.units}
    report.extend(
        lint_generated_source(
            kernel.source,
            kernel.param_names,
            outputs,
            where=f"{where} source",
        )
    )
    return report.dedupe()


# ----------------------------------------------------------------------
# sweep: shipped kernels on representative formats
# ----------------------------------------------------------------------
@register_pass("lint", "plan & generated-code lint over shipped kernels")
def lint_shipped_kernels() -> DiagnosticReport:
    import numpy as np

    from repro.compiler import compile_kernel
    from repro.formats.coo import COOMatrix
    from repro.formats.crs import CRSMatrix
    from repro.formats.dense import DenseMatrix, DenseVector
    from repro.kernels.spmm import SPMM_SRC
    from repro.kernels.spmv import SPMV_SRC, SPMV_T_SRC
    from repro.kernels.vecops import AXPY_SRC, DOT_SRC, SCALE_SRC

    rng = np.random.default_rng(7)
    d = (rng.random((5, 5)) < 0.5) * rng.integers(1, 5, (5, 5)).astype(float)
    A = CRSMatrix.from_coo(COOMatrix.from_dense(d))
    x = DenseVector(np.ones(5))
    y = DenseVector(np.zeros(5))
    B = DenseMatrix.zeros(5, 4)
    C = DenseMatrix.zeros(5, 4)
    s = DenseVector.zeros(1)

    cases = [
        ("spmv", SPMV_SRC, {"A": A, "X": x, "Y": y}),
        ("spmv_t", SPMV_T_SRC, {"A": A, "X": x, "Y": y}),
        ("spmm", SPMM_SRC, {"A": A, "B": B, "C": C}),
        ("axpy", AXPY_SRC, {"X": x, "Y": y}),
        ("dot", DOT_SRC, {"X": x, "Y": y, "S": s}),
        ("scale", SCALE_SRC, {"X": x, "Y": y}),
    ]
    report = DiagnosticReport()
    for name, src, formats in cases:
        kern = compile_kernel(src, formats, cache=False)
        report.extend(lint_kernel(kern, formats, where=f"kernel {name}"))
    return report
