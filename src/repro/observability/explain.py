"""``explain(plan)``: why the query optimizer chose what it chose.

The planner (``repro.compiler.scheduling``) records every candidate driver
it weighed on the winning :class:`~repro.compiler.scheduling.Plan`
(``plan.considered``).  This module renders that record — join order, the
join implementation selected for every relation, the sparsity predicate,
and the rejection reason for every alternative — as the paper's running
commentary around Eq. 4–6 does in prose.

``explain`` accepts a :class:`~repro.compiler.kernels.CompiledKernel`
(every statement's plan), a single plan, or mini-language source plus
formats (compiled on the spot)::

    >>> k = compile_kernel(SPMV_SRC, {"A": crs, "X": xv, "Y": yv})
    >>> print(explain(k))
"""

from __future__ import annotations

from repro.errors import ObservabilityError

__all__ = ["explain"]


def explain(obj, formats=None, verbose: bool = True) -> str:
    """Render the access-plan rationale of a kernel, unit, or plan.

    Parameters
    ----------
    obj:
        A :class:`CompiledKernel`, a :class:`KernelUnit`, a :class:`Plan`,
        an :class:`~repro.compiler.autoplan.AutoPlan` (format-selection
        rationale: structure profile + ranked candidate costs), a
        :class:`~repro.compiler.specialize.Candidate` (its region
        decomposition), or mini-language source text (requires
        ``formats``).
    formats:
        Array-name → :class:`Format` mapping, only needed when ``obj`` is
        source text.
    verbose:
        Include the rejected-alternatives section.
    """
    from repro.compiler.autoplan import AutoPlan
    from repro.compiler.kernels import CompiledKernel, compile_kernel
    from repro.compiler.codegen import KernelUnit
    from repro.compiler.scheduling import Plan
    from repro.compiler.specialize import Candidate

    if isinstance(obj, (AutoPlan, Candidate)):
        return obj.describe()
    if isinstance(obj, str):
        if formats is None:
            raise ObservabilityError(
                "explain(source) needs formats={name: Format} to compile against"
            )
        obj = compile_kernel(obj, formats)
    if isinstance(obj, CompiledKernel):
        fmt_names = {n: cls.__name__ for n, cls in obj.format_classes.items()}
        parts = []
        for k, unit in enumerate(obj.units):
            parts.append(
                _explain_unit(unit, fmt_names, verbose, header=f"statement [{k}]")
            )
        text = "\n\n".join(parts)
        text += "\n\n" + _prepare_narration(obj)
        text += "\nrun: " + (
            "; ".join(f"[{k}] {u}" for k, u in enumerate(obj.native.units))
            if obj.native else "decided at the first bind()"
        )
        text += "\n\n" + _certificate_narration(obj)
        if verbose:
            findings = _kernel_diagnostics(obj)
            if findings:
                text += "\n\n" + findings
        return text
    if isinstance(obj, KernelUnit):
        return _explain_unit(obj, {}, verbose, header="statement")
    if isinstance(obj, Plan):
        return _explain_plan(obj, {}, verbose)
    raise ObservabilityError(
        f"cannot explain a {type(obj).__name__}; pass a CompiledKernel, "
        "KernelUnit, Plan, or source text with formats"
    )


def _prepare_narration(kernel) -> str:
    """What the generated ``prepare`` derives from structure, once per
    ``bind()``, for ``run`` to reuse on every call."""
    body = kernel.source.split("\n\n\ndef run(")[0].splitlines()[1:-1]
    if not body:
        return "prepare: nothing to hoist — run() is the whole kernel"
    return "\n".join(["prepare (once per bind(); run() gets these through aux):", *body])


def _certificate_narration(kernel) -> str:
    """Narrate the parallelism certificate the dependence analyzer
    attached at compile time."""
    cert = kernel.certificate
    lines = [
        f"parallelism: {cert.verdict.label()} "
        f"(certificate {cert.fingerprint}, v{cert.version})"
    ]
    for lv in cert.loops:
        lines.append(f"  loop {lv.var}: {lv.verdict.label()}")
        for ev in lv.evidence:
            lines.append(f"    {ev.kind}: {ev.detail}")
    return "\n".join(lines)


def _kernel_diagnostics(kernel) -> str:
    """Analyzer findings (warnings and errors only) for a compiled kernel,
    or the empty string when the linter has nothing to say."""
    from repro.analysis.lint import lint_kernel

    report = lint_kernel(kernel)
    notable = report.errors() + report.warnings()
    if not notable:
        return ""
    lines = ["analyzer findings:"]
    lines.extend(f"  {d.render()}" for d in notable)
    return "\n".join(lines)


def _explain_unit(unit, fmt_names: dict, verbose: bool, header: str) -> str:
    lines = [f"{header}: {unit.stmt!r}"]
    lines.append(_explain_plan(unit.plan, fmt_names, verbose))
    return "\n".join(lines)


def _explain_plan(plan, fmt_names: dict, verbose: bool) -> str:
    lines: list[str] = []
    q = plan.query
    lines.append(f"  query: {q!r}")
    lines.append(f"  sparsity predicate: {q.predicate!r}")
    if plan.noop:
        lines.append("  plan: noop — the predicate is FALSE, nothing executes")
        return "\n".join(lines)

    drv = plan.driver or "none (pure dense iteration)"
    if plan.driver and plan.driver in fmt_names:
        drv += f" ({fmt_names[plan.driver]})"
    lines.append(f"  driver: {drv}")

    order = " -> ".join(_step_order_label(s) for s in plan.steps)
    lines.append(f"  join order: {order}")

    lines.append("  join method per term:")
    step_methods = _methods_by_term(plan)
    for acc in plan.accesses:
        name = acc.term.array
        fmt = f" [{fmt_names[name]}]" if name in fmt_names else ""
        detail = step_methods.get(name)
        lines.append(
            f"    {acc.term!r}{fmt}: {_mode_label(acc.mode)}"
            + (f" — {detail}" if detail else "")
        )
    lines.append(f"  estimated cost: {plan.cost:g}")

    if verbose and plan.considered:
        lines.append("  alternatives considered:")
        for name, cost, verdict in plan.considered:
            cand = name if name is not None else "dense iteration"
            cost_txt = f"cost {cost:g}" if cost is not None else "no cost"
            lines.append(f"    driver={cand}: {verdict} ({cost_txt})")
    return "\n".join(lines)


def _step_order_label(step) -> str:
    if step.kind == "dense":
        return f"dense loop {step.var}"
    binds = ",".join(step.binds) or "∅"
    if step.kind == "enumerate":
        return f"{step.term}.L{step.level_index}→{binds}"
    if step.kind == "merge":
        return f"merge {step.term}.L{step.level_index} on {step.key}"
    return f"search {step.term}.L{step.level_index}"


def _methods_by_term(plan) -> dict[str, str]:
    """Per-array one-line description of how its levels are accessed."""
    out: dict[str, list[str]] = {}
    for s in plan.steps:
        if s.term is None:
            continue
        if s.kind == "enumerate":
            binds = ",".join(s.binds) or "internal index"
            txt = f"enumerate level {s.level_index} (binds {binds})"
            if s.guards:
                txt += f", filtered on {','.join(s.guards)}"
        elif s.kind == "merge":
            txt = (
                f"two-pointer merge on {s.key} riding the sorted loop of "
                f"step {s.anchor}"
            )
        else:
            txt = f"search level {s.level_index} from bound indices"
        out.setdefault(s.term, []).append(txt)
    return {k: "; ".join(v) for k, v in out.items()}


def _mode_label(mode: str) -> str:
    return {
        "driver": "driver (its level hierarchy fixes the loop structure)",
        "chained": "secondary enumeration (chained driver)",
        "searched": "searched once indices are bound",
        "dense": "dense O(1) loads, no join steps",
        "output": "output — dense accumulate in place",
    }.get(mode, mode)
