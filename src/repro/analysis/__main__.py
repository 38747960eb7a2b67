"""Command-line front end: ``python -m repro.analysis``.

Examples::

    # everything: registered sweep passes (doany, contracts, lint,
    # schedule, depend)
    python -m repro.analysis --all

    # sparsity-structure profile + auto-format recommendation for a file
    python -m repro.analysis --structure matrix.mtx

    # audit every registered format's access-method contracts
    python -m repro.analysis --all-formats

    # dependence-check + lint the kernels under a directory (*.loop files)
    python -m repro.analysis --kernels examples/

    # classify kernels into the parallelism lattice (DOALL / DOANY /
    # REDUCTION(op) / SEQUENTIAL) with per-loop evidence; --json carries
    # the full ParallelismCertificate payload per file
    python -m repro.analysis --depend examples/kernels --json certs.json

    # machine-readable report for CI artifacts; exit 1 on any error
    python -m repro.analysis --all --json diagnostics.json

Kernel files are mini-language loop nests.  The CLI compiles each one
against probe formats chosen by convention — assignment targets get
writable dense storage, other matrices a CRS probe, vectors dense — so
the plan and the generated code can be linted without the caller wiring
up storage.

A kernel file may declare ``# depend: sequential`` in a comment: the file
documents a deliberately loop-carried nest (a teaching example or a
negative test).  ``--kernels`` then *requires* the dependence checker to
find the carried dependence — reporting it as info, not error — and skips
the compile/lint step (the gate would rightly refuse); a stale directive
on an actually-parallel kernel is itself an error.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

import numpy as np

from repro.analysis import all_passes
from repro.analysis.diagnostics import ERROR, INFO, Diagnostic, DiagnosticReport
from repro.analysis.depend import check_program
from repro.analysis.lint import lint_kernel
from repro.errors import ReproError

#: extent given to every symbolic loop bound when probing CLI kernels
_PROBE_EXTENT = 6


def _probe_formats(program):
    """Choose probe storage for every array by convention."""
    from repro.formats.coo import COOMatrix
    from repro.formats.crs import CRSMatrix
    from repro.formats.dense import DenseMatrix, DenseVector

    extents = {}
    for spec in (l for nest in program.nests for l in nest.loops):
        extents[spec.var] = (
            int(spec.hi) if spec.hi.lstrip("-").isdigit() else _PROBE_EXTENT
        )
    stmts = [stmt for nest in program.nests for stmt in nest.body]
    targets = {stmt.target.array for stmt in stmts}
    arity: dict[str, int] = {}
    refs = [r for stmt in stmts for r in (stmt.target, *stmt.expr.refs()) if r.indices]
    shapes: dict[str, tuple[int, ...]] = {}
    for ref in refs:
        arity[ref.array] = len(ref.indices)
        shapes[ref.array] = tuple(
            extents.get(v, _PROBE_EXTENT) for v in ref.indices
        )
    rng = np.random.default_rng(0)
    formats = {}
    for name, nd in arity.items():
        shape = shapes[name]
        if nd == 1:
            formats[name] = DenseVector(np.zeros(shape[0]))
        elif name in targets:
            formats[name] = DenseMatrix.zeros(*shape)
        else:
            d = (rng.random(shape) < 0.5) * rng.integers(1, 5, shape).astype(float)
            formats[name] = CRSMatrix.from_coo(COOMatrix.from_dense(d))
    return formats


def _declared_sequential(source: str) -> bool:
    """True when the file carries a ``# depend: sequential`` directive."""
    for line in source.splitlines():
        stripped = line.strip()
        if stripped.startswith("#") and "depend:" in stripped:
            return "sequential" in stripped.split("depend:", 1)[1]
    return False


def _check_kernel_file(path: Path) -> DiagnosticReport:
    from repro.compiler import compile_kernel
    from repro.compiler.parser import parse
    from repro.errors import CompileError, ParseError

    source = path.read_text()
    report = DiagnosticReport()
    try:
        program = parse(source)
    except ParseError as e:
        report.add(
            Diagnostic(
                "BER001",
                ERROR,
                f"kernel does not parse: {e}",
                pass_name="cli",
                location=str(path),
            )
        )
        return report
    findings = check_program(program, source=source)
    if _declared_sequential(source):
        if findings.ok:
            report.add(
                Diagnostic(
                    "BER062",
                    ERROR,
                    "kernel declares '# depend: sequential' but the "
                    "dependence checker found no carried dependence — "
                    "stale directive (drop it, or restore the dependence)",
                    pass_name="cli",
                    location=str(path),
                )
            )
        else:
            report.add(
                Diagnostic(
                    "BER060",
                    "info",
                    "kernel is declared sequential and the dependence "
                    "checker confirms a carried dependence "
                    f"({len(findings.errors())} finding(s)); compile/lint "
                    "skipped",
                    pass_name="cli",
                    location=str(path),
                )
            )
        return report
    report.extend(findings)
    if not findings.ok:  # the compile gate refuses it; the findings say why
        return report
    try:
        formats = _probe_formats(program)
        kern = compile_kernel(program, formats, cache=False)
    except (CompileError, ReproError) as e:
        report.add(
            Diagnostic(
                "BER001",
                ERROR,
                f"kernel does not compile against probe formats: {e}",
                pass_name="cli",
                location=str(path),
            )
        )
        return report
    report.extend(lint_kernel(kern, formats, where=str(path)))
    return report


def _depend_kernel_file(path: Path, certificates: dict) -> DiagnosticReport:
    """Classify one kernel file into the parallelism lattice."""
    from repro.analysis.depend import classify_source
    from repro.errors import ParseError

    source = path.read_text()
    report = DiagnosticReport()
    try:
        cls = classify_source(source, gate=False)
    except ParseError as e:
        report.add(
            Diagnostic(
                "BER001",
                ERROR,
                f"kernel does not parse: {e}",
                pass_name="cli",
                location=str(path),
            )
        )
        return report
    certificates[str(path)] = cls.certificate.to_dict()
    per_loop = ", ".join(
        f"{lv.var}: {lv.verdict.label()}" for lv in cls.loops
    )
    print(f"{path}: {cls.verdict.label()}  [{per_loop}]")
    report.extend(cls.report)
    return report


def _analyze_structure_file(path: Path) -> DiagnosticReport:
    """Structure-analyze one MatrixMarket file: one BER050 info line with
    the priced quantities and the auto-planner's pick."""
    from repro.analysis.structure import analyze_structure
    from repro.compiler.autoplan import autoplan
    from repro.errors import FormatError
    from repro.matrices.mmio import read_matrix_market

    report = DiagnosticReport()
    try:
        coo = read_matrix_market(str(path))
    except (OSError, FormatError, ReproError) as e:
        report.add(
            Diagnostic(
                "BER001",
                ERROR,
                f"cannot read MatrixMarket file: {e}",
                pass_name="structure",
                location=str(path),
            )
        )
        return report
    p = analyze_structure(coo)
    plan = autoplan(coo, profile=p)
    msg = (
        f"nnz={p.nnz} row_max={p.row_max} ell_stored={p.ell_stored} "
        f"ndiags={p.ndiags} diag_stored={p.diag_stored} nblocks={p.nblocks} "
        f"block_stored={p.block_stored} ninodes={p.ninodes} "
        f"fingerprint={p.fingerprint()} -> {plan.format_name}"
    )
    report.add(Diagnostic("BER050", INFO, msg, pass_name="structure", location=str(path)))
    return report


def _discover_kernels(paths) -> list[Path]:
    found: list[Path] = []
    for raw in paths:
        p = Path(raw)
        if p.is_dir():
            found.extend(sorted(p.rglob("*.loop")))
        else:
            found.append(p)
    return found


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(
        prog="python -m repro.analysis",
        description="Bernoulli static analysis & verification",
    )
    ap.add_argument(
        "--all", action="store_true", help="run every registered sweep pass"
    )
    ap.add_argument(
        "--passes",
        default=None,
        help="comma-separated pass names (see --list)",
    )
    ap.add_argument(
        "--all-formats",
        action="store_true",
        help="audit every registered format's access-method contracts",
    )
    ap.add_argument(
        "--kernels",
        nargs="+",
        default=None,
        metavar="PATH",
        help="dependence-check + lint *.loop kernel files (dirs recurse)",
    )
    ap.add_argument(
        "--depend",
        nargs="+",
        default=None,
        metavar="PATH",
        help="classify *.loop kernel files into the parallelism lattice "
        "(DOALL / DOANY / REDUCTION(op) / SEQUENTIAL) with per-loop "
        "evidence; --json carries each file's certificate payload",
    )
    ap.add_argument(
        "--structure",
        nargs="+",
        default=None,
        metavar="MTX",
        help="analyze the sparsity structure of MatrixMarket file(s): "
        "emit the priced profile and the auto-planner's format choice "
        "(BER050)",
    )
    ap.add_argument(
        "--list", action="store_true", help="list registered passes and exit"
    )
    ap.add_argument(
        "--json",
        default=None,
        metavar="FILE",
        help="also write the full report as JSON ('-' for stdout)",
    )
    ap.add_argument(
        "--min-severity",
        choices=["error", "warn", "info"],
        default="warn",
        help="lowest severity to print (default: warn)",
    )
    args = ap.parse_args(argv)

    passes = all_passes()
    if args.list:
        for p in passes.values():
            print(f"{p.name:12s} {p.description}")
        return 0

    report = DiagnosticReport()
    ran = False
    # validate every explicitly named pass BEFORE running anything, and
    # merge with --all instead of ignoring one of the two: an unknown
    # name must be a hard usage error, never a silent skip
    named = (
        [s.strip() for s in args.passes.split(",") if s.strip()]
        if args.passes
        else []
    )
    for name in named:
        if name not in passes:
            ap.error(f"unknown pass {name!r}; known: {sorted(passes)}")
    selected = list(passes) if args.all else []
    selected.extend(n for n in named if n not in selected)
    if args.all_formats and "contracts" not in selected:
        selected.append("contracts")
    executed: list[str] = []
    for name in selected:
        report.extend(passes[name].run())
        executed.append(name)
        ran = True
    certificates: dict[str, dict] = {}
    if args.kernels:
        files = _discover_kernels(args.kernels)
        if not files:
            ap.error(f"no kernel files found under {args.kernels}")
        for path in files:
            report.extend(_check_kernel_file(path))
        executed.append("kernels")
        ran = True
    if args.depend:
        files = _discover_kernels(args.depend)
        if not files:
            ap.error(f"no kernel files found under {args.depend}")
        for path in files:
            report.extend(_depend_kernel_file(path, certificates))
        executed.append("depend-files")
        ran = True
    if args.structure:
        for path in args.structure:
            report.extend(_analyze_structure_file(Path(path)))
        executed.append("structure-files")
        ran = True
    if not ran:
        ap.error(
            "nothing to do: pass --all, --passes, --all-formats, "
            "--kernels or --structure"
        )

    rendered = report.render(args.min_severity)
    if rendered != "no diagnostics":
        print(rendered)
    print(report.summary())
    if args.json:
        payload = report.to_json(
            passes=executed,
            extra={"certificates": certificates} if certificates else None,
        )
        if args.json == "-":
            print(payload)
        else:
            Path(args.json).write_text(payload + "\n")
    return 1 if report.errors() else 0


if __name__ == "__main__":
    sys.exit(main())
