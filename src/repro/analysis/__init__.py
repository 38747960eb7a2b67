"""Static analysis & verification for the Bernoulli pipeline.

Four analyzers over the artifacts the compiler and runtime otherwise take
on faith, each reporting :class:`~repro.analysis.diagnostics.Diagnostic`
findings with stable ``BER0xx`` codes:

* :mod:`repro.analysis.depend` — is the loop nest really DOANY
  (:func:`check_program`, the ``doany`` sweep), and *how* parallel is it?
  Classification into the lattice
  ``DOALL ⊏ DOANY ⊏ REDUCTION(op) ⊏ SEQUENTIAL`` with per-verdict
  evidence, checkable certificates, and a mutation self-check.
* :mod:`repro.analysis.contracts` — do formats deliver the access-method
  properties their levels declare?
* :mod:`repro.analysis.lint` — are the chosen plans and the emitted
  kernels structurally sane?
* :mod:`repro.analysis.schedule` — are the SPMD communication schedules
  deadlock-free before any rank executes?

:mod:`repro.analysis.structure` profiles a matrix into the quantities the
auto-planner prices; it registers no pass (``--structure FILE`` prints a
profile and the planner's pick as one BER050 line).

``python -m repro.analysis`` runs them from the command line; the
dependence classifier also gates every :func:`~repro.compiler.compile_kernel`
request, and the schedule checker re-verifies
fault-recovery rebuilds inside the runtime.
"""

from repro.analysis.diagnostics import (
    ERROR,
    INFO,
    SEVERITIES,
    WARN,
    Diagnostic,
    DiagnosticReport,
)
from repro.analysis.registry import AnalysisPass, all_passes, get_pass, register_pass

# importing the pass modules registers their sweep runners
from repro.analysis import (  # noqa: E402,F401
    contracts,
    depend,
    lint,
    schedule,
)
from repro.analysis.contracts import audit_format, audit_registered_formats
from repro.analysis.depend import (
    ParallelismCertificate,
    check_certificate,
    check_program,
    check_source,
    classify_program,
    classify_source,
    run_depend_selfcheck,
)
from repro.analysis.lint import lint_generated_source, lint_kernel, lint_plan
from repro.analysis.schedule import (
    check_gather_schedules,
    check_spmv_strategies,
    trace_collectives,
    verify_rebuilt_schedule,
)
from repro.analysis.structure import StructureProfile, analyze_structure

__all__ = [
    "ERROR",
    "WARN",
    "INFO",
    "SEVERITIES",
    "Diagnostic",
    "DiagnosticReport",
    "AnalysisPass",
    "register_pass",
    "get_pass",
    "all_passes",
    "check_program",
    "check_source",
    "ParallelismCertificate",
    "classify_program",
    "classify_source",
    "check_certificate",
    "run_depend_selfcheck",
    "audit_format",
    "audit_registered_formats",
    "lint_plan",
    "lint_kernel",
    "lint_generated_source",
    "check_gather_schedules",
    "check_spmv_strategies",
    "trace_collectives",
    "verify_rebuilt_schedule",
    "StructureProfile",
    "analyze_structure",
]
