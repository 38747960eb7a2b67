"""Exception hierarchy for the repro library.

Every error raised by the library derives from :class:`ReproError` so that
callers can catch library failures without catching unrelated bugs.  The
subclasses mirror the major subsystems: storage formats, the compiler (its
query IR included), distributions, the SPMD runtime, observability and the
service.
"""

from __future__ import annotations

__all__ = [
    "ReproError",
    "FormatError",
    "CompileError",
    "ParseError",
    "VerificationError",
    "PlanningError",
    "SparsityError",
    "DistributionError",
    "RuntimeMachineError",
    "InspectorError",
    "CommFailureError",
    "PhaseNotFoundError",
    "ObservabilityError",
    "ServiceError",
]


class ReproError(Exception):
    """Base class for all errors raised by the repro library."""


class FormatError(ReproError):
    """A sparse storage format was constructed or accessed inconsistently."""


class CompileError(ReproError):
    """The compiler could not translate a program."""


class ParseError(CompileError):
    """The mini-language source text is malformed.

    Carries an optional :class:`~repro.sourceloc.SourceSpan` plus the
    source text it points into; when both are present ``str(err)`` renders
    the same caret snippet the analysis diagnostics use, so parser errors
    and analyzer findings share one location format.
    """

    def __init__(self, message: str, span=None, source: str | None = None):
        super().__init__(message)
        self.message = message
        self.span = span
        self.source = source

    def __str__(self) -> str:
        if self.span is not None and self.source is not None:
            from repro.sourceloc import caret_snippet

            return f"{self.message} at {caret_snippet(self.source, self.span)}"
        return self.message


class VerificationError(CompileError):
    """A verification pass found error-severity diagnostics.

    Raised by ``compile_kernel(verify="error")`` when the DOANY dependence
    checker rejects the program.  ``diagnostics`` holds the offending
    :class:`~repro.analysis.diagnostics.Diagnostic` objects.
    """

    def __init__(self, message: str, diagnostics=()):
        super().__init__(message)
        self.diagnostics = tuple(diagnostics)


class PlanningError(CompileError):
    """No legal join order / access plan exists for the query."""


class SparsityError(CompileError):
    """Sparsity-predicate derivation failed for an expression."""


class DistributionError(ReproError):
    """A distribution relation is inconsistent (not 1-1 and onto)."""


class RuntimeMachineError(ReproError):
    """Misuse of the simulated SPMD machine.

    An SPMD violation caught mid-run names the ``superstep`` it was
    detected at; a send to a rank that does not exist also names that
    ``bad_rank`` (None for every other violation).
    """

    def __init__(self, message: str, superstep: int | None = None, bad_rank: int | None = None):
        super().__init__(message)
        self.superstep = superstep
        self.bad_rank = bad_rank


class InspectorError(ReproError):
    """Inspector could not build a valid communication schedule."""


class CommFailureError(RuntimeMachineError):
    """The hardened delivery protocol gave up on a communication.

    Raised when a message exhausts its retry budget under fault injection,
    or when schedule re-inspection cannot restore a corrupted schedule.
    The executors' contract is: converge to the exact fault-free result
    within the retry budget, or raise this — never silently return wrong
    data.  Carries enough context to replay the failure: the fault plan
    (``plan``) plus the failing edge (``src``, ``dst``, ``seq``,
    ``attempts``) when the failure is a single message.
    """

    def __init__(self, message: str, plan=None, src=-1, dst=-1, seq=-1, attempts=0):
        super().__init__(message)
        self.plan = plan
        self.src = src
        self.dst = dst
        self.seq = seq
        self.attempts = attempts


class PhaseNotFoundError(RuntimeMachineError, KeyError):
    """A named phase marker does not exist in the run's statistics.

    Subclasses :class:`KeyError` so ``stats.phase("nope")`` reads like a
    failed dict lookup, and :class:`RuntimeMachineError` so blanket library
    handlers still catch it.
    """

    def __str__(self) -> str:  # KeyError repr-quotes its argument
        return Exception.__str__(self)


class ObservabilityError(ReproError):
    """Tracing / metrics / explain misuse (bad trace file, wrong target)."""


class ServiceError(ReproError):
    """Compile-and-solve service misuse (bad request kind, stopped service)."""
