"""Diagnostic objects shared by every verification pass.

Each finding is a :class:`Diagnostic` with a *stable* code (``BER0xx``) —
tests and CI gate on codes, never on message text — a severity, and a
location: a human-readable ``location`` string always, plus a
:class:`~repro.sourceloc.SourceSpan` + source text when the finding
points at mini-language source (the caret snippet then matches
:class:`~repro.errors.ParseError` rendering exactly).

Code allocation (see DESIGN.md §9 for the full table):

=========  ==========================================================
BER001     CLI input failure (parse/compile of a kernel file)
BER010-014 binary DOANY view (:func:`repro.analysis.depend.check_program`)
BER020-028 format-contract auditor (:mod:`repro.analysis.contracts`)
BER030-035 plan & generated-code linter (:mod:`repro.analysis.lint`)
BER040-045 SPMD schedule checker (:mod:`repro.analysis.schedule`)
BER050     structure profile + auto-planner pick (``--structure``)
BER060-069 dependence & reduction analyzer (:mod:`repro.analysis.depend`)
=========  ==========================================================
"""

from __future__ import annotations

import json
import re
from dataclasses import dataclass, field

from repro.sourceloc import SourceSpan, caret_snippet

__all__ = [
    "ERROR",
    "WARN",
    "INFO",
    "SEVERITIES",
    "Diagnostic",
    "DiagnosticReport",
]

ERROR = "error"
WARN = "warn"
INFO = "info"
SEVERITIES = (ERROR, WARN, INFO)

_CODE_RE = re.compile(r"^BER\d{3}$")


@dataclass(frozen=True)
class Diagnostic:
    """One finding of one verification pass."""

    code: str  # stable "BER0xx" identifier
    severity: str  # error | warn | info
    message: str
    #: which pass produced it: "doany" | "contracts" | "lint" | "schedule"
    pass_name: str = ""
    #: human-readable location — "statement [0]", "format CRS, level 1",
    #: "plan step 2", "rank 1, collective 3", ...
    location: str = ""
    #: source span + text when the finding points at mini-language source
    span: SourceSpan | None = field(default=None, compare=False)
    source: str | None = field(default=None, compare=False, repr=False)

    def __post_init__(self):
        if not _CODE_RE.match(self.code):
            raise ValueError(f"diagnostic code {self.code!r} is not BERnnn")
        if self.severity not in SEVERITIES:
            raise ValueError(f"unknown severity {self.severity!r}")

    def render(self) -> str:
        """``code severity [location]: message`` plus a caret snippet when
        the diagnostic carries a source span."""
        loc = f" [{self.location}]" if self.location else ""
        head = f"{self.code} {self.severity}{loc}: {self.message}"
        if self.span is not None and self.source is not None:
            return f"{head}\n  at {caret_snippet(self.source, self.span, indent='      ')}"
        return head

    def to_dict(self) -> dict:
        d = {
            "code": self.code,
            "severity": self.severity,
            "message": self.message,
            "pass": self.pass_name,
            "location": self.location,
        }
        if self.span is not None:
            d["span"] = [self.span.start, self.span.end]
        return d


class DiagnosticReport:
    """An ordered collection of diagnostics with severity accessors."""

    def __init__(self, diagnostics=()):
        self.diagnostics: list[Diagnostic] = list(diagnostics)

    # ------------------------------------------------------------------
    def add(self, diag: Diagnostic) -> None:
        self.diagnostics.append(diag)

    def extend(self, diags) -> "DiagnosticReport":
        """Append diagnostics (or another report); returns self."""
        if isinstance(diags, DiagnosticReport):
            diags = diags.diagnostics
        self.diagnostics.extend(diags)
        return self

    # ------------------------------------------------------------------
    def errors(self) -> list[Diagnostic]:
        return [d for d in self.diagnostics if d.severity == ERROR]

    def warnings(self) -> list[Diagnostic]:
        return [d for d in self.diagnostics if d.severity == WARN]

    def infos(self) -> list[Diagnostic]:
        return [d for d in self.diagnostics if d.severity == INFO]

    def codes(self) -> list[str]:
        return [d.code for d in self.diagnostics]

    def by_code(self, code: str) -> list[Diagnostic]:
        return [d for d in self.diagnostics if d.code == code]

    @property
    def ok(self) -> bool:
        """True when no error-severity diagnostics were recorded."""
        return not self.errors()

    # ------------------------------------------------------------------
    def dedupe(self) -> "DiagnosticReport":
        """Drop exact-duplicate diagnostics in place; returns self.

        Two diagnostics are duplicates when code, severity, message,
        pass, location *and* source span all match — re-analyzing the
        same artifact (e.g. linting a kernel served twice from a warm
        plan cache) must not inflate the report.  First occurrences win,
        order is preserved."""
        seen: set[tuple] = set()
        kept: list[Diagnostic] = []
        for d in self.diagnostics:
            key = (
                d.code,
                d.severity,
                d.message,
                d.pass_name,
                d.location,
                (d.span.start, d.span.end) if d.span is not None else None,
            )
            if key not in seen:
                seen.add(key)
                kept.append(d)
        self.diagnostics = kept
        return self

    def __len__(self) -> int:
        return len(self.diagnostics)

    def __iter__(self):
        return iter(self.diagnostics)

    # ------------------------------------------------------------------
    def render(self, min_severity: str = INFO) -> str:
        """Render every diagnostic at or above ``min_severity``."""
        order = {ERROR: 0, WARN: 1, INFO: 2}
        cutoff = order[min_severity]
        lines = [
            d.render() for d in self.diagnostics if order[d.severity] <= cutoff
        ]
        if not lines:
            return "no diagnostics"
        return "\n".join(lines)

    def summary(self) -> str:
        return (
            f"{len(self.errors())} error(s), {len(self.warnings())} "
            f"warning(s), {len(self.infos())} info"
        )

    def to_json(self, indent: int | None = 2, passes=None, extra=None) -> str:
        """JSON payload; ``passes`` lists the pass names that produced
        this report (CI consumers need to tell "pass ran clean" apart
        from "pass never ran").  ``extra`` merges additional top-level
        keys into the document (e.g. the CLI's per-file parallelism
        certificates) without colliding with the report's own keys."""
        doc = {
            "summary": {
                "errors": len(self.errors()),
                "warnings": len(self.warnings()),
                "infos": len(self.infos()),
            },
            "diagnostics": [d.to_dict() for d in self.diagnostics],
        }
        if passes is not None:
            doc["passes"] = list(passes)
        if extra:
            for key in extra:
                if key in doc:
                    raise ValueError(f"extra key {key!r} collides with the report")
            doc.update(extra)
        return json.dumps(doc, indent=indent)
