"""The seeded-mutation self-check loop shared by the ``regions`` and
``depend`` passes: the detector itself is on trial."""

from __future__ import annotations

from repro.analysis.diagnostics import ERROR, INFO, Diagnostic, DiagnosticReport

__all__ = ["run_mutation_selfcheck"]


def run_mutation_selfcheck(
    probes,
    mutants,
    judge,
    *,
    pass_name: str,
    escaped: str,
    caught: str,
    noun: str,
    broken_probe: str,
) -> DiagnosticReport:
    """Every clean probe must pass; every applicable mutant must be caught.

    ``probes`` yields ``(name, subject)``; ``mutants`` maps a name to
    ``mutate(subject)``, returning the mutated subject or ``None`` when the
    mutation does not apply to that probe's shape.
    ``judge(name, subject, mutant)`` returns ``(flagged, text, findings)``; with
    ``mutant=None`` it judges the clean subject, and being flagged there
    is the failure (``findings`` are reported, then ``broken_probe``).
    An unflagged mutant is an ``escaped`` error, a flagged one a
    ``caught`` info, both reading ``"seeded <noun> '<name>' <text>"``.
    """
    report = DiagnosticReport()

    def note(code, severity, message, name):
        report.add(
            Diagnostic(
                code, severity, message, pass_name=pass_name, location=f"probe {name}"
            )
        )

    for name, subject in probes:
        flagged, _text, findings = judge(name, subject, None)
        if flagged:
            report.extend(findings)
            note(escaped, ERROR, broken_probe, name)
            continue
        for mname, mutate in mutants.items():
            mutant = mutate(subject)
            if mutant is None:
                continue
            flagged, text, _findings = judge(name, subject, mutant)
            code, severity = (caught, INFO) if flagged else (escaped, ERROR)
            note(code, severity, f"seeded {noun} {mname!r} {text}", name)
    return report
