"""Benchmark trajectory tracking and regression gating.

Every ``benchmarks/bench_*.py`` standalone main reduces its run to one
headline scalar (a geomean, a speedup, a modeled time) and hands it here
as a :class:`BenchRecord`.  Records append to an append-only JSONL
history (``BENCH_history.jsonl``), so the perf story of the repo is a
*trajectory*, not a pile of disconnected snapshots: each new record is
diffed against the best and the most recent prior record of the same
``(bench, fingerprint)`` series, and ``--gate <pct>`` turns that diff
into an exit code a CI job can fail on.

Design points:

* **Config fingerprint.** Records are only comparable when they measured
  the same thing; the fingerprint is a short sha256 of the
  canonicalized config dict (problem sizes, nprocs, backend, smoke
  flag).  A changed config starts a fresh series instead of tripping the
  gate with an apples-to-oranges diff.
* **Direction aware.** ``direction="lower"`` (times) and ``"higher"``
  (speedups) both gate on *worsening* — the sign convention lives here,
  not in every bench script.
* **Append-only, corruption tolerant.** History lines that fail to
  parse are skipped with a warning, never fatal: a truncated line from a
  killed CI job must not brick the gate forever after.
"""

from __future__ import annotations

import json
import math
import os
import subprocess
import time
from dataclasses import dataclass, field

from repro.errors import ObservabilityError
from repro.fingerprint import fingerprint

__all__ = [
    "BenchRecord",
    "BenchHistory",
    "GateResult",
    "config_fingerprint",
    "current_git_rev",
    "evaluate_gate",
    "render_gate",
    "DEFAULT_HISTORY",
]

DEFAULT_HISTORY = "BENCH_history.jsonl"


def config_fingerprint(config: dict) -> str:
    """Short stable fingerprint of a benchmark config dict."""
    blob = json.dumps(config, sort_keys=True, separators=(",", ":"), default=str)
    return fingerprint(blob, 12)


def current_git_rev() -> str:
    """The working tree's HEAD revision, or ``"unknown"`` outside git."""
    try:
        out = subprocess.run(
            ["git", "rev-parse", "--short", "HEAD"],
            capture_output=True,
            text=True,
            timeout=10,
        )
    except (OSError, subprocess.SubprocessError):
        return "unknown"
    rev = out.stdout.strip()
    return rev if out.returncode == 0 and rev else "unknown"


@dataclass
class BenchRecord:
    """One benchmark run reduced to its headline scalar."""

    bench: str  # benchmark id, e.g. "table3_inspector"
    value: float  # the headline scalar (geomean / speedup / seconds)
    direction: str = "lower"  # "lower" or "higher" is better
    config: dict = field(default_factory=dict)  # what was measured
    metrics: dict = field(default_factory=dict)  # supporting numbers
    fingerprint: str = ""  # config_fingerprint(config); filled by __post_init__
    git_rev: str = ""
    timestamp: float = 0.0  # unix seconds
    #: diffs vs prior history, % (positive = regression); filled at append
    delta_vs_best_pct: float | None = None
    delta_vs_last_pct: float | None = None

    def __post_init__(self):
        if self.direction not in ("lower", "higher"):
            raise ObservabilityError(
                f"BenchRecord direction must be 'lower' or 'higher', "
                f"got {self.direction!r}"
            )
        if not (isinstance(self.value, (int, float)) and math.isfinite(self.value)):
            raise ObservabilityError(
                f"BenchRecord value must be finite, got {self.value!r}"
            )
        self.value = float(self.value)
        if not self.fingerprint:
            self.fingerprint = config_fingerprint(self.config)
        if not self.git_rev:
            self.git_rev = current_git_rev()
        if not self.timestamp:
            self.timestamp = time.time()

    # regression % of this record vs a baseline value: positive = worse,
    # in the record's own direction convention
    def regression_pct(self, baseline: float) -> float:
        if baseline == 0.0:
            return 0.0
        if self.direction == "lower":
            return 100.0 * (self.value - baseline) / baseline
        return 100.0 * (baseline - self.value) / baseline

    def to_dict(self) -> dict:
        return {
            "bench": self.bench,
            "fingerprint": self.fingerprint,
            "value": self.value,
            "direction": self.direction,
            "config": self.config,
            "metrics": self.metrics,
            "git_rev": self.git_rev,
            "timestamp": self.timestamp,
            "delta_vs_best_pct": self.delta_vs_best_pct,
            "delta_vs_last_pct": self.delta_vs_last_pct,
        }

    @classmethod
    def from_dict(cls, doc: dict) -> "BenchRecord":
        rec = cls(
            bench=str(doc["bench"]),
            value=float(doc["value"]),
            direction=str(doc.get("direction", "lower")),
            config=dict(doc.get("config", {})),
            metrics=dict(doc.get("metrics", {})),
            fingerprint=str(doc.get("fingerprint", "")),
            git_rev=str(doc.get("git_rev", "unknown")),
            timestamp=float(doc.get("timestamp", 0.0)) or 1.0,
        )
        rec.delta_vs_best_pct = doc.get("delta_vs_best_pct")
        rec.delta_vs_last_pct = doc.get("delta_vs_last_pct")
        return rec


class BenchHistory:
    """Append-only JSONL store of :class:`BenchRecord` lines."""

    def __init__(self, path: str = DEFAULT_HISTORY):
        self.path = path
        self.records: list[BenchRecord] = []
        self.skipped_lines = 0
        self._load()

    def _load(self) -> None:
        if not os.path.exists(self.path):
            return
        try:
            with open(self.path) as fh:
                lines = fh.readlines()
        except OSError as e:
            raise ObservabilityError(
                f"cannot read bench history {self.path!r}: {e}"
            ) from e
        for line in lines:
            line = line.strip()
            if not line:
                continue
            try:
                self.records.append(BenchRecord.from_dict(json.loads(line)))
            except (json.JSONDecodeError, KeyError, TypeError, ValueError,
                    ObservabilityError):
                self.skipped_lines += 1

    def series(self, bench: str, fingerprint: str) -> list[BenchRecord]:
        """All prior records of one comparable series, oldest first."""
        return [
            r
            for r in self.records
            if r.bench == bench and r.fingerprint == fingerprint
        ]

    def last(self, bench: str, fingerprint: str) -> BenchRecord | None:
        s = self.series(bench, fingerprint)
        return s[-1] if s else None

    def best(self, bench: str, fingerprint: str) -> BenchRecord | None:
        s = self.series(bench, fingerprint)
        if not s:
            return None
        if s[0].direction == "higher":
            return max(s, key=lambda r: r.value)
        return min(s, key=lambda r: r.value)

    def append(self, record: BenchRecord) -> BenchRecord:
        """Diff ``record`` against prior history, stamp the deltas into
        it, append it to the JSONL file, and return it."""
        best = self.best(record.bench, record.fingerprint)
        last = self.last(record.bench, record.fingerprint)
        if best is not None:
            record.delta_vs_best_pct = record.regression_pct(best.value)
        if last is not None:
            record.delta_vs_last_pct = record.regression_pct(last.value)
        line = json.dumps(record.to_dict(), sort_keys=True, default=str)
        with open(self.path, "a") as fh:
            fh.write(line + "\n")
        self.records.append(record)
        return record


@dataclass
class GateResult:
    """Outcome of one ``--gate <pct>`` regression check."""

    record: BenchRecord
    baseline: BenchRecord | None  # None: first record of its series
    against: str  # "best" or "last"
    threshold_pct: float
    regression_pct: float | None  # None: nothing to compare against

    @property
    def passed(self) -> bool:
        return self.regression_pct is None or self.regression_pct <= self.threshold_pct

    @property
    def exit_code(self) -> int:
        return 0 if self.passed else 1


def evaluate_gate(
    record: BenchRecord,
    history: BenchHistory,
    threshold_pct: float,
    against: str = "best",
) -> GateResult:
    """Gate a fresh record against its series' ``best`` (default) or
    ``last`` prior record.  The record is expected to already be appended
    (so its deltas are stamped); a series with no prior records passes —
    the first data point cannot regress."""
    if against not in ("best", "last"):
        raise ObservabilityError(f"gate baseline must be 'best' or 'last', got {against!r}")
    # exclude the record itself (it is already in history.records)
    prior = [
        r
        for r in history.series(record.bench, record.fingerprint)
        if r is not record
    ]
    baseline = None
    if prior:
        if against == "last":
            baseline = prior[-1]
        elif record.direction == "higher":
            baseline = max(prior, key=lambda r: r.value)
        else:
            baseline = min(prior, key=lambda r: r.value)
    reg = None if baseline is None else record.regression_pct(baseline.value)
    return GateResult(
        record=record,
        baseline=baseline,
        against=against,
        threshold_pct=float(threshold_pct),
        regression_pct=reg,
    )


def render_gate(result: GateResult) -> str:
    r = result.record
    arrow = "↓ better" if r.direction == "lower" else "↑ better"
    lines = [
        f"bench {r.bench} [{r.fingerprint}] value={r.value:.6g} ({arrow}) "
        f"rev={r.git_rev}"
    ]
    if result.baseline is None:
        lines.append(
            f"gate PASS: first record of this series (threshold "
            f"{result.threshold_pct:g}%)"
        )
        return "\n".join(lines)
    b = result.baseline
    lines.append(
        f"baseline ({result.against}) value={b.value:.6g} rev={b.git_rev}"
    )
    verdict = "PASS" if result.passed else "FAIL"
    lines.append(
        f"gate {verdict}: {result.regression_pct:+.1f}% vs {result.against} "
        f"(threshold {result.threshold_pct:g}%)"
    )
    return "\n".join(lines)
