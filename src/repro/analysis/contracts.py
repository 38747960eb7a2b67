"""Format-contract auditor: do formats deliver what they declare?

The planner trusts every :class:`~repro.formats.base.AccessLevel`'s
*claimed* properties — ``binds``, ``sorted_enum``, ``dense``,
``searchable`` — when it picks join order and join implementation.  A
mislabeled level silently corrupts results (a false ``sorted_enum``
breaks merge joins; a wrong ``binds`` breaks everything).  This pass
verifies the claims two ways:

* **statically** — the levels' ``binds`` must cover every matrix axis
  exactly once, the hierarchy must be constructible, and ``storage(prefix)``
  names must be prefix-scoped (collision-free across arrays);
* **dynamically** — the auditor *drives the format's own codegen hooks*
  (``emit_enumerate`` / ``emit_search`` / ``emit_load``) on small probe
  matrices, instruments the generated code with per-level bind events,
  and checks the observed enumeration against the claims and against
  ``to_dense()``.

Codes:

=======  ============================================================
BER020   error — ``binds`` do not cover the axes exactly once
BER021   error — hierarchy malformed (``levels()``/``avg_fanout`` broken)
BER022   error — ``storage(prefix)`` key not prefix-scoped / collision
BER023   error — ``sorted_enum`` claimed but enumeration is unsorted
BER024   error — duplicate entries enumerated (same index tuple twice)
BER025   error — ``searchable`` level's search disagrees with enumeration
BER026   error — ``dense`` claimed but enumeration skips indices
BER027   error — enumeration disagrees with ``to_dense()`` (entries/values)
BER028   info — audit skipped (composite / library format)
=======  ============================================================
"""

from __future__ import annotations

import numpy as np

from repro.analysis.diagnostics import ERROR, INFO, Diagnostic, DiagnosticReport
from repro.analysis.registry import register_pass
from repro.errors import FormatError
from repro.formats.base import Emitter, Format

__all__ = ["audit_format", "audit_registered_formats", "block_formats", "default_probes"]

_PASS = "contracts"


def _diag(code, severity, message, location):
    return Diagnostic(code, severity, message, pass_name=_PASS, location=location)


# ----------------------------------------------------------------------
# probe matrices
# ----------------------------------------------------------------------
def default_probes():
    """Small COO probe matrices exercising irregular structure.

    Includes the paper's Fig.-1a-like 6×6 pattern (empty rows, dense-ish
    rows, a full diagonal) and a rectangular matrix; formats that reject a
    probe in ``from_coo`` (e.g. square-only formats) simply skip it.
    """
    from repro.formats.coo import COOMatrix

    rng = np.random.default_rng(20260806)
    probes = []
    # 6x6 with a full diagonal (square formats often require it), empty
    # row/column structure off the diagonal, and duplicate-prone ordering
    n = 6
    row = list(range(n))
    col = list(range(n))
    vals = [float(k + 1) for k in range(n)]
    extra = [(0, 3), (0, 5), (2, 1), (3, 4), (5, 0), (5, 2), (4, 1)]
    for k, (i, j) in enumerate(extra):
        row.append(i)
        col.append(j)
        vals.append(10.0 + k)
    probes.append(
        COOMatrix((n, n), np.array(row), np.array(col), np.array(vals)).canonicalized()
    )
    # rectangular 4x7, random pattern
    m = (rng.random((4, 7)) < 0.4).astype(float)
    m *= rng.integers(1, 9, m.shape)
    probes.append(COOMatrix.from_dense(m))
    return probes


def _vector_probes():
    return [np.array([0.0, 3.0, 0.0, 0.0, -2.5, 7.0, 0.0, 1.0])]


def block_formats():
    """Constructors of the dense-block formats, which Table 1's
    ``FORMAT_NAMES`` leaves out, giving several blocks of several shapes
    (their ``from_coo`` is the one-block case, bar Inode's): BlockDiag
    blocks on row runs of length 1, 2, 3, ...; one DenseBlocks window of
    at most three columns per such run."""
    from repro.formats import BlockDiagonalMatrix, DenseBlocksMatrix, InodeMatrix

    def runs(n):
        return np.unique(np.minimum(np.cumsum(np.arange(n + 1)), n))

    def windows(coo):
        p, m = runs(coo.shape[0]), coo.shape[1]
        c0 = [2 * lo % m for lo in p[:-1]] if m else []
        return [(lo, c, hi - lo, min(3, m - c)) for lo, hi, c in zip(p[:-1], p[1:], c0)]

    return {
        "Inode": InodeMatrix.from_coo,
        "BlockDiag": lambda coo: BlockDiagonalMatrix.from_coo_blocks(coo, runs(coo.shape[0])),
        "DenseBlocks": lambda coo: DenseBlocksMatrix.from_coo_windows(coo, windows(coo)),
    }


# ----------------------------------------------------------------------
# static structure checks
# ----------------------------------------------------------------------
def _check_structure(fmt: Format, name: str, report: DiagnosticReport):
    """Static invariants; returns the levels or None when unauditable."""
    loc = f"format {fmt.name}"
    try:
        levels = fmt.levels()
    except FormatError as e:
        report.add(
            _diag(
                "BER028",
                INFO,
                f"composite/library format — access-method audit skipped ({e})",
                loc,
            )
        )
        return None
    except Exception as e:  # noqa: BLE001 — auditing arbitrary formats
        report.add(
            _diag("BER021", ERROR, f"levels() raised {type(e).__name__}: {e}", loc)
        )
        return None
    if not levels:
        report.add(_diag("BER021", ERROR, "levels() returned an empty hierarchy", loc))
        return None

    seen_axes: list[int] = []
    for li, level in enumerate(levels):
        lloc = f"{loc}, level {li} ({type(level).__name__})"
        for a in level.binds:
            if not (0 <= a < fmt.ndim):
                report.add(
                    _diag("BER020", ERROR, f"binds axis {a} outside 0..{fmt.ndim - 1}", lloc)
                )
            seen_axes.append(a)
        try:
            fan = level.avg_fanout()
            if not (fan >= 0.0):
                report.add(
                    _diag("BER021", ERROR, f"avg_fanout() returned {fan!r}", lloc)
                )
        except Exception as e:  # noqa: BLE001
            report.add(
                _diag("BER021", ERROR, f"avg_fanout() raised {type(e).__name__}: {e}", lloc)
            )
    dupes = sorted({a for a in seen_axes if seen_axes.count(a) > 1})
    missing = sorted(set(range(fmt.ndim)) - set(seen_axes))
    if dupes:
        report.add(
            _diag("BER020", ERROR, f"axes {dupes} bound by more than one level", loc)
        )
    if missing:
        report.add(_diag("BER020", ERROR, f"axes {missing} bound by no level", loc))

    try:
        keys = sorted(fmt.storage(name).keys())
    except Exception as e:  # noqa: BLE001
        report.add(
            _diag("BER022", ERROR, f"storage({name!r}) raised {type(e).__name__}: {e}", loc)
        )
        return None
    for k in keys:
        if not k.isidentifier():
            report.add(
                _diag("BER022", ERROR, f"storage key {k!r} is not an identifier", loc)
            )
        elif not (k == name or k.startswith(f"{name}_")):
            report.add(
                _diag(
                    "BER022",
                    ERROR,
                    f"storage key {k!r} is not scoped under prefix {name!r}; "
                    "two arrays of this format would collide in one kernel",
                    loc,
                )
            )
    if dupes or missing:
        return None  # the probe interpreter needs a well-formed hierarchy
    return levels


# ----------------------------------------------------------------------
# dynamic probes: drive the format's own emit hooks
# ----------------------------------------------------------------------
def _run_probe(src: str, fn_name: str, namespace: dict, hooks: dict):
    ns = dict(namespace)
    ns.update(hooks)
    ns["np"] = np
    exec(compile(src, f"<contract-probe:{fn_name}>", "exec"), ns)
    ns[fn_name]()


def _enumeration_probe(fmt: Format, levels, name: str):
    """(events, entries) observed by enumerating through the emit hooks.

    ``events`` is the DFS stream of ``(level_index, bound_index_tuple)``;
    ``entries`` the full ``(index_tuple, value)`` list in enumeration
    order.
    """
    storage = fmt.storage(name)
    g = Emitter()
    axis_vars = {a: f"i{a}" for a in range(fmt.ndim)}
    g.reserve(list(storage) + list(axis_vars.values()) + ["__ev", "__entry"])
    g.open("def __probe():")
    parent = None
    for li, level in enumerate(levels):
        parent = level.emit_enumerate(
            g, name, parent, {a: axis_vars[a] for a in level.binds}
        )
        bound = ", ".join(axis_vars[a] for a in level.binds)
        g.emit(f"__ev({li}, ({bound}{',' if level.binds else ''}))")
    load = fmt.emit_load(g, name, axis_vars, parent)
    full = ", ".join(axis_vars[a] for a in range(fmt.ndim))
    g.emit(f"__entry(({full},), {load})")
    g.close(g.depth)

    events: list[tuple[int, tuple]] = []
    entries: list[tuple[tuple, float]] = []
    _run_probe(
        g.source(),
        "__probe",
        storage,
        {
            "__ev": lambda li, vals: events.append((li, tuple(int(v) for v in vals))),
            "__entry": lambda idx, v: entries.append(
                (tuple(int(i) for i in idx), float(v))
            ),
        },
    )
    return events, entries


def _level_runs(events, li: int):
    """Split level li's bind events into runs (one per parent position)."""
    runs: list[list[tuple]] = []
    current: list[tuple] | None = None
    for lev, vals in events:
        if lev < li:
            current = None  # the parent advanced: a new run starts
        elif lev == li:
            if current is None:
                current = []
                runs.append(current)
            current.append(vals)
    return runs


def _audit_enumeration(fmt, levels, name, probe_label, report):
    loc = f"format {fmt.name} ({probe_label})"
    try:
        events, entries = _enumeration_probe(fmt, levels, name)
    except Exception as e:  # noqa: BLE001
        report.add(
            _diag(
                "BER021",
                ERROR,
                f"enumeration probe failed: {type(e).__name__}: {e}",
                loc,
            )
        )
        return None

    # claimed sortedness / density per level, observed per parent run
    for li, level in enumerate(levels):
        if not level.binds:
            continue
        lloc = f"{loc}, level {li} ({type(level).__name__})"
        runs = _level_runs(events, li)
        if level.sorted_enum:
            for run in runs:
                bad = next(
                    (k for k in range(1, len(run)) if run[k] <= run[k - 1]), None
                )
                if bad is not None:
                    report.add(
                        _diag(
                            "BER023",
                            ERROR,
                            "level claims sorted_enum=True but enumerated "
                            f"{run[bad - 1]} before {run[bad]} under one parent "
                            "position — merge joins would silently drop entries",
                            lloc,
                        )
                    )
                    break
        if level.dense and len(level.binds) == 1:
            extent = fmt.shape[level.binds[0]]
            expected = [(k,) for k in range(extent)]
            for run in runs:
                if run != expected:
                    report.add(
                        _diag(
                            "BER026",
                            ERROR,
                            f"level claims dense=True but one parent position "
                            f"enumerated {len(run)} of {extent} indices",
                            lloc,
                        )
                    )
                    break

    # duplicate-freedom of the full entry stream
    seen: set[tuple] = set()
    for idx, _v in entries:
        if idx in seen:
            report.add(
                _diag(
                    "BER024",
                    ERROR,
                    f"index {idx} enumerated more than once — reductions "
                    "would double-count the entry",
                    loc,
                )
            )
            break
        seen.add(idx)

    # enumeration must reconstruct the exchange-format contents
    dense = np.asarray(fmt.to_dense(), dtype=np.float64)
    acc = np.zeros(fmt.shape)
    for idx, v in entries:
        acc[idx] += v
    if not np.allclose(acc, dense):
        bad = np.argwhere(~np.isclose(acc, dense))[:3]
        report.add(
            _diag(
                "BER027",
                ERROR,
                "enumeration through the emit hooks disagrees with "
                f"to_dense() at {[tuple(map(int, b)) for b in bad]} — stored "
                "entries and access methods are out of sync",
                loc,
            )
        )
    return entries


def _audit_search(fmt, levels, name, probe_label, entries, report):
    """Drive every searchable level's ``emit_search`` over all candidate
    indices; the hits must be exactly the enumerated entries."""
    storage = fmt.storage(name)
    for li, level in enumerate(levels):
        if not level.searchable or not level.binds:
            continue
        lloc = f"format {fmt.name} ({probe_label}), level {li} ({type(level).__name__})"
        g = Emitter()
        axis_vars = {a: f"i{a}" for a in range(fmt.ndim)}
        search_vars = {a: f"s{a}" for a in level.binds}
        g.reserve(
            list(storage)
            + list(axis_vars.values())
            + list(search_vars.values())
            + ["__hit"]
        )
        g.open("def __sprobe():")
        try:
            parent = None
            for lj in range(li):
                parent = levels[lj].emit_enumerate(
                    g, name, parent, {a: axis_vars[a] for a in levels[lj].binds}
                )
            for a in level.binds:
                g.open(f"for {search_vars[a]} in range({fmt.shape[a]}):")
            pos = level.emit_search(g, name, parent, search_vars)
            for a in level.binds:
                g.emit(f"{axis_vars[a]} = {search_vars[a]}")
            for lj in range(li + 1, len(levels)):
                pos = levels[lj].emit_enumerate(
                    g, name, pos, {a: axis_vars[a] for a in levels[lj].binds}
                )
            load = fmt.emit_load(g, name, axis_vars, pos)
            full = ", ".join(axis_vars[a] for a in range(fmt.ndim))
            g.emit(f"__hit(({full},), {load})")
            g.close(g.depth)
            hits: list[tuple[tuple, float]] = []
            _run_probe(
                g.source(),
                "__sprobe",
                storage,
                {
                    "__hit": lambda idx, v: hits.append(
                        (tuple(int(i) for i in idx), float(v))
                    )
                },
            )
        except Exception as e:  # noqa: BLE001
            report.add(
                _diag(
                    "BER025",
                    ERROR,
                    f"search probe failed: {type(e).__name__}: {e}",
                    lloc,
                )
            )
            continue
        want = sorted(entries)
        got = sorted(hits)
        if got != want:
            missing = [idx for idx, _ in want if idx not in {i for i, _ in got}]
            spurious = [idx for idx, _ in got if idx not in {i for i, _ in want}]
            detail = []
            if missing:
                detail.append(f"missed stored indices {missing[:3]}")
            if spurious:
                detail.append(f"spurious hits at {spurious[:3]}")
            if not detail:
                detail.append("values at found positions differ")
            report.add(
                _diag(
                    "BER025",
                    ERROR,
                    "searchable level's emit_search disagrees with its own "
                    f"enumeration: {'; '.join(detail)}",
                    lloc,
                )
            )


# ----------------------------------------------------------------------
# entry points
# ----------------------------------------------------------------------
def audit_format(fmt: Format, name: str = "A", probe_label: str = "") -> DiagnosticReport:
    """Audit one concrete format instance (static + dynamic checks)."""
    report = DiagnosticReport()
    levels = _check_structure(fmt, name, report)
    if levels is None:
        return report
    label = probe_label or f"{fmt.shape[0]}x{fmt.shape[-1] if fmt.ndim > 1 else 1}"
    entries = _audit_enumeration(fmt, levels, name, label, report)
    if entries is not None:
        _audit_search(fmt, levels, name, label, entries, report)
    return report


def audit_registered_formats(names=None, probes=None) -> DiagnosticReport:
    """Audit every registered matrix format and the dense-block formats
    (plus the vector formats) against the probe matrices; one clean info
    line per format."""
    from repro.formats import FORMAT_NAMES
    from repro.formats.dense import DenseVector
    from repro.formats.sparse_vector import SparseVector

    report = DiagnosticReport()
    probes = list(probes) if probes is not None else default_probes()
    targets = {name: cls.from_coo for name, cls in FORMAT_NAMES.items()} | block_formats()
    if names is not None:
        unknown = sorted(set(names) - set(targets))
        if unknown:
            raise FormatError(
                f"unknown format name(s) {unknown}; known: {sorted(targets)}"
            )
        targets = {n: targets[n] for n in names}

    for fname, build in sorted(targets.items()):
        before = len(report)
        for probe in probes:
            label = f"probe {probe.shape[0]}x{probe.shape[1]}"
            try:
                inst = build(probe)
            except FormatError:
                continue  # format legitimately rejects this shape
            report.extend(audit_format(inst, name="A", probe_label=label))
        sub = report.diagnostics[before:]
        if not any(d.severity == ERROR for d in sub) and not any(
            d.code == "BER028" for d in sub
        ):
            report.add(
                _diag(
                    "BER028",
                    INFO,
                    "all declared access-method properties verified on "
                    f"{len(probes)} probe(s)",
                    f"format {fname}",
                )
            )

    if names is None:
        for vec in (DenseVector, SparseVector):
            for dense in _vector_probes():
                inst = (
                    vec(dense.copy())
                    if vec is DenseVector
                    else SparseVector.from_dense(dense)
                )
                report.extend(
                    audit_format(inst, name="X", probe_label=f"vector[{len(dense)}]")
                )
    return report


@register_pass("contracts", "format-contract auditor over registered formats")
def _sweep() -> DiagnosticReport:
    return audit_registered_formats()
