"""Region-partition auditor: is a hybrid decomposition a loss-free cover?

:func:`repro.compiler.specialize.partition_regions` promises that every
stored entry of the input lands in **exactly one** region and that the
regions reassemble to the input bit for bit.  A partition that silently
drops an entry, claims one twice, or shifts a boundary produces a hybrid
SpMV that is *plausibly close* to correct — exactly the class of bug a
tolerance-based test waves through.  This pass checks the invariant
structurally, with stable codes:

=========  ==========================================================
BER056     entries of the input missing from every region (dropped)
BER057     entries claimed by more than one region, or present in a
           region but absent from the input (double-counted/spurious)
BER058     coordinates match but values do not reassemble exactly, or
           a region's materialized format does not round-trip its
           entries (materialization infidelity)
BER059     self-check meta finding: a seeded mutant escaped the audit
           (error) or was caught as designed (info)
=========  ==========================================================

The registered ``regions`` sweep pass partitions planted hybrid probes,
requires the audit to pass clean, then applies seeded structural
mutations — :func:`mutate_drop_region`, :func:`mutate_shift_boundary`,
:func:`mutate_double_count` — and requires the audit to *fail* on every
mutant.  An auditor that cannot catch a planted defect is reported as a
BER059 error, so the defect detector itself is under test.
"""

from __future__ import annotations

import numpy as np

from repro.analysis.diagnostics import ERROR, INFO, Diagnostic, DiagnosticReport
from repro.analysis.registry import register_pass
from repro.analysis.selfcheck import run_mutation_selfcheck
from repro.formats.coo import COOMatrix

__all__ = [
    "audit_partition",
    "mutate_drop_region",
    "mutate_shift_boundary",
    "mutate_double_count",
    "run_region_selfcheck",
]


def _keys(coo: COOMatrix, ncols: int) -> np.ndarray:
    """Row-major scalar keys of a COO's coordinates."""
    return coo.row * np.int64(max(ncols, 1)) + coo.col


def _fmt_keys(keys: np.ndarray, ncols: int, limit: int = 4) -> str:
    """A few (i, j) pairs for a diagnostic message."""
    shown = [
        f"({int(k) // max(ncols, 1)},{int(k) % max(ncols, 1)})"
        for k in keys[:limit]
    ]
    more = f" …+{len(keys) - limit}" if len(keys) > limit else ""
    return ", ".join(shown) + more


def audit_partition(coo, partition, where: str = "") -> DiagnosticReport:
    """Verify that ``partition`` is a loss-free cover of ``coo``.

    Checks, in order of severity:

    * **BER056** — every canonical entry of the input appears in some
      region (nothing dropped);
    * **BER057** — no coordinate is claimed by two regions and no region
      contains a coordinate the input lacks (nothing double-counted or
      invented);
    * **BER058** — summing region values per coordinate reproduces the
      input values *exactly* (bitwise — region entries are disjoint
      single contributions, so no floating-point reassociation is
      involved), and each region's :meth:`~Region.build` materialization
      round-trips its entries exactly (explicit zeros that a dense
      window adds for padding are allowed — they do not change any sum).

    A clean audit ends with one BER050-style info line per region.
    """
    report = DiagnosticReport()
    if not isinstance(coo, COOMatrix):
        coo = coo.to_coo()
    coo = coo.canonicalized()
    n, m = coo.shape
    loc = where or f"partition of {n}x{m}"
    if tuple(partition.shape) != (n, m):
        report.add(
            Diagnostic(
                "BER057",
                ERROR,
                f"partition shape {partition.shape} != matrix shape {(n, m)}",
                pass_name="regions",
                location=loc,
            )
        )
        return report

    in_keys = _keys(coo, m)
    reg_keys = [
        _keys(r.coo.canonicalized(), m) for r in partition.regions
    ]
    union = (
        np.concatenate(reg_keys) if reg_keys else np.empty(0, dtype=np.int64)
    )
    uniq, counts = np.unique(union, return_counts=True)

    dropped = np.setdiff1d(in_keys, uniq, assume_unique=True)
    if len(dropped):
        report.add(
            Diagnostic(
                "BER056",
                ERROR,
                f"{len(dropped)} input entries missing from every region: "
                f"{_fmt_keys(dropped, m)}",
                pass_name="regions",
                location=loc,
            )
        )

    dupes = uniq[counts > 1]
    if len(dupes):
        report.add(
            Diagnostic(
                "BER057",
                ERROR,
                f"{len(dupes)} coordinates claimed by more than one region "
                f"(double-counted): {_fmt_keys(dupes, m)}",
                pass_name="regions",
                location=loc,
            )
        )
    spurious = np.setdiff1d(uniq, in_keys, assume_unique=True)
    if len(spurious):
        report.add(
            Diagnostic(
                "BER057",
                ERROR,
                f"{len(spurious)} region entries absent from the input "
                f"(spurious): {_fmt_keys(spurious, m)}",
                pass_name="regions",
                location=loc,
            )
        )

    # value fidelity: only meaningful once the coordinate sets agree —
    # reassemble() sums region values per coordinate; with a disjoint
    # cover each coordinate has exactly one contribution, so equality
    # must hold bitwise
    if report.ok:
        back = partition.reassemble().canonicalized()
        same = len(back.vals) == len(coo.vals) and np.array_equal(
            back.vals, coo.vals
        )
        if not same:
            bad = (
                np.flatnonzero(back.vals != coo.vals)
                if len(back.vals) == len(coo.vals)
                else np.arange(min(4, len(coo.vals)))
            )
            report.add(
                Diagnostic(
                    "BER058",
                    ERROR,
                    f"region values do not reassemble the input exactly "
                    f"({len(bad)} mismatched entries)",
                    pass_name="regions",
                    location=loc,
                )
            )

    # materialization fidelity: region.build().to_coo() must reproduce
    # the region's entries (a dense window may add explicit zero padding
    # — harmless; any *nonzero* deviation is a defect)
    for i, region in enumerate(partition.regions):
        rloc = f"{loc}, region [{i}] {region.kind}/{region.format_name}"
        try:
            built = region.build().to_coo().canonicalized()
        except Exception as exc:  # noqa: BLE001 - report, never crash the sweep
            report.add(
                Diagnostic(
                    "BER058",
                    ERROR,
                    f"region failed to materialize: {exc}",
                    pass_name="regions",
                    location=rloc,
                )
            )
            continue
        rcoo = region.coo.canonicalized()
        delta_keys = np.concatenate([_keys(built, m), _keys(rcoo, m)])
        delta_vals = np.concatenate([built.vals, -rcoo.vals])
        uk, inv = np.unique(delta_keys, return_inverse=True)
        sums = np.zeros(len(uk))
        np.add.at(sums, inv, delta_vals)
        bad = uk[sums != 0.0]
        if len(bad):
            report.add(
                Diagnostic(
                    "BER058",
                    ERROR,
                    f"materialized format does not round-trip the region's "
                    f"entries: {len(bad)} deviations at {_fmt_keys(bad, m)}",
                    pass_name="regions",
                    location=rloc,
                )
            )

    if report.ok:
        for i, region in enumerate(partition.regions):
            report.add(
                Diagnostic(
                    "BER050",
                    INFO,
                    f"region [{i}] {region.kind} in {region.format_name}: "
                    f"nnz={region.nnz} stored={region.stored:.0f} "
                    f"segments={region.segments:.0f}",
                    pass_name="regions",
                    location=loc,
                )
            )
    return report


# ----------------------------------------------------------------------
# seeded structural mutations (defect injection for the self-check)
# ----------------------------------------------------------------------
def _clone_partition(partition, regions):
    from repro.compiler.specialize import RegionPartition

    return RegionPartition(
        shape=partition.shape,
        nnz=partition.nnz,
        regions=tuple(regions),
        profile=partition.profile,
    )


def _clone_region(region, coo):
    from repro.compiler.specialize import Region

    return Region(
        kind=region.kind,
        format_name=region.format_name,
        source=coo,
        owner=np.zeros(coo.nnz, dtype=np.int8),
        label=0,
        detail=region.detail + " [mutated]",
        stored=region.stored,
        segments=region.segments,
        windows=region.windows,
    )


def mutate_drop_region(partition, index: int):
    """Defect: a whole region silently vanishes (its entries drop)."""
    regions = [
        r for i, r in enumerate(partition.regions) if i != index % len(
            partition.regions
        )
    ]
    return _clone_partition(partition, regions)


def mutate_shift_boundary(partition, index: int):
    """Defect: one region's column coordinates shift by +1 (mod ncols) —
    the classic off-by-one region boundary."""
    idx = index % len(partition.regions)
    regions = list(partition.regions)
    r = regions[idx]
    shifted = COOMatrix(
        r.coo.shape,
        r.coo.row,
        (r.coo.col + 1) % max(r.coo.shape[1], 1),
        r.coo.vals,
    ).canonicalized()
    regions[idx] = _clone_region(r, shifted)
    return _clone_partition(partition, regions)


def mutate_double_count(partition, index: int):
    """Defect: one region appears twice (its entries double-count)."""
    idx = index % len(partition.regions)
    regions = list(partition.regions)
    regions.append(regions[idx])
    return _clone_partition(partition, regions)


_MUTANTS = {
    "drop-region": mutate_drop_region,
    "shift-boundary": mutate_shift_boundary,
    "double-count": mutate_double_count,
}


# ----------------------------------------------------------------------
# the registered sweep pass
# ----------------------------------------------------------------------
def _hybrid_probes() -> list[tuple[str, COOMatrix]]:
    """Planted mixed-structure probes (band + dense window + hub rows),
    built inline — analysis passes cannot import the test suite."""
    rng = np.random.default_rng(1997)
    n = 240
    i = np.arange(n)
    # band + one 48x48 dense diagonal window + two hub rows
    rr, cc = np.meshgrid(np.arange(96, 144), np.arange(96, 144), indexing="ij")
    hub_cols = rng.choice(n, size=n // 3, replace=False)
    mixed = COOMatrix.from_entries(
        (n, n),
        np.concatenate([i, i[:-1], rr.ravel(), np.full(len(hub_cols), 7)]),
        np.concatenate([i, i[1:], cc.ravel(), hub_cols]),
        np.concatenate(
            [
                np.full(n, 4.0),
                np.full(n - 1, -1.0),
                rng.integers(1, 5, rr.size).astype(float),
                np.ones(len(hub_cols)),
            ]
        ),
    )
    # off-diagonal window over a uniform background
    k = 3 * n
    br, bc = np.meshgrid(np.arange(16, 64), np.arange(160, 208), indexing="ij")
    offdiag = COOMatrix.from_entries(
        (n, n),
        np.concatenate([rng.integers(0, n, k), br.ravel()]),
        np.concatenate([rng.integers(0, n, k), bc.ravel()]),
        np.concatenate(
            [np.ones(k), rng.integers(1, 5, br.size).astype(float)]
        ),
    )
    return [("band+window+hubs", mixed), ("offdiag-window", offdiag)]


def run_region_selfcheck() -> DiagnosticReport:
    """Sweep pass: partition planted hybrid probes, audit clean, then
    verify every seeded mutation is caught.  An escaped mutant is a
    BER059 error — the auditor itself failed."""
    from repro.compiler.specialize import partition_regions

    def judge(name, probe, mutant):
        coo, partition = probe
        audit = audit_partition(coo, mutant or partition, where=f"probe {name}")
        if audit.ok:
            return False, "escaped the audit (the defect detector is blind to it)", ()
        codes = ",".join(sorted(set(audit.codes()) - {"BER050"}))
        return True, f"caught: {codes}", audit

    return run_mutation_selfcheck(
        ((name, (coo, partition_regions(coo))) for name, coo in _hybrid_probes()),
        {m: (lambda p, mutate=mutate: mutate(p[1], 0)) for m, mutate in _MUTANTS.items()},
        judge,
        pass_name="regions",
        escaped="BER059",
        caught="BER059",
        noun="mutation",
        broken_probe="partition of an unmutated probe failed its own audit",
    )


register_pass(
    "regions",
    "region-partition loss-free-cover audit (seeded mutations)",
)(run_region_selfcheck)
