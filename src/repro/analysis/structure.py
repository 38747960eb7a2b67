"""Sparsity-structure analysis: what *kind* of matrix is this?

Table 1 of the paper shows no single format wins everywhere — the winner
is determined by the matrix's actual structure (bands for ``gr_30_30``,
i-node blocks for ``bcsstm27``, row-length skew for ``memplus``).  This
module turns that observation into a first-class compiler input: one scan
of a :class:`~repro.formats.coo.COOMatrix` produces a serializable
:class:`StructureProfile` capturing

* **diagonals/bands** — distinct occupied diagonals, their run storage
  (what :class:`~repro.formats.diagonal.DiagonalMatrix` would allocate),
  and the bandwidth envelope,
* **dense diagonal blocks** — the finest contiguous partition such that
  every stored entry falls inside a diagonal block (the
  :class:`~repro.formats.blockdiag.BlockDiagonalMatrix` partition), found
  by an interval sweep over per-row/column reach,
* **row-length skew** — mean/max/cv of the row lengths plus the padding
  an ITPACK layout would pay; extreme skew is the memplus signature that
  favors jagged diagonals,
* **symmetry** — pattern and value symmetry fractions,
* **i-node/clique similarity** — identical-row-pattern groups via
  :func:`repro.graphs.inodes.find_inodes` (the ``bcsstm27`` FEM
  signature exploited by :class:`~repro.formats.inode.InodeMatrix`).

The profile carries *classification tags* (``"banded"``, ``"blockdiag"``,
``"skewed"``, ...) and a stable :meth:`~StructureProfile.fingerprint`
that the auto-planner (:mod:`repro.compiler.autoplan`) joins into the
kernel-cache key, so structurally different matrices never share a
cached auto-planned kernel.

:func:`audit_format_choice` is the mismatch detector behind the
``BER05x`` diagnostics: given a profile and a format name it warns when
the format's storage model fights the structure (padded rows under skew,
diagonal storage of scattered entries, ...).  The registered
``structure`` sweep pass self-checks the analyzer against planted
structures.
"""

from __future__ import annotations

import json
import math
from dataclasses import asdict, dataclass, field

import numpy as np

from repro.analysis.diagnostics import ERROR, INFO, WARN, Diagnostic, DiagnosticReport
from repro.analysis.registry import register_pass
from repro.errors import ReproError
from repro.fingerprint import fingerprint as _digest
from repro.formats.coo import COOMatrix
from repro.graphs.inodes import find_inodes

__all__ = [
    "StructureProfile",
    "analyze_structure",
    "audit_format_choice",
    "run_structure_selfcheck",
]

#: profile schema version; part of the fingerprint so analyzer upgrades
#: never reuse stale cached kernels keyed on an older feature set
PROFILE_VERSION = 1


@dataclass(frozen=True)
class StructureProfile:
    """The structural fingerprint of one sparse matrix.

    All fields are plain Python scalars/tuples so the profile serializes
    losslessly through :meth:`to_dict`/:meth:`from_dict` (the CI artifact
    and the bench table embed it as JSON).
    """

    nrows: int
    ncols: int
    nnz: int
    density: float
    # --- row-length statistics (ITPACK padding / JD skew signals) -----
    row_mean: float
    row_max: int
    row_cv: float  # coefficient of variation of row lengths
    skew_ratio: float  # row_max / row_mean (1.0 when uniform)
    ell_stored: int  # nrows * row_max: the ITPACK allocation
    ell_fill: float  # nnz / ell_stored (1.0 = no padding)
    # --- diagonal structure -------------------------------------------
    ndiags: int  # distinct occupied diagonals
    diag_stored: int  # DiagonalMatrix run storage (incl. interior fill)
    diag_fill: float  # nnz / diag_stored
    bandwidth_lower: int  # max(i - j) over stored entries
    bandwidth_upper: int  # max(j - i)
    # --- dense diagonal blocks (square matrices only) -----------------
    nblocks: int  # 0 when not square / empty
    block_max: int  # widest block
    block_stored: int  # sum of block widths squared
    block_fill: float  # nnz / block_stored (0.0 when no blocks)
    blockptr: tuple[int, ...] = ()  # the partition itself
    # --- similarity / symmetry ----------------------------------------
    ninodes: int = 0  # identical-pattern row groups (nonempty rows)
    inode_ratio: float = 1.0  # nonempty rows per group (1.0 = no grouping)
    pattern_symmetry: float = 0.0  # |P ∩ Pᵀ| / |P| (square only)
    value_symmetry: bool = False
    # --- classification -----------------------------------------------
    tags: tuple[str, ...] = field(default=())

    # ------------------------------------------------------------------
    @property
    def shape(self) -> tuple[int, int]:
        return (self.nrows, self.ncols)

    def has(self, tag: str) -> bool:
        return tag in self.tags

    def to_dict(self) -> dict:
        d = asdict(self)
        d["version"] = PROFILE_VERSION
        return d

    @classmethod
    def from_dict(cls, doc: dict) -> "StructureProfile":
        doc = dict(doc)
        doc.pop("version", None)
        doc["blockptr"] = tuple(doc.get("blockptr", ()))
        doc["tags"] = tuple(doc.get("tags", ()))
        return cls(**doc)

    def to_json(self, indent: int | None = None) -> str:
        return json.dumps(self.to_dict(), sort_keys=True, indent=indent)

    @classmethod
    def from_json(cls, text: str) -> "StructureProfile":
        return cls.from_dict(json.loads(text))

    def fingerprint(self) -> str:
        """Short stable hash of the profile for plan-cache keys.

        Hashes the full feature set (blockptr included — two matrices
        with different block partitions need different BlockDiag code
        paths), so structurally different matrices of equal shape get
        distinct auto-plan cache entries.  Floats are rounded to 6
        significant digits first: re-analysis of the same matrix is
        bit-stable across platforms.
        """
        doc = self.to_dict()
        for k, v in doc.items():
            if isinstance(v, float):
                doc[k] = float(f"{v:.6g}")
        blob = json.dumps(doc, sort_keys=True, separators=(",", ":"))
        return _digest(blob)

    def describe(self) -> str:
        """One paragraph of human-readable structure commentary."""
        lines = [
            f"structure profile: {self.nrows}x{self.ncols}, nnz={self.nnz} "
            f"(density {self.density:.3g})",
            f"  tags: {', '.join(self.tags) or 'none'}",
            f"  rows: mean {self.row_mean:.2f}, max {self.row_max}, "
            f"cv {self.row_cv:.2f}, skew {self.skew_ratio:.1f}x "
            f"(ITPACK fill {self.ell_fill:.2f})",
            f"  diagonals: {self.ndiags} occupied, run storage "
            f"{self.diag_stored} (fill {self.diag_fill:.2f}), bandwidth "
            f"-{self.bandwidth_lower}/+{self.bandwidth_upper}",
        ]
        if self.nblocks:
            lines.append(
                f"  diagonal blocks: {self.nblocks} (max width "
                f"{self.block_max}, storage {self.block_stored}, fill "
                f"{self.block_fill:.2f})"
            )
        lines.append(
            f"  i-nodes: {self.ninodes} groups ({self.inode_ratio:.2f} "
            f"rows/group); symmetry: pattern {self.pattern_symmetry:.2f}, "
            f"values {'yes' if self.value_symmetry else 'no'}"
        )
        return "\n".join(lines)


# ----------------------------------------------------------------------
# feature extraction
# ----------------------------------------------------------------------
def _diagonal_features(coo: COOMatrix) -> tuple[int, int, int, int]:
    """(ndiags, diag_stored, bandwidth_lower, bandwidth_upper)."""
    if coo.nnz == 0:
        return 0, 0, 0, 0
    d = coo.col - coo.row
    offsets, inverse = np.unique(d, return_inverse=True)
    lo = np.full(len(offsets), np.iinfo(np.int64).max, dtype=np.int64)
    hi = np.full(len(offsets), np.iinfo(np.int64).min, dtype=np.int64)
    np.minimum.at(lo, inverse, coo.row)
    np.maximum.at(hi, inverse, coo.row)
    stored = int(np.sum(hi - lo + 1))
    return (
        len(offsets),
        stored,
        int(max(0, -offsets.min())),
        int(max(0, offsets.max())),
    )


def _block_partition(coo: COOMatrix) -> tuple[int, ...]:
    """The finest contiguous diagonal-block partition covering every entry.

    Interval sweep: index ``i`` reaches the furthest row/column any entry
    of row or column ``i`` touches; a block closes at every index whose
    running reach does not extend past itself.  Every stored entry
    provably lands inside a diagonal block of the returned partition, so
    a BlockDiagonalMatrix built on it loses nothing.
    """
    n = coo.shape[0]
    if n == 0 or coo.shape[0] != coo.shape[1]:
        return ()
    reach = np.arange(n, dtype=np.int64)
    if coo.nnz:
        np.maximum.at(reach, coo.row, coo.col)
        np.maximum.at(reach, coo.col, coo.row)
    closes = np.flatnonzero(np.maximum.accumulate(reach) == np.arange(n))
    return (0, *(closes + 1).tolist())


def _inode_features(coo: COOMatrix) -> tuple[int, float]:
    """(ninodes over nonempty rows, rows per group)."""
    if coo.nnz == 0:
        return 0, 1.0
    coo = coo.canonicalized()
    starts = np.flatnonzero(np.r_[True, coo.row[1:] != coo.row[:-1]])
    gptr, _ = find_inodes(np.append(starts, coo.nnz), coo.col)
    ngroups = len(gptr) - 1
    return ngroups, len(starts) / ngroups


def _symmetry_features(coo: COOMatrix) -> tuple[float, bool]:
    """(pattern-symmetry fraction, exact value symmetry)."""
    n, m = coo.shape
    if n != m or coo.nnz == 0:
        return 0.0, False
    coo = coo.canonicalized()
    keys = coo.row * m + coo.col
    tkeys = np.sort(coo.col * m + coo.row)
    shared = np.intersect1d(keys, tkeys, assume_unique=True)
    pattern = len(shared) / coo.nnz
    value = False
    if pattern == 1.0:
        t = coo.transpose().canonicalized()
        value = bool(
            np.array_equal(coo.row, t.row)
            and np.array_equal(coo.col, t.col)
            and np.allclose(coo.vals, t.vals, rtol=1e-12, atol=0.0)
        )
    return float(pattern), value


def _classify(p: dict) -> tuple[str, ...]:
    """Classification tags from the raw feature dict (ordering stable)."""
    tags: list[str] = []
    n, m, nnz = p["nrows"], p["ncols"], p["nnz"]
    if nnz == 0:
        return ("empty",)
    if p["density"] >= 0.5:
        tags.append("dense")
    span = p["bandwidth_lower"] + p["bandwidth_upper"] + 1
    if p["diag_fill"] >= 0.6 and p["ndiags"] <= max(9, 0.05 * max(n, m)):
        tags.append("diagonal")
    if span <= max(5, 0.25 * max(n, m)) and "dense" not in tags:
        tags.append("banded")
    if (
        p["nblocks"] >= 2
        and p["block_fill"] >= 0.4
        and p["block_max"] <= max(2, 0.5 * n)
    ):
        tags.append("blockdiag")
    if p["inode_ratio"] >= 1.8 and p["ninodes"] >= 1:
        tags.append("inode")
    if p["skew_ratio"] >= 6.0 and p["row_cv"] >= 1.0:
        tags.append("skewed")
    if p["pattern_symmetry"] >= 0.99:
        tags.append("symmetric")
    if not tags:
        tags.append("uniform")
    return tuple(tags)


def analyze_structure(coo: COOMatrix) -> StructureProfile:
    """Scan a matrix once and return its :class:`StructureProfile`.

    Accepts any :class:`~repro.formats.base.Format` by converting through
    the COO exchange format; the scan is numpy work over the entries,
    with no Python loop per row.
    """
    from repro.observability import metrics as _metrics
    from repro.observability.trace import span

    if not isinstance(coo, COOMatrix):
        to_coo = getattr(coo, "to_coo", None)
        if to_coo is None:
            raise ReproError(
                f"analyze_structure needs a matrix, got {type(coo).__name__}"
            )
        coo = to_coo()
    if coo.ndim != 2:
        raise ReproError("analyze_structure expects a 2-D matrix")
    coo = coo.canonicalized()
    with span("autoplan.analyze", shape=coo.shape, nnz=coo.nnz):
        n, m = coo.shape
        nnz = coo.nnz
        counts = coo.row_counts() if n else np.zeros(0, dtype=np.int64)
        row_mean = float(counts.mean()) if n else 0.0
        row_max = int(counts.max()) if n else 0
        row_cv = (
            float(counts.std() / row_mean) if row_mean > 0 else 0.0
        )
        skew = row_max / row_mean if row_mean > 0 else 1.0
        ell_stored = n * row_max
        ndiags, diag_stored, bw_lo, bw_up = _diagonal_features(coo)
        blockptr = _block_partition(coo)
        widths = np.diff(blockptr) if len(blockptr) > 1 else np.zeros(0, dtype=np.int64)
        block_stored = int(np.sum(widths * widths))
        ninodes, inode_ratio = _inode_features(coo)
        pattern_sym, value_sym = _symmetry_features(coo)
        raw = dict(
            nrows=int(n),
            ncols=int(m),
            nnz=int(nnz),
            density=(nnz / (n * m)) if n and m else 0.0,
            row_mean=row_mean,
            row_max=row_max,
            row_cv=row_cv,
            skew_ratio=float(skew),
            ell_stored=int(ell_stored),
            ell_fill=(nnz / ell_stored) if ell_stored else 0.0,
            ndiags=ndiags,
            diag_stored=diag_stored,
            diag_fill=(nnz / diag_stored) if diag_stored else 0.0,
            bandwidth_lower=bw_lo,
            bandwidth_upper=bw_up,
            nblocks=max(0, len(blockptr) - 1),
            block_max=int(widths.max()) if len(widths) else 0,
            block_stored=block_stored,
            block_fill=(nnz / block_stored) if block_stored else 0.0,
            blockptr=blockptr,
            ninodes=ninodes,
            inode_ratio=float(inode_ratio),
            pattern_symmetry=pattern_sym,
            value_symmetry=value_sym,
        )
        raw["tags"] = _classify(raw)
        profile = StructureProfile(**raw)
    _metrics.record("runtime.autoplan.analyses")
    return profile


# ----------------------------------------------------------------------
# format-choice auditing (the BER05x mismatch diagnostics)
# ----------------------------------------------------------------------
def audit_format_choice(
    profile: StructureProfile, fmt_name: str, where: str = ""
) -> DiagnosticReport:
    """Warn when ``fmt_name``'s storage model fights the profile.

    Codes: BER051 padded-row formats under skew, BER052 diagonal storage
    of scattered entries, BER053 block-diagonal coverage problems, BER054
    dense storage of a very sparse matrix.  An empty report means the
    choice is structurally defensible (not necessarily optimal).
    """
    report = DiagnosticReport()
    loc = where or f"matrix {profile.nrows}x{profile.ncols}"

    def warn(code: str, msg: str, severity: str = WARN) -> None:
        report.add(
            Diagnostic(code, severity, msg, pass_name="structure", location=loc)
        )

    if profile.nnz == 0:
        return report
    if fmt_name in ("ITPACK", "ELL") and profile.ell_fill < 0.5:
        warn(
            "BER051",
            f"ITPACK pads {profile.ell_stored} slots for {profile.nnz} "
            f"entries (fill {profile.ell_fill:.2f}); row-length skew "
            f"{profile.skew_ratio:.1f}x makes padded storage collapse — "
            "prefer JDiag or CRS",
        )
    if fmt_name == "Diagonal":
        if profile.diag_fill < 0.5:
            warn(
                "BER052",
                f"Diagonal runs store {profile.diag_stored} slots for "
                f"{profile.nnz} entries (fill {profile.diag_fill:.2f}); "
                "the entries do not lie on dense diagonals",
            )
        elif profile.ndiags > max(9, 0.25 * max(profile.nrows, profile.ncols)):
            warn(
                "BER052",
                f"{profile.ndiags} distinct diagonals for a "
                f"{profile.nrows}x{profile.ncols} matrix; per-diagonal "
                "dispatch overhead will dominate",
            )
    if fmt_name == "BlockDiag":
        if profile.nrows != profile.ncols:
            warn(
                "BER053",
                "BlockDiag requires a square matrix; "
                f"got {profile.nrows}x{profile.ncols}",
                severity=ERROR,
            )
        elif profile.nblocks <= 1 and profile.nrows > 1:
            warn(
                "BER053",
                "no nontrivial diagonal-block partition exists (the "
                "coupling graph is one connected span); BlockDiag "
                "degenerates to one dense block",
            )
        elif profile.block_fill < 0.4:
            warn(
                "BER053",
                f"diagonal blocks store {profile.block_stored} slots for "
                f"{profile.nnz} entries (fill {profile.block_fill:.2f})",
            )
    if fmt_name == "Dense" and profile.density < 0.1:
        warn(
            "BER054",
            f"dense storage of a density-{profile.density:.3g} matrix "
            f"touches {profile.nrows * profile.ncols} slots for "
            f"{profile.nnz} entries",
        )
    return report


def profile_diagnostic(
    profile: StructureProfile, where: str = "", recommend: str | None = None
) -> Diagnostic:
    """The BER050 info line summarizing a profile (CLI / sweep output)."""
    msg = (
        f"tags=[{','.join(profile.tags)}] nnz={profile.nnz} "
        f"skew={profile.skew_ratio:.1f}x diag_fill={profile.diag_fill:.2f} "
        f"blocks={profile.nblocks} inode_ratio={profile.inode_ratio:.2f} "
        f"fingerprint={profile.fingerprint()}"
    )
    if recommend:
        msg += f" -> {recommend}"
    return Diagnostic(
        "BER050",
        INFO,
        msg,
        pass_name="structure",
        location=where or f"matrix {profile.nrows}x{profile.ncols}",
    )


# ----------------------------------------------------------------------
# the registered sweep pass: planted-structure self-checks
# ----------------------------------------------------------------------
def _planted_probes() -> list[tuple[str, str, COOMatrix]]:
    """(name, expected tag, matrix) probes with unambiguous structure."""
    rng = np.random.default_rng(1997)
    # large enough that per-element costs dominate the per-call α in the
    # default cost model — on tiny matrices "Dense" legitimately wins and
    # the self-consistency check would be vacuous
    n = 240
    i = np.arange(n)
    tri = COOMatrix.from_entries(
        (n, n),
        np.concatenate([i, i[:-1], i[1:]]),
        np.concatenate([i, i[1:], i[:-1]]),
        np.concatenate([np.full(n, 4.0), np.full(n - 1, -1.0), np.full(n - 1, -1.0)]),
    )
    # block-diagonal: dense 4x4 blocks down the diagonal
    br, bc, bv = [], [], []
    for b in range(0, n, 4):
        rr, cc = np.meshgrid(np.arange(b, b + 4), np.arange(b, b + 4), indexing="ij")
        br.append(rr.ravel())
        bc.append(cc.ravel())
        bv.append(rng.integers(1, 5, 16).astype(float))
    blockdiag = COOMatrix.from_entries(
        (n, n), np.concatenate(br), np.concatenate(bc), np.concatenate(bv)
    )
    # skewed: tridiagonal bulk plus 3 hub rows of ~n/3 entries
    hr, hc = [tri.row], [tri.col]
    for h in (5, 20, 41):
        cols = rng.choice(n, size=n // 3, replace=False)
        hr.append(np.full(len(cols), h))
        hc.append(cols)
    hv = [tri.vals, *[np.ones(len(c)) for c in hc[1:]]]
    skewed = COOMatrix.from_entries(
        (n, n), np.concatenate(hr), np.concatenate(hc), np.concatenate(hv)
    )
    sym = COOMatrix.random(n, n, 0.08, rng=rng, symmetric=True)
    return [
        ("tridiagonal", "banded", tri),
        ("blockdiag-4x4", "blockdiag", blockdiag),
        ("hub-skewed", "skewed", skewed),
        ("random-symmetric", "symmetric", sym),
    ]


def run_structure_selfcheck() -> DiagnosticReport:
    """Sweep pass: the analyzer must detect planted structures, and the
    auto-planner's choice for each must pass the analyzer's own audit
    (self-consistency).  Failures are BER055 errors."""
    from repro.compiler.autoplan import autoplan

    report = DiagnosticReport()
    for name, expected_tag, coo in _planted_probes():
        profile = analyze_structure(coo)
        if not profile.has(expected_tag):
            report.add(
                Diagnostic(
                    "BER055",
                    ERROR,
                    f"planted {expected_tag!r} structure not detected "
                    f"(tags: {list(profile.tags)})",
                    pass_name="structure",
                    location=f"probe {name}",
                )
            )
            continue
        plan = autoplan(coo, profile=profile)
        audit = audit_format_choice(profile, plan.format_name, where=f"probe {name}")
        if not audit.ok or audit.warnings():
            report.extend(audit)
            report.add(
                Diagnostic(
                    "BER055",
                    ERROR,
                    f"auto-chosen format {plan.format_name} is flagged by "
                    "the analyzer's own audit (self-inconsistency)",
                    pass_name="structure",
                    location=f"probe {name}",
                )
            )
        else:
            report.add(
                profile_diagnostic(
                    profile, where=f"probe {name}", recommend=plan.format_name
                )
            )
    return report


register_pass(
    "structure",
    "sparsity-structure analyzer self-check (planted structures)",
)(run_structure_selfcheck)
