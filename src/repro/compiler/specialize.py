"""Region-specialized hybrid compilation (the SpComp specialization half).

:mod:`repro.compiler.autoplan` picks the best *single* format for a whole
matrix.  Hybrid matrices — a planted dense block over a banded bulk with a
few hub rows, say — have no single winner: every fixed format pays for the
structure it was not built for.  This module splits such a matrix into
*regions*, materializes each region in the format its structure wants, and
compiles one sub-kernel per region through the ordinary
:mod:`repro.compiler.backends` lowering:

1. :func:`partition_regions` peels, in a fixed pipeline order,

   * **dense windows** — rectangles of dense 8x8 tiles (seeded from the
     profile's diagonal-block partition, then a greedy maximal-rectangle
     sweep over the tile grid) → :class:`~repro.formats.denseblocks.DenseBlocksMatrix`,
   * **skew rows** — rows far above the remaining mean length (the
     memplus hubs) → CRS/JD/Coordinate, whichever the model prices lowest,
   * **band diagonals** — remaining diagonals that are dense runs →
     :class:`~repro.formats.diagonal.DiagonalMatrix`,
   * a **remainder** holding everything else.

   Every stored entry lands in *exactly one* region (the partition is a
   loss-free cover; ``reassemble()`` returns the input bit for bit).

2. :func:`plan_hybrid` prices the partition with the same calibrated
   α+β :class:`~repro.compiler.autoplan.CostModel` the single-format
   planner uses — each region pays its own per-call α, so the split only
   wins when regions are big enough to amortize the extra dispatches.

3. :meth:`HybridPlan.compile` compiles one sub-kernel per region and
   returns a :class:`HybridKernel` that runs them **sequentially in
   partition order**, accumulating into the shared output.  Floating-point
   addition is not associative, so the fixed order is the bitwise
   -reproducibility contract: same partition, same summation tree, same
   bits, run to run.  Each sub-kernel is cached under a region-aware
   ``extra_key`` (partition fingerprint + region index + format), so two
   structurally identical matrices share compiled sub-kernels while any
   partition change misses.

The decomposition requires every statement of the kernel source to be a
``+=`` reduction mentioning the hybrid array exactly once — then the full
sum is exactly the sum of per-region sums (each stored entry contributes
one term through exactly one region).  Anything else is rejected at
compile time rather than silently double-executed per region.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from typing import Mapping

import numpy as np

from repro.compiler.autoplan import SEGMENT_WEIGHT, CostModel
from repro.errors import CompileError, FormatError
from repro.fingerprint import fingerprint as _digest
from repro.formats.base import Format
from repro.formats.coo import COOMatrix
from repro.formats.crs import CRSMatrix
from repro.formats.dense import DenseVector
from repro.formats.denseblocks import DenseBlocksMatrix
from repro.formats.diagonal import DiagonalMatrix
from repro.formats.jdiag import JaggedDiagonalMatrix
from repro.observability import metrics as _metrics
from repro.observability.trace import span

__all__ = [
    "Region",
    "RegionPartition",
    "partition_regions",
    "HybridPlan",
    "HybridMatrix",
    "HybridKernel",
    "plan_hybrid",
]

#: formats a region may be materialized in, by region builder
_REGION_BUILDERS = {
    "DenseBlocks": lambda region: DenseBlocksMatrix.from_coo_windows(
        region.coo, region.windows
    ),
    "Diagonal": lambda region: DiagonalMatrix.from_coo(region.coo),
    "CRS": lambda region: CRSMatrix.from_coo(region.coo),
    "JDiag": lambda region: JaggedDiagonalMatrix.from_coo(region.coo),
    "Coordinate": lambda region: region.coo.canonicalized(),
}

#: candidate formats for residual regions (skew rows / remainder)
_RESIDUAL_FORMATS = ("CRS", "Coordinate", "JDiag")


# Thresholds of the region-peeling pipeline, chosen so single-structure
# matrices do NOT split.
#: tile edge of the dense-window detection grid
TILE = 8
#: a tile is "dense" when it holds at least this fraction of its area
TILE_FILL = 0.55
#: a window must span at least this many tiles in each direction
MIN_WINDOW_TILES = 2
#: and hold at least this fraction of its area overall
WINDOW_FILL = 0.5
#: a row is a "skew" hub at >= SKEW_FACTOR * mean remaining row length
SKEW_FACTOR = 4.0
#: ... and at least this many entries (tiny rows never qualify)
SKEW_MIN = 8
#: give up on the skew peel when more than this fraction of the
#: nonempty rows qualify (then "skew" is just the matrix's shape)
MAX_SKEW_ROW_FRAC = 0.25
#: a diagonal is a "band run" at >= DIAG_FILL occupancy of its run
DIAG_FILL = 0.6
#: ... and at least this many entries
DIAG_MIN = 8


@dataclass
class Region:
    """One region of a partition: a sub-matrix at full shape (global
    coordinates) plus the format chosen to materialize it."""

    kind: str  # "dense" | "skew" | "band" | "remainder"
    format_name: str
    coo: COOMatrix  # full-shape, global coordinates, canonical order
    detail: str = ""
    #: stored slots the materialization allocates (padding/fill included)
    stored: float = 0.0
    #: python-level segment-loop iterations per SpMV (windows, diagonals)
    segments: float = 0.0
    #: dense windows (r0, c0, h, w) — only for kind == "dense"
    windows: tuple = ()

    @property
    def nnz(self) -> int:
        return self.coo.nnz

    def build(self) -> Format:
        try:
            builder = _REGION_BUILDERS[self.format_name]
        except KeyError:
            raise FormatError(
                f"no region builder for format {self.format_name!r}"
            ) from None
        return builder(self)

    def summary(self) -> dict:
        return {
            "kind": self.kind,
            "format": self.format_name,
            "nnz": int(self.coo.nnz),
            "stored": float(self.stored),
            "segments": float(self.segments),
            "windows": [[int(v) for v in w] for w in self.windows],
        }


@dataclass
class RegionPartition:
    """An ordered, disjoint, loss-free cover of one matrix's entries.

    Region order is the pipeline order (dense, skew, band, remainder) and
    is the **summation order contract**: a hybrid SpMV accumulates region
    partials sequentially in exactly this order, so results are bitwise
    stable run to run.
    """

    shape: tuple[int, int]
    nnz: int
    regions: tuple[Region, ...]
    profile: "StructureProfile"  # noqa: F821 - forward ref, typing only
    _fingerprint: str | None = field(default=None, init=False, repr=False, compare=False)

    def fingerprint(self) -> str:
        """Stable short hash for region-aware kernel-cache keys: the
        profile fingerprint plus every region's structural summary.
        Computed once — a partition is never edited after construction
        (``HybridMatrix.spec()`` and ``HybridKernel.bind()`` ask per call)."""
        if self._fingerprint is not None:
            return self._fingerprint
        doc = {
            "shape": list(self.shape),
            "nnz": int(self.nnz),
            "profile": self.profile.fingerprint(),
            "regions": [r.summary() for r in self.regions],
        }
        blob = json.dumps(doc, sort_keys=True, separators=(",", ":"))
        self._fingerprint = _digest(blob)
        return self._fingerprint

    def reassemble(self) -> COOMatrix:
        """The union of the regions as one COO matrix (must equal the
        partitioned input exactly — the loss-free-cover invariant)."""
        parts = [r.coo for r in self.regions if r.coo.nnz]
        if not parts:
            return COOMatrix(self.shape, [], [], [])
        return COOMatrix.from_entries(
            self.shape,
            np.concatenate([p.row for p in parts]),
            np.concatenate([p.col for p in parts]),
            np.concatenate([p.vals for p in parts]),
        )


# ----------------------------------------------------------------------
# the peeling pipeline
# ----------------------------------------------------------------------
def _subset(coo: COOMatrix, mask: np.ndarray) -> COOMatrix:
    """Entries of a canonical COO selected by mask (order preserved, so
    the subset is still canonical)."""
    return COOMatrix(coo.shape, coo.row[mask], coo.col[mask], coo.vals[mask])


def _find_dense_windows(coo, profile):
    """Disjoint dense rectangles, as (r0, c0, h, w) in global coords."""
    n, m = coo.shape
    t = TILE
    min_edge = MIN_WINDOW_TILES * t
    if n < min_edge or m < min_edge or coo.nnz == 0:
        return []
    th, tw = -(-n // t), -(-m // t)
    counts = np.zeros((th, tw), dtype=np.int64)
    np.add.at(counts, (coo.row // t, coo.col // t), 1)
    hsz = np.minimum(t, n - np.arange(th) * t)
    wsz = np.minimum(t, m - np.arange(tw) * t)
    area = hsz[:, None] * wsz[None, :]
    densetile = counts >= TILE_FILL * area
    used = np.zeros((th, tw), dtype=bool)
    accepted: list[tuple[int, int, int, int]] = []

    def overlaps(r0, c0, h, w) -> bool:
        for ar0, ac0, ah, aw in accepted:
            if r0 < ar0 + ah and ar0 < r0 + h and c0 < ac0 + aw and ac0 < c0 + w:
                return True
        return False

    def accept(r0, c0, h, w) -> bool:
        if h < min_edge or w < min_edge or overlaps(r0, c0, h, w):
            return False
        inside = int(
            np.count_nonzero(
                (coo.row >= r0)
                & (coo.row < r0 + h)
                & (coo.col >= c0)
                & (coo.col < c0 + w)
            )
        )
        if inside < WINDOW_FILL * h * w:
            return False
        accepted.append((r0, c0, h, w))
        used[r0 // t : -(-(r0 + h) // t), c0 // t : -(-(c0 + w) // t)] = True
        return True

    # 1) seed with the profile's diagonal-block partition: a wide diagonal
    #    block that is actually dense is a window even if its interior
    #    tiles straddle the grid
    for b in range(max(0, len(profile.blockptr) - 1)):
        lo, hi = int(profile.blockptr[b]), int(profile.blockptr[b + 1])
        if hi - lo >= min_edge:
            accept(lo, lo, hi - lo, hi - lo)

    # 2) greedy maximal rectangles over the dense-tile grid.  Requiring
    #    >= 2x2 tiles keeps a narrow band out: its diagonal tiles may be
    #    individually dense but their off-diagonal neighbors never are.
    for ti in range(th):
        for tj in range(tw):
            if not densetile[ti, tj] or used[ti, tj]:
                continue
            j2 = tj
            while (
                j2 + 1 < tw and densetile[ti, j2 + 1] and not used[ti, j2 + 1]
            ):
                j2 += 1
            i2 = ti
            while i2 + 1 < th and bool(
                np.all(densetile[i2 + 1, tj : j2 + 1])
                and not np.any(used[i2 + 1, tj : j2 + 1])
            ):
                i2 += 1
            r0, c0 = ti * t, tj * t
            h = min(n, (i2 + 1) * t) - r0
            w = min(m, (j2 + 1) * t) - c0
            accept(r0, c0, h, w)
    return accepted


def _residual_region(
    kind: str, coo: COOMatrix, model: CostModel, detail: str
) -> Region:
    """A skew/remainder region in whichever residual format the model
    prices lowest (deterministic tie-break on the format name)."""
    counts = coo.row_counts()
    row_max = int(counts.max()) if len(counts) and coo.nnz else 0
    best = None
    for name in sorted(_RESIDUAL_FORMATS):
        segments = float(row_max) if name == "JDiag" else 0.0
        stored = float(coo.nnz)
        pred = model.price(name, stored, segments)
        if best is None or pred < best[0]:
            best = (pred, name, stored, segments)
    _, name, stored, segments = best
    return Region(
        kind=kind,
        format_name=name,
        coo=coo,
        detail=detail,
        stored=stored,
        segments=segments,
    )


def partition_regions(
    coo,
    profile=None,
    model: CostModel | None = None,
) -> RegionPartition:
    """Split a matrix into an ordered loss-free cover of regions.

    The pipeline peels dense windows first (so a planted block is never
    shredded into diagonals), then skew rows, then band diagonals; the
    remainder takes whatever is left.  ``model`` only affects which
    *format* residual regions are labeled with, never which entries land
    where.
    """
    from repro.analysis.structure import analyze_structure

    if not isinstance(coo, COOMatrix):
        coo = coo.to_coo()
    coo = coo.canonicalized()
    if profile is None:
        profile = analyze_structure(coo)
    model = model or CostModel()
    n, m = coo.shape
    nnz = coo.nnz
    regions: list[Region] = []
    with span("specialize.partition", shape=(n, m), nnz=nnz):
        if nnz == 0:
            regions.append(
                Region(
                    kind="remainder",
                    format_name="Coordinate",
                    coo=coo,
                    detail="empty matrix",
                )
            )
            return RegionPartition((n, m), nnz, tuple(regions), profile)

        claimed = np.zeros(nnz, dtype=bool)

        # --- dense windows -------------------------------------------
        windows = _find_dense_windows(coo, profile)
        if windows:
            mask = np.zeros(nnz, dtype=bool)
            for r0, c0, h, w in windows:
                mask |= (
                    (coo.row >= r0)
                    & (coo.row < r0 + h)
                    & (coo.col >= c0)
                    & (coo.col < c0 + w)
                )
            stored = float(sum(h * w for _, _, h, w in windows))
            regions.append(
                Region(
                    kind="dense",
                    format_name="DenseBlocks",
                    coo=_subset(coo, mask),
                    detail=(
                        f"{len(windows)} dense windows: "
                        + ", ".join(
                            f"{h}x{w}@({r0},{c0})" for r0, c0, h, w in windows
                        )
                    ),
                    stored=stored,
                    segments=float(len(windows)),
                    windows=tuple(windows),
                )
            )
            claimed |= mask

        # --- skew rows -----------------------------------------------
        rem = ~claimed
        if rem.any():
            rcounts = np.bincount(coo.row[rem], minlength=n)
            nonempty = rcounts[rcounts > 0]
            mean = float(nonempty.mean()) if len(nonempty) else 0.0
            thresh = max(SKEW_MIN, SKEW_FACTOR * mean)
            hubs = np.flatnonzero(rcounts >= thresh)
            if len(hubs) and len(hubs) <= MAX_SKEW_ROW_FRAC * max(
                1, len(nonempty)
            ):
                mask = rem & np.isin(coo.row, hubs)
                regions.append(
                    _residual_region(
                        "skew",
                        _subset(coo, mask),
                        model,
                        detail=(
                            f"{len(hubs)} hub rows >= {thresh:.0f} entries "
                            f"(remaining mean {mean:.1f})"
                        ),
                    )
                )
                claimed |= mask

        # --- band diagonal runs --------------------------------------
        rem = ~claimed
        if rem.any():
            rrow, rcol = coo.row[rem], coo.col[rem]
            offsets, inverse = np.unique(rcol - rrow, return_inverse=True)
            counts = np.bincount(inverse)
            lo = np.full(len(offsets), np.iinfo(np.int64).max, dtype=np.int64)
            hi = np.full(len(offsets), np.iinfo(np.int64).min, dtype=np.int64)
            np.minimum.at(lo, inverse, rrow)
            np.maximum.at(hi, inverse, rrow)
            runlen = hi - lo + 1
            dense_run = (counts >= DIAG_MIN) & (counts >= DIAG_FILL * runlen)
            if dense_run.any():
                mask = np.zeros(nnz, dtype=bool)
                mask[np.flatnonzero(rem)[dense_run[inverse]]] = True
                regions.append(
                    Region(
                        kind="band",
                        format_name="Diagonal",
                        coo=_subset(coo, mask),
                        detail=(
                            f"{int(dense_run.sum())} dense diagonal runs, "
                            f"offsets {offsets[dense_run].min()}..."
                            f"{offsets[dense_run].max()}"
                        ),
                        stored=float(runlen[dense_run].sum()),
                        segments=float(dense_run.sum()),
                    )
                )
                claimed |= mask

        # --- remainder ------------------------------------------------
        rem = ~claimed
        if rem.any() or not regions:
            regions.append(
                _residual_region(
                    "remainder",
                    _subset(coo, rem),
                    model,
                    detail=f"{int(rem.sum())} residual entries",
                )
            )
    return RegionPartition((n, m), nnz, tuple(regions), profile)


# ----------------------------------------------------------------------
# the composed plan / kernel
# ----------------------------------------------------------------------
class HybridMatrix(Format):
    """Container binding a partition to its materialized region formats.

    It is not itself enumerable — a :class:`HybridKernel` drives it
    region by region — but it carries shape/nnz/conversions and a
    :meth:`spec` so plan caches and namespace validation treat it like
    any other format.
    """

    format_name = "Hybrid"

    def __init__(self, partition: RegionPartition, region_formats):
        self.partition = partition
        self.region_formats = tuple(region_formats)
        if len(self.region_formats) != len(partition.regions):
            raise FormatError(
                "one materialized format per region required: "
                f"{len(self.region_formats)} formats for "
                f"{len(partition.regions)} regions"
            )

    @property
    def shape(self):
        return self.partition.shape

    @property
    def nnz(self) -> int:
        return int(self.partition.nnz)

    def to_coo(self) -> COOMatrix:
        return self.partition.reassemble()

    def levels(self):
        raise FormatError(
            "HybridMatrix has no single access hierarchy; compile through "
            "HybridPlan.compile, which drives each region's own format"
        )

    def storage(self, prefix: str):
        raise FormatError(
            "HybridMatrix storage is per-region; it is never bound into a "
            "single generated kernel"
        )

    def spec(self) -> tuple:
        return (
            type(self).__qualname__,
            self.partition.fingerprint(),
            tuple(f.spec() for f in self.region_formats),
        )


class HybridKernel:
    """Composed kernel: one compiled sub-kernel per region, run
    sequentially in partition order against a shared output.

    Call convention matches :class:`~repro.compiler.kernels.CompiledKernel`:
    ``kernel(**formats)`` where ``formats[name]`` is the
    :class:`HybridMatrix` and the other entries are shared across
    sub-kernels.  The fixed execution order *is* the determinism
    contract: float accumulation happens in the same tree every call.
    """

    def __init__(self, source, name, partition, kernels):
        self.source = source
        self.name = name
        self.partition = partition
        self.kernels = tuple(kernels)

    @property
    def region_backends(self) -> tuple:
        """Per-region lowering labels (mirrors ``unit_backends``)."""
        return tuple(k.unit_backends for k in self.kernels)

    def __call__(self, **formats):
        self.bind(**formats)()

    def bind(self, **formats):
        """Pre-bind every sub-kernel; returns a zero-argument callable.

        Composes the sub-kernels' bound forms (:meth:`CompiledKernel.bind`,
        same values-may-change / structure-may-not contract): validation,
        storage-dict construction, bound resolution and every region's
        ``prepare`` happen once, so a timing loop (or an iterative solver
        re-running the same SpMV) pays one generated ``run`` per region.
        The summation order is still the fixed partition order.
        """
        hybrid = formats.get(self.name)
        if not isinstance(hybrid, HybridMatrix):
            raise CompileError(
                f"HybridKernel expects {self.name}= a HybridMatrix, got "
                f"{type(hybrid).__name__}"
            )
        if hybrid.partition.fingerprint() != self.partition.fingerprint():
            raise CompileError(
                "HybridMatrix partition does not match the partition this "
                "kernel was compiled for"
            )
        calls = []
        for fmt, kernel in zip(hybrid.region_formats, self.kernels):
            call = dict(formats)
            call[self.name] = fmt
            calls.append(kernel.bind(**call))
        calls = tuple(calls)

        def bound() -> None:
            for c in calls:
                c()

        return bound

    def describe(self) -> str:
        lines = [
            f"hybrid kernel over {len(self.kernels)} regions "
            f"(partition {self.partition.fingerprint()}):"
        ]
        for region, kernel in zip(self.partition.regions, self.kernels):
            lines.append(
                f"  {region.kind:<9s} {region.format_name:<11s} "
                f"nnz={region.coo.nnz:<8d} via {'+'.join(kernel.unit_backends)}"
            )
        return "\n".join(lines)


def _validate_decomposable(source: str, name: str) -> None:
    """Reject sources whose execution would not decompose region-wise.

    Safe statements are ``+=`` reductions referencing the hybrid array
    exactly once: then the full sum over stored entries equals the sum of
    per-region sums, because the regions partition the entries.  A plain
    assignment would be overwritten per region and a statement not
    mentioning the array would run once *per region*.
    """
    from repro.compiler.parser import parse

    program = parse(source)
    for stmt in program.body:
        uses = sum(1 for r in stmt.expr.refs() if r.array == name)
        if not stmt.reduce or uses != 1 or stmt.target.array == name:
            raise CompileError(
                "hybrid decomposition requires every statement to be a "
                f"'+=' reduction reading {name!r} exactly once; statement "
                f"{stmt.target.array}[...] {'+=' if stmt.reduce else '='} ... "
                f"references it {uses} time(s)"
            )


@dataclass
class HybridPlan:
    """A priced region decomposition, ready to compile.

    ``feasible`` is a *structural* statement (at least two non-empty
    regions — otherwise the "hybrid" is just a single-format plan with
    extra steps); whether the split actually *wins* is the auto-planner's
    call, made by comparing ``predicted_seconds`` against the
    single-format candidates.
    """

    partition: RegionPartition
    predicted_seconds: float
    region_predictions: tuple[float, ...]
    model_source: str = "default"

    @property
    def profile(self):
        return self.partition.profile

    @property
    def feasible(self) -> bool:
        return sum(1 for r in self.partition.regions if r.coo.nnz > 0) >= 2

    @property
    def note(self) -> str:
        if self.feasible:
            kinds = "+".join(r.kind for r in self.partition.regions)
            return f"regions: {kinds}"
        return "structure is not separable (fewer than 2 non-empty regions)"

    @property
    def work_units(self) -> float:
        return float(
            sum(
                r.stored + SEGMENT_WEIGHT * r.segments
                for r in self.partition.regions
            )
        )

    # ------------------------------------------------------------------
    def build(self) -> HybridMatrix:
        """Materialize every region in its chosen format."""
        return HybridMatrix(
            self.partition, [r.build() for r in self.partition.regions]
        )

    def compile(
        self,
        source: str | None = None,
        name: str = "A",
        extra: Mapping[str, Format] | None = None,
        **kwargs,
    ):
        """Compile one sub-kernel per region; returns ``(kernel, formats)``.

        Mirrors :meth:`AutoPlan.compile`: ``source`` defaults to the SpMV
        nest, ``extra`` supplies the non-matrix arrays (defaulting to
        dense ``X``/``Y`` shaped to the matrix), and the returned
        ``formats`` map is directly usable as the call arguments.  Each
        sub-kernel joins the kernel cache under
        ``(extra_key..., "region", fingerprint, index, format)``.
        """
        from repro.compiler.kernels import compile_kernel

        if source is None:
            from repro.kernels.spmv import SPMV_SRC

            source = SPMV_SRC
        _validate_decomposable(source, name)
        hybrid = self.build()
        nrows, ncols = hybrid.shape
        formats: dict[str, Format] = {name: hybrid}
        if extra is not None:
            formats.update(extra)
        else:
            formats["X"] = DenseVector(np.zeros(ncols))
            formats["Y"] = DenseVector.zeros(nrows)
        base_key = kwargs.pop("extra_key", ("autoplan-hybrid",))
        backend = kwargs.pop("backend", "vectorized")
        fingerprint = self.partition.fingerprint()
        kernels = []
        with span(
            "autoplan.compile_hybrid",
            regions=len(self.partition.regions),
            fingerprint=fingerprint,
        ):
            for i, (region, fmt) in enumerate(
                zip(self.partition.regions, hybrid.region_formats)
            ):
                sub = dict(formats)
                sub[name] = fmt
                kernels.append(
                    compile_kernel(
                        source,
                        sub,
                        backend=backend,
                        extra_key=(
                            *base_key,
                            "region",
                            fingerprint,
                            i,
                            region.format_name,
                        ),
                        **kwargs,
                    )
                )
        _metrics.record(
            "runtime.autoplan.hybrid_compiles",
            regions=len(self.partition.regions),
        )
        return HybridKernel(source, name, self.partition, kernels), formats

    # ------------------------------------------------------------------
    def describe(self) -> str:
        lines = [
            f"hybrid plan: {len(self.partition.regions)} regions, predicted "
            f"{self.predicted_seconds * 1e6:.1f} µs/call "
            f"(cost model: {self.model_source}; partition "
            f"{self.partition.fingerprint()})"
        ]
        lines.append(
            "  summation order is the region order below "
            "(bitwise-reproducible)"
        )
        for region, pred in zip(self.partition.regions, self.region_predictions):
            lines.append(
                f"    {region.kind:<9s} {region.format_name:<11s} "
                f"nnz={region.coo.nnz:<8d} stored={region.stored:>10.0f} "
                f"segments={region.segments:>5.0f} "
                f"predicted={pred * 1e6:>8.1f} µs — {region.detail}"
            )
        return "\n".join(lines)

    def explain(self) -> str:
        """Alias for :meth:`describe` (mirrors ``explain(plan)``)."""
        return self.describe()

    def to_dict(self) -> dict:
        return {
            "partition_fingerprint": self.partition.fingerprint(),
            "predicted_seconds": self.predicted_seconds,
            "model_source": self.model_source,
            "feasible": self.feasible,
            "regions": [
                dict(r.summary(), predicted_seconds=p, detail=r.detail)
                for r, p in zip(self.partition.regions, self.region_predictions)
            ],
        }


def plan_hybrid(
    coo,
    profile=None,
    model: CostModel | None = None,
) -> HybridPlan:
    """Partition ``coo`` and price the composed plan region by region.

    Every region is charged its own per-call α plus β times its stored
    slots and weighted segment loops — the same model the single-format
    planner uses, so the two predictions are directly comparable.
    """
    model = model or CostModel()
    partition = partition_regions(coo, profile=profile, model=model)
    preds = [model.price(r.format_name, r.stored, r.segments) for r in partition.regions]
    return HybridPlan(
        partition=partition,
        predicted_seconds=float(sum(preds)),
        region_predictions=tuple(preds),
        model_source=model.source,
    )
