"""Region-specialized hybrid compilation (the SpComp specialization half).

:mod:`repro.compiler.autoplan` picks the best *single* format for a whole
matrix.  Hybrid matrices — a planted dense block over a banded bulk with a
few hub rows, say — have no single winner: every fixed format pays for the
structure it was not built for.  This module splits such a matrix into
*regions*, materializes each region in the format its structure wants, and
compiles one ordinary kernel with one statement per region:

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

3. :meth:`HybridPlan.compile` rewrites the source with
   :func:`split_source` — ``Y[i] += A0[i,j]*X[j]; Y[i] += A1[i,j]*X[j];
   …``, region formats bound as ``A0…`` — and compiles it with one
   :func:`~repro.compiler.kernels.compile_kernel` call.  Units run in
   statement order, so the regions accumulate into the shared output
   **sequentially in partition order**: same partition, same summation
   tree, same bits, run to run.  The kernel cache key is the ordinary one
   (the program plus every region format's spec), and the native tier
   decides per unit, so a ``block-gemv`` dense window stays on BLAS while
   the other regions run C.

The decomposition requires every statement of the kernel source to be a
``+=`` reduction mentioning the hybrid array exactly once — then the full
sum is exactly the sum of per-region sums (each stored entry contributes
one term through exactly one region).  Anything else is rejected at
compile time rather than silently double-executed per region.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Mapping

import numpy as np

from repro.compiler.ast_nodes import BinOp, MinMax, Neg, Program, Ref
from repro.compiler.autoplan import CANDIDATE_FORMATS, SEGMENT_WEIGHT, CostModel, spmv_operands
from repro.errors import CompileError
from repro.formats.base import Format
from repro.formats.coo import COOMatrix
from repro.formats.denseblocks import DenseBlocksMatrix
from repro.observability.trace import span

__all__ = [
    "Region",
    "RegionPartition",
    "partition_regions",
    "split_source",
    "HybridPlan",
    "plan_hybrid",
]

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
        """The region in its format: dense windows as DenseBlocks, any
        other region through the single-format candidates' builders."""
        if self.format_name == "DenseBlocks":
            return DenseBlocksMatrix.from_coo_windows(self.coo, self.windows)
        return CANDIDATE_FORMATS[self.format_name](self.coo, None)

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
    is the kernel's unit order, hence its summation order: a hybrid SpMV
    accumulates region partials sequentially in exactly this order, so
    results are bitwise stable run to run.
    """

    shape: tuple[int, int]
    nnz: int
    regions: tuple[Region, ...]
    profile: "StructureProfile"  # noqa: F821 - forward ref, typing only

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
# the composed plan: one program, one statement per region
# ----------------------------------------------------------------------
def _validate_decomposable(source: str, name: str) -> Program:
    """Reject sources whose execution would not decompose region-wise;
    returns the parsed program.

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
    return program


def _renamed(expr, old: str, new: str):
    """``expr`` with every reference to array ``old`` reading ``new``."""
    if isinstance(expr, Ref):
        return replace(expr, array=new) if expr.array == old else expr
    if isinstance(expr, Neg):
        return replace(expr, operand=_renamed(expr.operand, old, new))
    if isinstance(expr, (BinOp, MinMax)):
        return replace(expr, left=_renamed(expr.left, old, new), right=_renamed(expr.right, old, new))
    return expr


def split_source(source: str, name: str, region_formats, extra: Mapping[str, Format]):
    """``(program, formats)`` of ``source`` over a partitioned ``name``:
    every statement repeated per region, region-major, the region formats
    bound as ``{name}0``, ``{name}1``, … and ``extra`` binding the rest.

    Statement order is unit order, and unit order is the summation order:
    regions accumulate into the output in partition order, one unit each.
    """
    program = _validate_decomposable(source, name)
    names = [f"{name}{r}" for r in range(len(region_formats))]
    taken = sorted((program.arrays() | set(extra)) & set(names))
    if taken:
        raise CompileError(f"region names {taken} are already arrays of the kernel")
    body = [
        replace(stmt, expr=_renamed(stmt.expr, name, region))
        for region in names
        for stmt in program.body
    ]
    return Program(program.loops, body), {**dict(zip(names, region_formats)), **extra}


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
    def build(self) -> tuple[Format, ...]:
        """Materialize every region in its chosen format, in partition order."""
        return tuple(r.build() for r in self.partition.regions)

    def compile(
        self,
        source: str | None = None,
        name: str = "A",
        extra: Mapping[str, Format] | None = None,
        **kwargs,
    ):
        """Compile ``source`` over the regions; returns ``(kernel, formats)``.

        Mirrors :meth:`AutoPlan.compile`: ``source`` defaults to the SpMV
        nest, ``extra`` supplies the non-matrix arrays (defaulting to
        dense ``X``/``Y`` shaped to the matrix), and the returned
        ``formats`` map is directly usable as the call arguments.  The
        kernel is one ordinary :func:`compile_kernel` of
        :func:`split_source`'s program.
        """
        from repro.compiler.kernels import compile_kernel
        from repro.kernels.spmv import SPMV_SRC

        program, formats = split_source(
            SPMV_SRC if source is None else source,
            name,
            self.build(),
            spmv_operands(self.partition.shape) if extra is None else extra,
        )
        return compile_kernel(program, formats, **kwargs), formats

    # ------------------------------------------------------------------
    def describe(self) -> str:
        lines = [
            f"hybrid plan: {len(self.partition.regions)} regions, predicted "
            f"{self.predicted_seconds * 1e6:.1f} µs/call "
            f"(cost model: {self.model_source})"
        ]
        lines.append(
            "  summation order is the region order below "
            "(one kernel unit per region; bitwise-reproducible)"
        )
        for region, pred in zip(self.partition.regions, self.region_predictions):
            lines.append(
                f"    {region.kind:<9s} {region.format_name:<11s} "
                f"nnz={region.coo.nnz:<8d} stored={region.stored:>10.0f} "
                f"segments={region.segments:>5.0f} "
                f"predicted={pred * 1e6:>8.1f} µs — {region.detail}"
            )
        return "\n".join(lines)

    def to_dict(self) -> dict:
        return {
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
