"""Region partitions: every auto-planner candidate, the SpComp split included.

:mod:`repro.compiler.autoplan` ranks candidates for a whole matrix, and
every candidate is a priced :class:`RegionPartition`: a single format is
the one-region case (one ``"whole"`` region holding every entry).  Hybrid
matrices — a planted dense block over a banded bulk with a few hub rows,
say — have no single winner: every fixed format pays for the structure it
was not built for.  The ``"Hybrid"`` candidate splits such a matrix into
*regions*, materializes each region in the format its structure wants,
and compiles one ordinary kernel with one statement per region:

1. :func:`partition_regions` peels, in a fixed pipeline order,

   * **dense windows** — rectangles of dense 8x8 tiles (seeded from the
     profile's diagonal-block partition, then a greedy maximal-rectangle
     sweep over the dense tiles) → :class:`~repro.formats.denseblocks.DenseBlocksMatrix`,
   * **skew rows** — rows far above the remaining mean length (the
     memplus hubs) → CRS/JD/Coordinate, whichever the model prices lowest,
   * **band diagonals** — remaining diagonals that are dense runs →
     :class:`~repro.formats.diagonal.DiagonalMatrix`,
   * a **remainder** holding everything else.

   Every stored entry lands in *exactly one* region: the regions share
   the input and one ``owner`` label per entry, so the partition is a
   loss-free cover by construction.

2. :func:`plan_hybrid` prices the partition with the same calibrated
   α+β :class:`~repro.compiler.autoplan.CostModel` rule every candidate
   is priced by (:func:`price_partition`) — each region pays its own
   per-call α, so the split only wins when regions are big enough to
   amortize the extra dispatches.

3. :meth:`Candidate.compile` builds the regions from the matrix it is
   given (a split relabels that matrix's canonical entries, so it must
   have the planned structure), rewrites the source with
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
``+=`` reduction each of whose additive terms reads the hybrid array
exactly once as a factor (its sparsity predicate is ``NZ(A(..))``) — then
the full sum is exactly the sum of per-region sums (each stored entry
contributes one term through exactly one region, and a padding zero
contributes nothing).  Anything else is rejected at compile time rather
than silently double-executed per region.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Mapping

import numpy as np

from repro.compiler.ast_nodes import BinOp, MinMax, Neg, Program, Ref
from repro.compiler.autoplan import (
    CANDIDATE_FORMATS,
    SEGMENT_WEIGHT,
    CostModel,
    _feasibility,
)
from repro.compiler.sparsity import sparsity_predicate, split_statement
from repro.errors import CompileError
from repro.formats.base import Format
from repro.formats.coo import COOMatrix
from repro.formats.dense import DenseVector
from repro.formats.denseblocks import DenseBlocksMatrix
from repro.observability.trace import span
from repro.relational.predicates import NZ

__all__ = [
    "Region",
    "RegionPartition",
    "partition_regions",
    "split_source",
    "Candidate",
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
    """One region of a partition: the entries of the partitioned matrix
    that ``owner`` labels ``label`` (every entry when ``owner`` is None),
    plus the format chosen to materialize them.  The regions share the
    input and one int8 ``owner`` array rather than copies of their
    entries, since a plan keeps its partition."""

    kind: str  # "whole" | "dense" | "skew" | "band" | "remainder"
    format_name: str
    source: COOMatrix  # the partitioned matrix, canonical when split
    owner: np.ndarray | None  # region label of each entry of ``source``
    label: int
    detail: str = ""
    #: stored slots the materialization allocates (padding/fill included)
    stored: float = 0.0
    #: outer segments per SpMV (windows, diagonals), priced by weights
    #: fitted to the deleted numpy tier until the planner is re-priced
    segments: float = 0.0
    #: dense windows (r0, c0, h, w) — only for kind == "dense"
    windows: tuple = ()

    @property
    def coo(self) -> COOMatrix:
        """The region's entries: full shape, global coordinates, source order."""
        if self.owner is None:
            return self.source
        s, keep = self.source, self.owner == self.label
        return COOMatrix(s.shape, s.row[keep], s.col[keep], s.vals[keep])

    @property
    def nnz(self) -> int:
        if self.owner is None:
            return self.source.nnz
        return int(np.count_nonzero(self.owner == self.label))

    def build(self, profile=None) -> Format:
        """The region in its format: dense windows as DenseBlocks, any
        other region through the single-format candidates' builders
        (BlockDiag reads the ``profile``'s ``blockptr``)."""
        if self.format_name == "DenseBlocks":
            return DenseBlocksMatrix.from_coo_windows(self.coo, self.windows)
        return CANDIDATE_FORMATS[self.format_name](self.coo, profile)

    def summary(self) -> dict:
        return {
            "kind": self.kind,
            "format": self.format_name,
            "nnz": self.nnz,
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


# ----------------------------------------------------------------------
# the peeling pipeline
# ----------------------------------------------------------------------
def _find_dense_windows(coo, profile):
    """Disjoint dense rectangles, as (r0, c0, h, w) in global coords, of a
    canonical ``coo``.  Cost is O(nnz + dense tiles): the sweep visits only
    dense tiles, and a window's entries are counted from its row slice."""
    n, m = coo.shape
    t = TILE
    min_edge = MIN_WINDOW_TILES * t
    if n < min_edge or m < min_edge or coo.nnz == 0:
        return []
    th, tw = -(-n // t), -(-m // t)
    counts = np.bincount((coo.row // t) * tw + coo.col // t)
    tiles = np.flatnonzero(counts)
    ti, tj = np.divmod(tiles, tw)
    area = np.minimum(t, n - ti * t) * np.minimum(t, m - tj * t)
    densetile = np.zeros((th, tw), dtype=bool)
    densetile.flat[tiles] = counts[tiles] >= TILE_FILL * area
    used = np.zeros((th, tw), dtype=bool)
    accepted: list[tuple[int, int, int, int]] = []

    # No overlap test: seeds are disjoint diagonal blocks, every tile a
    # sweep candidate covers is unused, and accepting marks every tile
    # the window touches.
    def accept(r0, c0, h, w) -> None:
        if h < min_edge or w < min_edge:
            return
        if len(coo.window_entries(r0, c0, h, w)) < WINDOW_FILL * h * w:
            return
        accepted.append((r0, c0, h, w))
        used[r0 // t : -(-(r0 + h) // t), c0 // t : -(-(c0 + w) // t)] = True

    # 1) seed with the profile's diagonal-block partition: a wide diagonal
    #    block that is actually dense is a window even if its interior
    #    tiles straddle the grid
    ptr = np.asarray(profile.blockptr, dtype=np.int64)
    wide = np.flatnonzero(np.diff(ptr) >= min_edge)
    for lo, hi in zip(ptr[wide].tolist(), ptr[wide + 1].tolist()):
        accept(lo, lo, hi - lo, hi - lo)

    # 2) greedy maximal rectangles over the dense tiles, row-major.
    #    Requiring >= 2x2 tiles keeps a narrow band out: its diagonal tiles
    #    may be individually dense but their off-diagonal neighbors never are.
    for ti, tj in np.argwhere(densetile).tolist():
        if used[ti, tj]:
            continue
        j2 = tj
        while j2 + 1 < tw and densetile[ti, j2 + 1] and not used[ti, j2 + 1]:
            j2 += 1
        i2 = ti
        while (
            i2 + 1 < th
            and densetile[i2 + 1, tj : j2 + 1].all()
            and not used[i2 + 1, tj : j2 + 1].any()
        ):
            i2 += 1
        r0, c0 = ti * t, tj * t
        accept(r0, c0, min(n, (i2 + 1) * t) - r0, min(m, (j2 + 1) * t) - c0)
    return accepted


def _residual_pricing(rows: np.ndarray, model: CostModel) -> tuple[str, float, float]:
    """(format, stored, segments) of a skew/remainder region whose entries
    lie in ``rows``: the residual format the model prices lowest
    (deterministic tie-break on the format name)."""
    row_max = int(np.bincount(rows).max()) if len(rows) else 0
    best = None
    for name in sorted(_RESIDUAL_FORMATS):
        segments = float(row_max) if name == "JDiag" else 0.0
        pred = model.price(name, float(len(rows)), segments)
        if best is None or pred < best[0]:
            best = (pred, name, segments)
    return best[1], float(len(rows)), best[2]


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
    owner = np.full(nnz, -1, dtype=np.int8)

    def claim(entries, kind: str, name: str | None = None, **fields) -> None:
        """The ``entries`` of ``coo`` (mask or positions) become the next
        region; with no ``name``, in the cheapest residual format."""
        if name is None:
            name, fields["stored"], fields["segments"] = _residual_pricing(coo.row[entries], model)
        owner[entries] = len(regions)
        regions.append(Region(kind, name, coo, owner, len(regions), **fields))

    with span("specialize.partition", shape=(n, m), nnz=nnz):
        if nnz == 0:
            regions.append(Region("remainder", "Coordinate", coo, owner, 0, detail="empty matrix"))
            return RegionPartition((n, m), nnz, tuple(regions), profile)

        # --- dense windows -------------------------------------------
        windows = _find_dense_windows(coo, profile)
        if windows:
            claim(
                np.concatenate([coo.window_entries(*window) for window in windows]),
                "dense",
                "DenseBlocks",
                detail=(
                    f"{len(windows)} dense windows: "
                    + ", ".join(f"{h}x{w}@({r0},{c0})" for r0, c0, h, w in windows)
                ),
                stored=float(sum(h * w for _, _, h, w in windows)),
                segments=float(len(windows)),
                windows=tuple(windows),
            )

        # --- skew rows -----------------------------------------------
        rem = owner < 0
        if rem.any():
            rcounts = np.bincount(coo.row[rem], minlength=n)
            nonempty = rcounts[rcounts > 0]
            mean = float(nonempty.mean()) if len(nonempty) else 0.0
            thresh = max(SKEW_MIN, SKEW_FACTOR * mean)
            hubs = np.flatnonzero(rcounts >= thresh)
            if len(hubs) and len(hubs) <= MAX_SKEW_ROW_FRAC * max(
                1, len(nonempty)
            ):
                claim(
                    rem & np.isin(coo.row, hubs),
                    "skew",
                    detail=(
                        f"{len(hubs)} hub rows >= {thresh:.0f} entries "
                        f"(remaining mean {mean:.1f})"
                    ),
                )

        # --- band diagonal runs --------------------------------------
        rem = owner < 0
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
                claim(
                    np.flatnonzero(rem)[dense_run[inverse]],
                    "band",
                    "Diagonal",
                    detail=(
                        f"{int(dense_run.sum())} dense diagonal runs, "
                        f"offsets {offsets[dense_run].min()}..."
                        f"{offsets[dense_run].max()}"
                    ),
                    stored=float(runlen[dense_run].sum()),
                    segments=float(dense_run.sum()),
                )

        # --- remainder ------------------------------------------------
        rem = owner < 0
        if rem.any() or not regions:
            claim(rem, "remainder", detail=f"{int(rem.sum())} residual entries")
    return RegionPartition((n, m), nnz, tuple(regions), profile)


# ----------------------------------------------------------------------
# the composed plan: one program, one statement per region
# ----------------------------------------------------------------------
def _validate_decomposable(source: str, name: str) -> Program:
    """Reject sources whose execution would not decompose region-wise;
    returns the parsed program.

    Safe statements are ``+=`` reductions each of whose additive terms
    (as :func:`split_statement` splits them) reads the hybrid array
    exactly once as a factor, i.e. has the sparsity predicate
    ``NZ(A(..))`` (paper Eq. 3): such a term contributes only at stored
    entries, the regions partition the entries, and the padding zeros a
    region format stores contribute nothing.  A term without the array
    would run once *per region*, and a ``*``/``min``/``max`` reduction
    would see the padding zeros.
    """
    from repro.compiler.parser import parse

    program = parse(source)
    for stmt in program.body:
        if not (
            stmt.reduce
            and stmt.op == "+"
            and stmt.target.array != name
            and all(
                sum(r.array == name for r in term.expr.refs()) == 1
                and isinstance(sparsity_predicate(term.expr, {name}), NZ)
                for term in split_statement(stmt)
            )
        ):
            raise CompileError(
                "hybrid decomposition requires every statement to be a "
                f"'+=' reduction whose every additive term reads {name!r} "
                f"exactly once as a factor; got {stmt!r}"
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


@dataclass(frozen=True)
class Candidate:
    """One auto-planner candidate: a priced region partition.

    A single-format candidate is the one-region case, one ``"whole"``
    region bound as ``A``; ``"Hybrid"`` is :func:`partition_regions`'
    split, its regions bound as ``A0``, ``A1``, ….  Both are priced by
    :meth:`CostModel.price` per region, and both are built and compiled by
    the same code from the matrix passed in.  ``feasible`` is structural
    (a split needs two non-empty regions, or it is a single-format plan
    with extra steps); whether a candidate wins is the auto-planner's call.
    """

    format_name: str
    partition: RegionPartition = field(compare=False, repr=False)
    region_predictions: tuple[float, ...]
    feasible: bool
    note: str = ""  # why infeasible / structural commentary
    model_source: str = "default"

    @property
    def predicted_seconds(self) -> float:
        return float(sum(self.region_predictions)) if self.region_predictions else float("inf")

    @property
    def work_units(self) -> float:
        """Stored slots plus weighted segment loops, over every region."""
        return float(sum(r.stored + SEGMENT_WEIGHT * r.segments for r in self.partition.regions))

    @property
    def split(self) -> bool:
        """Whether the regions label entries rather than hold them all."""
        return any(r.owner is not None for r in self.partition.regions)

    def build(self, coo=None):
        """The regions of ``coo`` (default: the planned matrix) in their
        formats: one Format, or a tuple in partition order for a split.
        A split labels the canonical entries of ``coo``, so a structure
        other than the planned one raises :class:`CompileError`."""
        regions = self.partition.regions
        if coo is not None:
            coo = coo if isinstance(coo, COOMatrix) else coo.to_coo()
            if self.split:
                coo, planned = coo.canonicalized(), regions[0].source
                if coo is not planned and not (
                    coo.shape == planned.shape
                    and np.array_equal(coo.row, planned.row)
                    and np.array_equal(coo.col, planned.col)
                ):
                    raise CompileError("a split plan builds only the structure it was planned on")
            regions = [replace(r, source=coo) for r in regions]
        built = tuple(r.build(self.partition.profile) for r in regions)
        return built if self.split else built[0]

    def program(self, built, source=None, name: str = "A", extra: Mapping[str, Format] | None = None):
        """``(source, formats)`` over ``built`` (from :meth:`build`) bound
        as ``name``, a split rewritten by :func:`split_source`.  ``source``
        defaults to the SpMV nest and ``extra``, the other arrays, to dense
        ``X``/``Y`` shaped to the matrix."""
        from repro.kernels.spmv import SPMV_SRC

        source = SPMV_SRC if source is None else source
        if extra is None:
            n, m = (built[0] if self.split else built).shape
            extra = {"X": DenseVector(np.zeros(m)), "Y": DenseVector.zeros(n)}
        if self.split:
            return split_source(source, name, built, extra)
        return source, {name: built, **extra}

    def compile(self, coo=None, source: str | None = None, name: str = "A", extra=None, **kwargs):
        """One :func:`compile_kernel` of :meth:`program` over the regions
        of ``coo``; returns ``(kernel, formats)``, the formats usable as
        the call arguments."""
        from repro.compiler.kernels import compile_kernel

        program, formats = self.program(self.build(coo), source, name, extra)
        return compile_kernel(program, formats, **kwargs), formats

    def describe(self) -> str:
        lines = [
            f"{self.format_name.lower()} plan: {len(self.partition.regions)} regions, "
            f"predicted {self.predicted_seconds * 1e6:.1f} µs/call (cost model: {self.model_source})",
            "  summation order is the region order below (one kernel unit per region; bitwise-reproducible)",
        ]
        for region, pred in zip(self.partition.regions, self.region_predictions):
            lines.append(
                f"    {region.kind:<9s} {region.format_name:<11s} "
                f"nnz={region.nnz:<8d} stored={region.stored:>10.0f} "
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


def price_partition(
    name: str, partition: RegionPartition, model: CostModel, feasible: bool, note: str = ""
) -> Candidate:
    """``partition`` as candidate ``name``, every region charged its own
    α plus β times its stored slots and weighted segment loops."""
    preds = tuple(model.price(r.format_name, r.stored, r.segments) for r in partition.regions)
    return Candidate(name, partition, preds, feasible, note, model.source)


def plan_format(coo: COOMatrix, profile, model: CostModel, name: str) -> Candidate:
    """Format ``name`` over all of ``coo``: one ``"whole"`` region, charged
    the slots the format allocates (padding and fill included) and its
    outer segments (weights fitted to the deleted numpy tier, kept until
    the planner is re-priced)."""
    p = profile
    stored, segments = {
        "CRS": (p.nnz, 0),
        "CCS": (p.nnz, p.ncols),  # column-driven scatter loops per column
        "Coordinate": (p.nnz, 0),
        "ITPACK": (p.ell_stored, 0),
        "JDiag": (p.nnz, p.row_max),
        "Diagonal": (p.diag_stored, p.ndiags),
        "BlockDiag": (p.block_stored, p.nblocks),
        "Inode": (p.nnz, p.ninodes),
        "Dense": (p.nrows * p.ncols, 0),
    }[name]
    whole = Region("whole", name, coo, None, 0, "every entry", float(stored), float(segments))
    partition = RegionPartition(coo.shape, p.nnz, (whole,), p)
    return price_partition(name, partition, model, *_feasibility(p, name))


def plan_hybrid(coo, profile=None, model: CostModel | None = None) -> Candidate:
    """Partition ``coo`` and price the split region by region."""
    model = model or CostModel()
    partition = partition_regions(coo, profile=profile, model=model)
    regions = partition.regions
    if sum(1 for r in regions if r.nnz > 0) >= 2:
        return price_partition("Hybrid", partition, model, True, "regions: " + "+".join(r.kind for r in regions))
    return price_partition(
        "Hybrid", partition, model, False, "structure is not separable (fewer than 2 non-empty regions)"
    )
