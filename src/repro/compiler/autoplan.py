"""Auto-format selection: from structure profile to compiled kernel.

The planner of :mod:`repro.compiler.scheduling` answers "given these
formats, what is the best join order?".  This module answers the question
one level up — *which formats should you be in?* — the way SpComp turns
Table 1's "no single format wins everywhere" into a compilation strategy:

1. :func:`~repro.analysis.structure.analyze_structure` scans the matrix
   into a :class:`~repro.analysis.structure.StructureProfile`,
2. every candidate is a region partition
   (:class:`~repro.compiler.specialize.Candidate`): a registered format
   is one ``"whole"`` region, ``"Hybrid"`` is
   :func:`~repro.compiler.specialize.partition_regions`' split,
3. an α+β cost model (:class:`CostModel`) prices every region alike — α
   is the per-call overhead, β the per-stored-slot cost, with each outer
   segment (diagonal, block, i-node, jagged diagonal) charged a fixed
   equivalent-element weight; the weights were fitted to the deleted
   numpy tier and stay until the planner is re-priced on the C nest,
4. the cheapest feasible candidate wins; the whole ranking is kept on the
   returned :class:`AutoPlan` so ``explain()`` can narrate the decision
   and the property harness can check the choice against the predicted
   *worst* candidate.

The model's constants are the built-in defaults measured on the
reference container.  A calibration is an explicit argument:
``benchmarks/bench_autoplan.py`` measures every fixed format over the
structured generator suite and writes its least-squares (α̂, β̂) per
format under the ``fit`` key of its ``--out`` JSON; a
``CostModel(alpha=..., beta=..., source=...)`` built from those numbers
is passed as ``autoplan(coo, model=...)``.

Every candidate compiles through one
:func:`~repro.compiler.kernels.compile_kernel` call (a split's source has
one statement per region), with the values of the matrix passed to
:meth:`AutoPlan.compile`.  That call passes the profile's
:meth:`~repro.analysis.structure.StructureProfile.fingerprint` as an
``extra_key`` component of the kernel-cache key, so re-analyzing the
same matrix is a pure hit while structurally different matrices of equal
shape and format class never share a cached auto-planned kernel.

Decisions leave a ``runtime.autoplan.*`` metrics and trace footprint
(``runtime.autoplan.analyses`` / ``.choices`` counters, predicted-cost
observations, ``autoplan.analyze`` / ``autoplan.select`` spans).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Callable, Mapping

import numpy as np

from repro.errors import CompileError, FormatError, ReproError
from repro.formats.blockdiag import BlockDiagonalMatrix
from repro.formats.blocks import block_of
from repro.formats.ccs import CCSMatrix
from repro.formats.coo import COOMatrix
from repro.formats.crs import CRSMatrix
from repro.formats.dense import DenseMatrix, DenseVector
from repro.formats.diagonal import DiagonalMatrix
from repro.formats.ell import ELLMatrix
from repro.formats.inode import InodeMatrix
from repro.formats.jdiag import JaggedDiagonalMatrix
from repro.observability import metrics as _metrics
from repro.observability.trace import span

if TYPE_CHECKING:  # pragma: no cover - typing only, avoids an import cycle
    from repro.analysis.structure import StructureProfile
    from repro.compiler.specialize import Candidate

__all__ = [
    "CostModel",
    "AutoPlan",
    "autoplan",
    "autoplan_spmv",
    "CANDIDATE_FORMATS",
]

#: equivalent stored elements charged per outer segment (diagonal /
#: jagged diagonal / block / i-node) — fitted to the deleted numpy tier,
#: where each segment was one µs-scale slice op against ~1 ns per
#: streamed element; kept until the planner is re-priced on the C nest
SEGMENT_WEIGHT = 600.0


def _blockdiag(coo: COOMatrix, p: "StructureProfile") -> BlockDiagonalMatrix:
    """BlockDiag over the profile's partition.  ``from_coo_blocks`` ignores
    off-block entries (its callers split first), so an entry outside the
    partition means ``coo`` is not the structure the profile describes."""
    built = BlockDiagonalMatrix.from_coo_blocks(coo, np.asarray(p.blockptr, dtype=np.int64))
    of = block_of(built.blockptr)
    if np.any(of[coo.row] != of[coo.col]):
        raise FormatError("an entry lies outside the planned diagonal-block partition")
    return built


#: candidate format name -> builder(coo, profile) -> Format instance
CANDIDATE_FORMATS: dict[str, Callable] = {
    "CRS": lambda coo, p: CRSMatrix.from_coo(coo),
    "CCS": lambda coo, p: CCSMatrix.from_coo(coo),
    "Coordinate": lambda coo, p: coo.canonicalized(),
    "ITPACK": lambda coo, p: ELLMatrix.from_coo(coo),
    "JDiag": lambda coo, p: JaggedDiagonalMatrix.from_coo(coo),
    "Diagonal": lambda coo, p: DiagonalMatrix.from_coo(coo),
    "BlockDiag": _blockdiag,
    "Inode": lambda coo, p: InodeMatrix.from_coo(coo),
    "Dense": lambda coo, p: DenseMatrix.from_coo(coo),
}


#: per-call overhead (seconds) of the vectorized lowering, by format —
#: defaults measured on the reference container
DEFAULT_ALPHA: dict[str, float] = {
    "CRS": 2.2e-5,
    "CCS": 2.0e-5,
    "Coordinate": 7.0e-6,
    "ITPACK": 2.0e-5,
    "JDiag": 1.9e-5,
    "Diagonal": 2.0e-5,
    "BlockDiag": 2.0e-5,
    "Inode": 1.5e-5,
    "Dense": 1.0e-5,
    # region-only format (repro.compiler.specialize); never a standalone
    # candidate, but hybrid region pricing reads these maps
    "DenseBlocks": 2.0e-5,
}

#: per-work-unit cost (seconds) of the vectorized lowering, by format
DEFAULT_BETA: dict[str, float] = {
    "CRS": 2.3e-9,
    "CCS": 4.0e-9,
    "Coordinate": 4.3e-9,
    "ITPACK": 1.6e-9,
    "JDiag": 2.9e-9,
    "Diagonal": 3.0e-9,
    "BlockDiag": 3.0e-9,
    "Inode": 4.0e-9,
    "Dense": 2.2e-9,
    # dense windows run through the block-GEMV lowering: contiguous BLAS
    # per window, cheaper per stored slot than any gather-based format
    "DenseBlocks": 8.0e-10,
}


class CostModel:
    """α + β·work cost model over the candidate formats.

    :meth:`price` returns modeled seconds for one SpMV call through the
    vectorized backend.  The default α/β tables and ``SEGMENT_WEIGHT``
    are weights fitted to the deleted numpy tier, kept until the planner
    is re-priced on the C nest that now runs.  The interpreted backend
    (the same nest as Python) is not priced.
    """

    def __init__(
        self,
        alpha: Mapping[str, float] | None = None,
        beta: Mapping[str, float] | None = None,
        source: str = "default",
    ):
        self.alpha = dict(DEFAULT_ALPHA)
        self.alpha.update(alpha or {})
        self.beta = dict(DEFAULT_BETA)
        self.beta.update(beta or {})
        #: provenance: "default", or the caller's label for a fit
        self.source = source

    def price(self, name: str, stored: float, segments: float) -> float:
        """Modeled seconds of one vectorized call in format ``name`` over
        ``stored`` slots and ``segments`` segment loops — the one α+β rule
        every region of every candidate is priced by."""
        return self.alpha[name] + self.beta[name] * (stored + SEGMENT_WEIGHT * segments)


@dataclass
class AutoPlan:
    """The auto-planner's decision for one matrix.

    ``candidates`` is the full ranking, cheapest first — infeasible
    candidates are kept (marked) so :meth:`explain` can narrate the
    rejection, and ``predicted_worst`` anchors the property harness's
    never-worse-than-worst invariant.
    """

    profile: "StructureProfile"
    candidates: tuple["Candidate", ...]
    format_name: str
    predicted_seconds: float
    model_source: str = "default"
    #: candidate actually materialized by :meth:`build` (differs from
    #: ``format_name`` only if the builder raised and a fallback ran)
    built_name: str | None = None

    # ------------------------------------------------------------------
    @property
    def predicted_worst(self) -> float:
        """Highest predicted cost among feasible candidates."""
        costs = [c.predicted_seconds for c in self.candidates if c.feasible]
        return max(costs) if costs else self.predicted_seconds

    def candidate(self, name: str) -> "Candidate":
        for c in self.candidates:
            if c.format_name == name:
                return c
        raise CompileError(f"no candidate {name!r}")

    @property
    def hybrid(self) -> "Candidate | None":
        """The ``"Hybrid"`` candidate (the priced region split), or None
        when partitioning failed outright."""
        hybrid = self.candidate("Hybrid")
        return hybrid if hybrid.partition.regions else None

    # ------------------------------------------------------------------
    def _first_buildable(self, coo):
        """The cheapest feasible candidate whose builders accept ``coo``,
        and what it built (a builder's FormatError moves down the ranking)."""
        coo = coo if isinstance(coo, COOMatrix) else coo.to_coo()
        last_error: FormatError | None = None
        for cand in self.candidates:
            if not cand.feasible:
                continue
            try:
                built = cand.build(coo)
            except FormatError as e:
                last_error = e
                continue
            self.built_name = cand.format_name
            if cand.format_name != self.format_name:
                _metrics.record("runtime.autoplan.build_fallbacks", to=cand.format_name)
            return cand, built
        raise CompileError(f"no candidate format accepts this matrix (last: {last_error})")

    def build(self, coo: COOMatrix):
        """Materialize the chosen candidate over ``coo`` — for a split, the
        region formats in partition order — falling back down the ranking
        if a builder rejects the matrix with FormatError."""
        return self._first_buildable(coo)[1]

    def compile(self, coo: COOMatrix, source: str | None = None, name: str = "A", extra=None, **kwargs):
        """Build the chosen candidate over ``coo`` and compile ``source``
        against it with one :func:`compile_kernel` call; returns ``(kernel,
        formats)`` (see :meth:`~repro.compiler.specialize.Candidate.program`
        for the defaults and a split's ``{name}0``, ``{name}1``, … names).
        The profile fingerprint joins the kernel-cache key.
        """
        from repro.compiler.kernels import compile_kernel

        cand, built = self._first_buildable(coo)
        program, formats = cand.program(built, source, name, extra)
        kwargs.setdefault("extra_key", ("autoplan", self.profile.fingerprint()))
        with span("autoplan.compile", format=self.built_name, fingerprint=self.profile.fingerprint()):
            kernel = compile_kernel(program, formats, **kwargs)
        return kernel, formats

    # ------------------------------------------------------------------
    def describe(self) -> str:
        """The decision, the model, and the full candidate ranking."""
        lines = [self.profile.describe()]
        lines.append(
            f"auto-plan: {self.format_name}, "
            f"predicted {self.predicted_seconds * 1e6:.1f} µs/call "
            f"(cost model: {self.model_source})"
        )
        lines.append("  candidates (cheapest first):")
        for c in self.candidates:
            status = "" if c.feasible else "  [infeasible]"
            chosen = " <- chosen" if c.format_name == self.format_name else ""
            note = f" — {c.note}" if c.note else ""
            lines.append(
                f"    {c.format_name:<10s} "
                f"work={c.work_units:>10.0f}  "
                f"predicted={c.predicted_seconds * 1e6:>8.1f} µs"
                f"{status}{chosen}{note}"
            )
        return "\n".join(lines)

    def explain(self) -> str:
        """Alias for :meth:`describe` (mirrors ``explain(kernel)``)."""
        return self.describe()

    def to_dict(self) -> dict:
        return {
            "profile": self.profile.to_dict(),
            "format": self.format_name,
            "predicted_seconds": self.predicted_seconds,
            "model_source": self.model_source,
            "hybrid": self.hybrid.to_dict() if self.hybrid is not None else None,
            "candidates": [
                {
                    "format": c.format_name,
                    "work_units": c.work_units,
                    "predicted_seconds": c.predicted_seconds,
                    "feasible": c.feasible,
                    "note": c.note,
                }
                for c in self.candidates
            ],
        }


# ----------------------------------------------------------------------
def _feasibility(profile: "StructureProfile", name: str) -> tuple[bool, str]:
    if name == "BlockDiag":
        if profile.nrows != profile.ncols:
            return False, "requires a square matrix"
        if not profile.blockptr:
            return False, "no diagonal-block partition"
        if profile.nblocks < 2:
            # one block spanning the whole matrix is Dense with extra
            # steps — pricing it with a beta fitted on real multi-block
            # matrices badly under-predicts
            return False, "degenerate single-block partition"
    if name == "Dense" and profile.nrows * profile.ncols > 32_000_000:
        return False, "dense storage would exceed the memory budget"
    return True, ""


def autoplan(
    coo,
    model: CostModel | None = None,
    profile: "StructureProfile | None" = None,
) -> AutoPlan:
    """Analyze ``coo`` (any Format; converted through COO) and rank every
    candidate by modeled cost under ``model`` (default: the built-in
    :class:`CostModel`); a given ``profile`` skips the scan."""
    from repro.analysis.structure import analyze_structure
    from repro.compiler.specialize import RegionPartition, plan_format, plan_hybrid, price_partition

    if profile is None:
        profile = analyze_structure(coo)
    if model is None:
        model = CostModel()
    coo = coo if isinstance(coo, COOMatrix) else coo.to_coo()
    candidates = [plan_format(coo, profile, model, name) for name in CANDIDATE_FORMATS]
    # the split competes in the same ranking: per-region α charges mean
    # it only wins when the regions are big enough to amortize the extra
    # dispatches
    try:
        candidates.append(plan_hybrid(coo, profile=profile, model=model))
    except ReproError as e:  # partitioning failed: a split with no regions
        no_regions = RegionPartition(coo.shape, profile.nnz, (), profile)
        candidates.append(price_partition("Hybrid", no_regions, model, False, f"partitioning failed: {e}"))
    candidates.sort(key=lambda c: (c.predicted_seconds, c.format_name))
    best = next(c for c in candidates if c.feasible)
    with span(
        "autoplan.select",
        format=best.format_name,
        predicted_seconds=best.predicted_seconds,
        model=model.source,
    ):
        plan = AutoPlan(
            profile=profile,
            candidates=tuple(candidates),
            format_name=best.format_name,
            predicted_seconds=best.predicted_seconds,
            model_source=model.source,
        )
    _metrics.record("runtime.autoplan.choices", format=best.format_name)
    _metrics.observe(
        "runtime.autoplan.predicted_seconds", best.predicted_seconds
    )
    return plan


def autoplan_spmv(coo, x=None, model: CostModel | None = None, **kwargs):
    """One-stop auto-planned SpMV: returns ``(y, plan)``.

    Analyzes, picks the format, compiles (cache-keyed on the
    structure fingerprint), runs ``y = A·x``, and hands back the plan so
    callers can print ``plan.explain()``.
    """
    plan = autoplan(coo, model=model, **kwargs)
    kernel, formats = plan.compile(coo)
    xv = np.ones(coo.shape[1]) if x is None else np.asarray(x, float)
    formats["X"] = DenseVector(xv.copy())
    formats["Y"] = DenseVector.zeros(coo.shape[0])
    kernel(**formats)
    return formats["Y"].vals, plan
