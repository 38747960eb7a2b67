"""Auto-format selection: from structure profile to compiled kernel.

The planner of :mod:`repro.compiler.scheduling` answers "given these
formats, what is the best join order?".  This module answers the question
one level up — *which formats should you be in?* — the way SpComp turns
Table 1's "no single format wins everywhere" into a compilation strategy:

1. :func:`~repro.analysis.structure.analyze_structure` scans the matrix
   into a :class:`~repro.analysis.structure.StructureProfile`,
2. an α+β cost model (:class:`CostModel`) predicts the per-call SpMV time
   of every registered candidate format — α is the per-call dispatch
   overhead, β the per-stored-slot cost, with python-level segment loops
   (diagonals, blocks, i-nodes, jagged diagonals) charged a fixed
   equivalent-element weight,
3. the cheapest feasible candidate wins; the whole ranking is kept on the
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

Cache interaction: :meth:`AutoPlan.compile` passes the profile's
:meth:`~repro.analysis.structure.StructureProfile.fingerprint` as an
``extra_key`` component of the kernel-cache key, so re-analyzing the
same matrix is a pure hit while structurally different matrices of equal
shape and format class never share a cached auto-planned kernel.

Decisions leave a ``runtime.autoplan.*`` metrics and trace footprint
(``runtime.autoplan.analyses`` / ``.choices`` counters, predicted-cost
observations, ``autoplan.analyze`` / ``autoplan.select`` spans).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Callable, Mapping

import numpy as np

from repro.errors import CompileError, FormatError, ReproError
from repro.formats.base import Format
from repro.formats.blockdiag import BlockDiagonalMatrix
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

__all__ = [
    "CandidateCost",
    "CostModel",
    "AutoPlan",
    "autoplan",
    "autoplan_spmv",
    "CANDIDATE_FORMATS",
]

#: equivalent stored elements charged per python-level segment loop
#: iteration (per diagonal / jagged diagonal / block / i-node) in the
#: vectorized backend — a numpy slice op costs on the order of a µs while
#: streaming an element costs ~1 ns
SEGMENT_WEIGHT = 600.0

#: candidate format name -> builder(coo, profile) -> Format instance
CANDIDATE_FORMATS: dict[str, Callable] = {
    "CRS": lambda coo, p: CRSMatrix.from_coo(coo),
    "CCS": lambda coo, p: CCSMatrix.from_coo(coo),
    "Coordinate": lambda coo, p: coo.canonicalized(),
    "ITPACK": lambda coo, p: ELLMatrix.from_coo(coo),
    "JDiag": lambda coo, p: JaggedDiagonalMatrix.from_coo(coo),
    "Diagonal": lambda coo, p: DiagonalMatrix.from_coo(coo),
    "BlockDiag": lambda coo, p: BlockDiagonalMatrix.from_coo_blocks(
        coo, np.asarray(p.blockptr, dtype=np.int64)
    ),
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

#: per stored-slot cost of the interpreted scalar nest (any format)
DEFAULT_BETA_INTERPRETED = 3.7e-7
DEFAULT_ALPHA_INTERPRETED = 2.5e-4


@dataclass(frozen=True)
class CandidateCost:
    """One (format, backend) candidate with its modeled cost."""

    format_name: str
    backend: str
    work_units: float  # stored slots + weighted segment iterations
    predicted_seconds: float
    feasible: bool
    note: str = ""  # why infeasible / structural commentary


class CostModel:
    """α + β·work cost model over the candidate formats.

    ``predict(profile, name)`` returns modeled seconds for one SpMV call
    through the vectorized backend; ``predict_interpreted`` models the
    scalar reference nest (one shared β — scalar loops do not care about
    layout, only about how many stored slots they visit).
    """

    def __init__(
        self,
        alpha: Mapping[str, float] | None = None,
        beta: Mapping[str, float] | None = None,
        alpha_interpreted: float = DEFAULT_ALPHA_INTERPRETED,
        beta_interpreted: float = DEFAULT_BETA_INTERPRETED,
        source: str = "default",
    ):
        self.alpha = dict(DEFAULT_ALPHA)
        self.alpha.update(alpha or {})
        self.beta = dict(DEFAULT_BETA)
        self.beta.update(beta or {})
        self.alpha_interpreted = float(alpha_interpreted)
        self.beta_interpreted = float(beta_interpreted)
        #: provenance: "default", or the caller's label for a fit
        self.source = source

    # ------------------------------------------------------------------
    @staticmethod
    def segment_loops(profile: "StructureProfile", name: str) -> int:
        """Python-level segment-loop iterations of one SpMV."""
        return {
            "JDiag": profile.row_max,
            "Diagonal": profile.ndiags,
            "BlockDiag": profile.nblocks,
            "Inode": profile.ninodes,
            "CCS": profile.ncols,  # column-driven scatter loops per column
        }.get(name, 0)

    @staticmethod
    def work_units(profile: "StructureProfile", name: str) -> float:
        """Modeled work of one SpMV in stored-slot equivalents."""
        stored = CostModel.stored_slots(profile, name)
        return stored + SEGMENT_WEIGHT * CostModel.segment_loops(profile, name)

    @staticmethod
    def stored_slots(profile: "StructureProfile", name: str) -> float:
        """Stored slots the format allocates (padding and fill included)."""
        return float(
            {
                "CRS": profile.nnz,
                "CCS": profile.nnz,
                "Coordinate": profile.nnz,
                "ITPACK": profile.ell_stored,
                "JDiag": profile.nnz,
                "Diagonal": profile.diag_stored,
                "BlockDiag": profile.block_stored,
                "Inode": profile.nnz,
                "Dense": profile.nrows * profile.ncols,
            }[name]
        )

    def price(self, name: str, stored: float, segments: float) -> float:
        """Modeled seconds of one vectorized call in format ``name`` over
        ``stored`` slots and ``segments`` segment loops — the one α+β rule
        single-format candidates and hybrid regions are both priced by."""
        return self.alpha[name] + self.beta[name] * (stored + SEGMENT_WEIGHT * segments)

    def predict(self, profile: "StructureProfile", name: str) -> float:
        return self.price(
            name, self.stored_slots(profile, name), self.segment_loops(profile, name)
        )

    def predict_interpreted(self, profile: "StructureProfile", name: str) -> float:
        return (
            self.alpha_interpreted
            + self.beta_interpreted * self.stored_slots(profile, name)
        )


@dataclass
class AutoPlan:
    """The auto-planner's decision for one matrix.

    ``candidates`` is the full ranking, cheapest first — infeasible
    candidates are kept (marked) so :meth:`explain` can narrate the
    rejection, and ``predicted_worst`` anchors the property harness's
    never-worse-than-worst invariant.
    """

    profile: "StructureProfile"
    candidates: tuple[CandidateCost, ...]
    format_name: str
    backend: str
    predicted_seconds: float
    model_source: str = "default"
    #: format actually materialized by :meth:`build` (differs from
    #: ``format_name`` only if the builder raised and a fallback ran)
    built_name: str | None = None
    #: the priced region decomposition behind the ``"Hybrid"`` candidate
    #: (:class:`~repro.compiler.specialize.HybridPlan`), or None when
    #: partitioning failed outright
    hybrid: "object | None" = None

    # ------------------------------------------------------------------
    @property
    def predicted_worst(self) -> float:
        """Highest predicted cost among feasible candidates."""
        costs = [c.predicted_seconds for c in self.candidates if c.feasible]
        return max(costs) if costs else self.predicted_seconds

    def candidate(self, name: str, backend: str = "vectorized") -> CandidateCost:
        for c in self.candidates:
            if c.format_name == name and c.backend == backend:
                return c
        raise CompileError(f"no candidate {name!r} with backend {backend!r}")

    # ------------------------------------------------------------------
    def build(self, coo: COOMatrix) -> Format:
        """Materialize the chosen format (falling back down the ranking
        if a builder rejects the matrix with FormatError)."""
        coo = coo if isinstance(coo, COOMatrix) else coo.to_coo()
        last_error: FormatError | None = None
        for cand in self.candidates:
            if not cand.feasible:
                continue
            try:
                if cand.format_name == "Hybrid":
                    if self.hybrid is None:
                        continue
                    fmt = self.hybrid.build()
                else:
                    fmt = CANDIDATE_FORMATS[cand.format_name](coo, self.profile)
            except FormatError as e:
                last_error = e
                continue
            self.built_name = cand.format_name
            if cand.format_name != self.format_name:
                _metrics.record(
                    "runtime.autoplan.build_fallbacks", to=cand.format_name
                )
            return fmt
        raise CompileError(
            f"no candidate format accepts this matrix (last: {last_error})"
        )

    def compile(
        self,
        coo: COOMatrix,
        source: str | None = None,
        name: str = "A",
        extra: Mapping[str, Format] | None = None,
        **kwargs,
    ):
        """Build the chosen format and compile ``source`` against it.

        ``source`` defaults to the SpMV nest; ``extra`` supplies the
        other arrays (defaults: dense ``X``/``Y`` vectors shaped to the
        matrix).  Returns ``(kernel, formats)`` where ``formats`` is the
        full binding map (reusable as the call arguments).  The profile
        fingerprint joins the kernel-cache key.

        When the ``"Hybrid"`` candidate won, compilation delegates to
        :meth:`HybridPlan.compile <repro.compiler.specialize.HybridPlan.compile>`
        — one cached sub-kernel per region, executed in fixed partition
        order by the returned ``HybridKernel``.
        """
        from repro.compiler.kernels import compile_kernel

        if self.format_name == "Hybrid" and self.hybrid is not None:
            self.built_name = "Hybrid"
            kwargs.setdefault(
                "extra_key", ("autoplan", self.profile.fingerprint())
            )
            return self.hybrid.compile(
                source=source, name=name, extra=extra, **kwargs
            )

        if source is None:
            from repro.kernels.spmv import SPMV_SRC

            source = SPMV_SRC
        fmt = self.build(coo)
        formats: dict[str, Format] = {name: fmt}
        if extra is not None:
            formats.update(extra)
        else:
            formats["X"] = DenseVector(np.zeros(fmt.shape[1]))
            formats["Y"] = DenseVector.zeros(fmt.shape[0])
        kwargs.setdefault("backend", self.backend)
        kwargs.setdefault(
            "extra_key", ("autoplan", self.profile.fingerprint())
        )
        with span(
            "autoplan.compile",
            format=type(fmt).__name__,
            backend=kwargs["backend"],
            fingerprint=self.profile.fingerprint(),
        ):
            kernel = compile_kernel(source, formats, **kwargs)
        return kernel, formats

    # ------------------------------------------------------------------
    def describe(self) -> str:
        """The decision, the model, and the full candidate ranking."""
        lines = [self.profile.describe()]
        lines.append(
            f"auto-plan: {self.format_name} via {self.backend} backend, "
            f"predicted {self.predicted_seconds * 1e6:.1f} µs/call "
            f"(cost model: {self.model_source})"
        )
        lines.append("  candidates (cheapest first):")
        for c in self.candidates:
            status = "" if c.feasible else "  [infeasible]"
            chosen = " <- chosen" if (
                c.format_name == self.format_name and c.backend == self.backend
            ) else ""
            note = f" — {c.note}" if c.note else ""
            lines.append(
                f"    {c.format_name:<10s} {c.backend:<11s} "
                f"work={c.work_units:>10.0f}  "
                f"predicted={c.predicted_seconds * 1e6:>8.1f} µs"
                f"{status}{chosen}{note}"
            )
        if self.format_name == "Hybrid" and self.hybrid is not None:
            lines.append(self.hybrid.describe())
        return "\n".join(lines)

    def explain(self) -> str:
        """Alias for :meth:`describe` (mirrors ``explain(kernel)``)."""
        return self.describe()

    def to_dict(self) -> dict:
        return {
            "profile": self.profile.to_dict(),
            "format": self.format_name,
            "backend": self.backend,
            "predicted_seconds": self.predicted_seconds,
            "model_source": self.model_source,
            "hybrid": self.hybrid.to_dict() if self.hybrid is not None else None,
            "candidates": [
                {
                    "format": c.format_name,
                    "backend": c.backend,
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
            # matrices badly under-predicts (the `blockdiag` tag itself
            # requires >= 2 blocks)
            return False, "degenerate single-block partition"
    if name == "Dense" and profile.nrows * profile.ncols > 32_000_000:
        return False, "dense storage would exceed the memory budget"
    return True, ""


def autoplan(
    coo,
    model: CostModel | None = None,
    backends: tuple[str, ...] = ("vectorized", "interpreted"),
    profile: "StructureProfile | None" = None,
) -> AutoPlan:
    """Analyze ``coo`` and rank every candidate format by modeled cost.

    Parameters
    ----------
    coo:
        The matrix (any Format; converted through COO).
    model:
        Cost model; defaults to the built-in :class:`CostModel`.
    backends:
        Backend candidates to weigh, strongest first.
    profile:
        Re-use an existing :class:`StructureProfile` (skips the scan).
    """
    from repro.analysis.structure import analyze_structure

    if profile is None:
        profile = analyze_structure(coo)
    if model is None:
        model = CostModel()
    candidates: list[CandidateCost] = []
    for name in CANDIDATE_FORMATS:
        feasible, note = _feasibility(profile, name)
        for backend in backends:
            if backend == "interpreted":
                pred = model.predict_interpreted(profile, name)
                units = model.stored_slots(profile, name)
            else:
                pred = model.predict(profile, name)
                units = model.work_units(profile, name)
            candidates.append(
                CandidateCost(name, backend, units, pred, feasible, note)
            )

    # the composed region-specialized plan competes in the same ranking:
    # per-region α charges mean it only wins when the regions are big
    # enough to amortize the extra dispatches
    from repro.compiler.specialize import plan_hybrid

    hybrid = None
    try:
        hybrid = plan_hybrid(coo, profile=profile, model=model)
        candidates.append(
            CandidateCost(
                "Hybrid",
                "vectorized",
                hybrid.work_units,
                hybrid.predicted_seconds,
                hybrid.feasible,
                hybrid.note,
            )
        )
    except ReproError as e:  # partitioning failed: rank without hybrid
        candidates.append(
            CandidateCost(
                "Hybrid",
                "vectorized",
                0.0,
                float("inf"),
                False,
                f"partitioning failed: {e}",
            )
        )

    candidates.sort(key=lambda c: (c.predicted_seconds, c.format_name, c.backend))
    best = next(c for c in candidates if c.feasible)
    with span(
        "autoplan.select",
        format=best.format_name,
        backend=best.backend,
        predicted_seconds=best.predicted_seconds,
        tags=list(profile.tags),
        model=model.source,
    ):
        plan = AutoPlan(
            profile=profile,
            candidates=tuple(candidates),
            format_name=best.format_name,
            backend=best.backend,
            predicted_seconds=best.predicted_seconds,
            model_source=model.source,
            hybrid=hybrid,
        )
    _metrics.record(
        "runtime.autoplan.choices", format=best.format_name, backend=best.backend
    )
    _metrics.observe(
        "runtime.autoplan.predicted_seconds", best.predicted_seconds
    )
    return plan


def autoplan_spmv(coo, x=None, model: CostModel | None = None, **kwargs):
    """One-stop auto-planned SpMV: returns ``(y, plan)``.

    Analyzes, picks the format/backend, compiles (cache-keyed on the
    structure fingerprint), runs ``y = A·x``, and hands back the plan so
    callers can print ``plan.explain()``.
    """
    plan = autoplan(coo, model=model, **kwargs)
    kernel, formats = plan.compile(coo)
    xv = np.ones(formats["A"].shape[1]) if x is None else np.asarray(x, float)
    formats["X"] = DenseVector(xv.copy())
    formats["Y"] = DenseVector.zeros(formats["A"].shape[0])
    kernel(**formats)
    return formats["Y"].vals, plan
