"""The Bernoulli compiler core (paper Sections 2 and 3).

Pipeline:

1. :mod:`~repro.compiler.parser` — parse a dense DOANY loop nest written in
   a small textual language (``for i in 0:n { ... }``) into the AST of
   :mod:`~repro.compiler.ast_nodes`.
2. :mod:`~repro.compiler.sparsity` — Bik–Wijshoff zero-propagation derives
   the sparsity predicate of each statement (paper Eq. 3) and splits
   additive statements so every piece has a purely conjunctive predicate.
3. :mod:`~repro.compiler.query_extract` — each statement becomes a
   relational query (paper Eq. 4): iteration relation ⋈ one term per array
   reference, selected by the predicate.
4. :mod:`~repro.compiler.scheduling` — the query optimizer: pick the
   *driver* relation that enumerates its stored entries and the access
   mode (dense lookup / sparse search) for every other term, using the
   access-method properties and a cost model.
5. :mod:`~repro.compiler.codegen` — emit Python source for the chosen
   plan through the lowering strategies of the named *executor backend*
   (``codegen.STRATEGIES``: ``"interpreted"`` is the scalar nest;
   ``"vectorized"`` the numpy segmented/block-gemv/vectorized/
   reduce-scatter lowerings with per-statement scalar fallback), compile
   it, and wrap it in a
   :class:`~repro.compiler.kernels.CompiledKernel`.  Compiled kernels are
   cached in a :mod:`~repro.compiler.plan_cache` keyed on the loop nest,
   the format specs and the sparsity predicates.

Above the pipeline, :mod:`~repro.compiler.autoplan` picks the formats.
Every candidate is a priced region partition
(:class:`~repro.compiler.specialize.Candidate`): a single format is one
whole region, ``"Hybrid"`` a split into regions.

Everything is format-agnostic: the planner and code generator speak only
the access-method protocol of :mod:`repro.formats.base`, so user-defined
formats compile without compiler changes (``examples/custom_format.py``).
"""

from repro.compiler.ast_nodes import (
    Assign,
    BinOp,
    LoopSpec,
    Num,
    Program,
    Ref,
    Scalar,
)
from repro.compiler.parser import parse
from repro.compiler.sparsity import sparsity_predicate, split_statement
from repro.compiler.query_extract import extract_query
from repro.compiler.scheduling import plan_query, Plan, TermAccess
from repro.compiler.codegen import get_backend
from repro.compiler.kernels import (
    CompiledKernel,
    compile_kernel,
    clear_kernel_cache,
    kernel_cache_stats,
)
from repro.compiler.autoplan import (
    AutoPlan,
    CostModel,
    autoplan,
    autoplan_spmv,
)
from repro.compiler.specialize import (
    Candidate,
    Region,
    RegionPartition,
    partition_regions,
    plan_hybrid,
)

__all__ = [
    "parse",
    "Program",
    "LoopSpec",
    "Assign",
    "Ref",
    "Scalar",
    "Num",
    "BinOp",
    "sparsity_predicate",
    "split_statement",
    "extract_query",
    "plan_query",
    "Plan",
    "TermAccess",
    "get_backend",
    "CompiledKernel",
    "compile_kernel",
    "clear_kernel_cache",
    "kernel_cache_stats",
    "AutoPlan",
    "CostModel",
    "autoplan",
    "autoplan_spmv",
    "Candidate",
    "Region",
    "RegionPartition",
    "partition_regions",
    "plan_hybrid",
]
