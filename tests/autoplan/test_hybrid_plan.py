"""The hybrid candidate inside the auto-planner: ranking, selection,
compilation, caching, and the explain() narrative.

The planner must weigh the composed region-specialized plan alongside
the single-format candidates with the same α+β model — and must be
*steerable*: a model that makes per-region dispatch free forces the
split, a model that makes it exorbitant forbids it.
"""

import numpy as np
import pytest

from repro.compiler import (
    autoplan,
    clear_kernel_cache,
    kernel_cache_stats,
)
from repro.compiler.autoplan import CANDIDATE_FORMATS, CostModel
from repro.compiler.specialize import plan_hybrid
from repro.errors import CompileError
from repro.formats.coo import COOMatrix
from repro.formats.dense import DenseVector
from repro.observability import explain
from tests.conftest import case_rng
from tests.generators import STRUCTURE_CLASSES, integer_vector

ALL_NAMES = sorted(set(CANDIDATE_FORMATS) | {"DenseBlocks"})


def _pro_hybrid_model() -> CostModel:
    """Per-region dispatch free and the window format (which has no
    single-format counterpart in the candidate list) free: on a
    window-dominated matrix the split must win by exactly the slots the
    dense window absorbs."""
    return CostModel(
        alpha={name: 0.0 for name in ALL_NAMES},
        beta=dict({name: 1.0 for name in ALL_NAMES}, DenseBlocks=0.0),
        source="rigged-pro-hybrid",
    )


def _window_plus_scatter(seed: int, n: int = 80):
    """One fully dense 32x32 window plus a thin random scatter — the
    cleanest possible separable structure (regions: dense + remainder)."""
    from repro.formats.coo import COOMatrix

    rng = case_rng(seed)
    rr, cc = np.meshgrid(np.arange(8, 40), np.arange(8, 40), indexing="ij")
    si = rng.integers(0, n, size=n)
    sj = rng.integers(0, n, size=n)
    ii = np.concatenate([rr.ravel(), si])
    jj = np.concatenate([cc.ravel(), sj])
    vals = rng.integers(1, 5, size=len(ii)).astype(float)
    return COOMatrix.from_entries((n, n), ii, jj, vals)


def _anti_hybrid_model() -> CostModel:
    """Per-call dispatch exorbitant: a plan paying k>=2 alphas can never
    beat a plan paying one."""
    return CostModel(
        alpha={name: 1.0 for name in ALL_NAMES},
        source="rigged-anti-hybrid",
    )


def test_hybrid_candidate_is_always_in_the_ranking():
    for cls in ("hybrid", "banded", "uniform"):
        plan = autoplan(STRUCTURE_CLASSES[cls](case_rng(6000), 48))
        names = [c.format_name for c in plan.candidates]
        assert names.count("Hybrid") == 1
        assert plan.hybrid is not None


def test_rigged_model_forces_the_hybrid_choice_and_it_runs_bitwise():
    rng = case_rng(6001)
    n = 80
    coo = _window_plus_scatter(6001, n)
    plan = autoplan(coo, model=_pro_hybrid_model())
    assert plan.format_name == "Hybrid"
    assert plan.model_source == "rigged-pro-hybrid"

    x = integer_vector(rng, n)
    kernel, formats = plan.compile(
        coo, extra={"X": DenseVector(x.copy()), "Y": DenseVector.zeros(n)}
    )
    assert plan.built_name == "Hybrid"
    kernel(**formats)
    want = coo.to_dense() @ x
    assert (formats["Y"].vals + 0.0).tobytes() == (want + 0.0).tobytes()


def test_hybrid_is_never_chosen_when_the_model_says_it_loses():
    rng = case_rng(6002)
    coo = STRUCTURE_CLASSES["hybrid"](rng, 96)
    plan = autoplan(coo, model=_anti_hybrid_model())
    assert plan.format_name != "Hybrid"
    # the candidate is still in the ranking, priced with >= 2 alphas
    hybrid_cand = next(c for c in plan.candidates if c.format_name == "Hybrid")
    if hybrid_cand.feasible:
        assert hybrid_cand.predicted_seconds >= 2.0


def test_single_structure_matrix_is_structurally_infeasible():
    """A pure band never splits into >= 2 regions, so the hybrid
    candidate must be infeasible — not merely expensive."""
    plan = autoplan(STRUCTURE_CLASSES["banded"](case_rng(6003), 64))
    cand = next(c for c in plan.candidates if c.format_name == "Hybrid")
    assert not cand.feasible
    assert plan.format_name != "Hybrid"


def test_explain_narrates_the_region_decomposition():
    coo = _window_plus_scatter(6004)
    plan = autoplan(coo, model=_pro_hybrid_model())
    assert plan.format_name == "Hybrid"
    text = explain(plan)
    assert "<- chosen — regions: " in text
    for region in plan.hybrid.partition.regions:
        assert region.kind in text
    # the decomposition itself explains region by region
    text = explain(plan.hybrid)
    assert "hybrid plan:" in text and "summation order" in text
    for region in plan.hybrid.partition.regions:
        assert region.detail in text
    # the kernel is an ordinary one: a statement, and a tier, per region
    kernel, formats = plan.compile(coo)
    kernel(**formats)
    text = explain(kernel)
    for k in range(len(plan.hybrid.partition.regions)):
        assert f"statement [{k}]: Y[i] += (A{k}[i,j] * X[j])" in text
    assert "\nrun: [0] " in text


def test_hybrid_kernel_is_one_cache_entry():
    rng = case_rng(6005)
    coo = STRUCTURE_CLASSES["hybrid"](rng, 96)
    clear_kernel_cache()
    hybrid = plan_hybrid(coo)
    kernel, _ = hybrid.compile()
    first = kernel_cache_stats()
    assert first["size"] == 1
    assert len(kernel.units) == len(hybrid.partition.regions)

    # same partition again: one pure cache hit, no growth
    again, _ = plan_hybrid(coo).compile()
    second = kernel_cache_stats()
    assert again is kernel
    assert second["size"] == 1 and second["hits"] == first["hits"] + 1

    # other region formats make another program: a miss
    other = plan_hybrid(STRUCTURE_CLASSES["hybrid_blocks"](case_rng(6006), 96))
    assert [type(f) for f in other.build()] != [type(f) for f in hybrid.build()]
    other.compile()
    assert kernel_cache_stats()["size"] == 2


def test_non_reduction_source_is_rejected():
    """A split is legal only for a '+' reduction whose every additive
    term reads A once as a factor: a term without A would run once per
    region, and a '*' or 'min' monoid would see the padding zeros the
    DenseBlocks and Diagonal regions store.  The last three nests pass
    the dependence gate (DOANY, REDUCTION(*), REDUCTION(min))."""
    n = 80
    coo = _window_plus_scatter(6007, n)
    hybrid = plan_hybrid(coo)
    plan = autoplan(coo, model=_pro_hybrid_model())
    assert plan.format_name == "Hybrid"
    vec = lambda: DenseVector.zeros(n)  # noqa: E731
    for body, arrays in (
        ("Y[i] = A[i,j] * X[j]", "XY"),
        ("Y[i] += A[i,j] * X[j] + Z[i]", "XYZ"),
        ("Y[i] = Y[i] * A[i,j]", "Y"),
        ("Y[i] = min(Y[i], A[i,j])", "Y"),
    ):
        source = f"for i in 0:n {{ for j in 0:m {{ {body} }} }}"
        extra = {a: vec() for a in arrays}
        with pytest.raises(CompileError, match="reduction"):
            hybrid.compile(source=source, extra=extra)
        with pytest.raises(CompileError, match="reduction"):
            plan.compile(coo, source=source, extra=extra)


def test_build_materializes_one_format_per_region():
    rng = case_rng(6008)
    coo = STRUCTURE_CLASSES["hybrid"](rng, 64)
    hybrid = plan_hybrid(coo)
    mats = hybrid.build()
    assert len(mats) == len(hybrid.partition.regions)
    for mat, region in zip(mats, hybrid.partition.regions):
        assert mat.shape == coo.shape
        assert type(mat) is type(region.build())
    assert np.array_equal(sum(m.to_coo().to_dense() for m in mats), coo.to_dense())


def test_kernel_rejects_region_formats_of_the_wrong_class_or_count():
    rng = case_rng(6009)
    coo = STRUCTURE_CLASSES["hybrid"](rng, 64)
    kernel, formats = plan_hybrid(coo).compile()
    with pytest.raises(CompileError, match="was compiled for"):
        kernel(**dict(formats, A0=formats["X"]))  # a vector for a region matrix
    short = dict(formats)
    del short["A1"]
    with pytest.raises(CompileError, match="missing array bindings"):
        kernel(**short)
    with pytest.raises(CompileError, match="unexpected array binding"):
        kernel(**dict(formats, A9=formats["A0"]))


def test_region_names_must_not_collide():
    n = 64
    hybrid = plan_hybrid(STRUCTURE_CLASSES["hybrid"](case_rng(6013), n))
    vec = lambda: DenseVector.zeros(n)  # noqa: E731
    with pytest.raises(CompileError, match="region names"):
        hybrid.compile(
            source="for i in 0:n { for j in 0:m { Y[i] += A[i,j] * A0[j] } }",
            extra={"A0": vec(), "Y": vec()},
        )
    with pytest.raises(CompileError, match="region names"):
        hybrid.compile(extra={"X": vec(), "Y": vec(), "A1": vec()})


def test_bound_call_matches_unbound_bitwise():
    rng = case_rng(6011)
    n = 72
    coo = STRUCTURE_CLASSES["hybrid"](rng, n)
    x = integer_vector(rng, n)
    kernel, formats = plan_hybrid(coo).compile()

    formats["X"] = DenseVector(x.copy())
    formats["Y"] = DenseVector.zeros(n)
    kernel(**formats)
    unbound = formats["Y"].vals.copy()

    formats["Y"] = DenseVector.zeros(n)
    bound = kernel.bind(**formats)
    bound()
    assert formats["Y"].vals.tobytes() == unbound.tobytes()
    # rerunning the same binding accumulates again, deterministically
    bound()
    assert formats["Y"].vals.tobytes() == (2 * unbound).tobytes()


def test_plan_to_dict_includes_the_hybrid_decomposition():
    import json

    rng = case_rng(6012)
    plan = autoplan(STRUCTURE_CLASSES["hybrid"](rng, 96))
    doc = json.loads(json.dumps(plan.to_dict()))
    assert doc["hybrid"] is not None
    assert doc["hybrid"]["regions"] == [
        dict(r.summary(), predicted_seconds=p, detail=r.detail)
        for r, p in zip(plan.hybrid.partition.regions, plan.hybrid.region_predictions)
    ]


def test_compile_takes_the_values_of_the_matrix_passed_in():
    """``autoplan(A).compile(B)``, B with A's structure and new values,
    computes B·x whichever candidate won; B arrives in another entry
    order, so the split has to relabel B's canonical entries."""
    n = 80
    A = _window_plus_scatter(6014, n)
    B = COOMatrix.from_entries(A.shape, A.row[::-1], A.col[::-1], 2.0 * A.vals[::-1])
    x = integer_vector(case_rng(6014), n)
    want = (B.to_dense() @ x + 0.0).tobytes()
    assert want != (A.to_dense() @ x + 0.0).tobytes()
    for model, split in ((_pro_hybrid_model(), True), (None, False)):
        plan = autoplan(A, model=model)
        assert (plan.format_name == "Hybrid") is split
        kernel, formats = plan.compile(
            B, extra={"X": DenseVector(x.copy()), "Y": DenseVector.zeros(n)}
        )
        kernel(**formats)
        assert (formats["Y"].vals + 0.0).tobytes() == want


def test_a_split_plan_rejects_another_structure():
    n = 80
    plan = autoplan(_window_plus_scatter(6015, n), model=_pro_hybrid_model())
    assert plan.format_name == "Hybrid"
    other = _window_plus_scatter(6016, n)
    with pytest.raises(CompileError, match="structure"):
        plan.compile(other)
    with pytest.raises(CompileError, match="structure"):
        plan.hybrid.build(other)
