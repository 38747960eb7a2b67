"""The auto-planner: ranking sanity, feasibility, a cwd-independent
default cost model, explain() wiring, and the one-stop ``autoplan_spmv``
entry point."""

import json

import numpy as np
import pytest

from repro.compiler import autoplan, autoplan_spmv
from repro.compiler.autoplan import CANDIDATE_FORMATS, CostModel
from repro.errors import CompileError, FormatError, ReproError
from repro.formats import COOMatrix, DenseVector
from repro.observability import explain
from tests.conftest import case_rng
from tests.generators import STRUCTURE_CLASSES, integer_vector


def test_ranking_is_sorted_and_choice_is_cheapest_feasible():
    coo = STRUCTURE_CLASSES["banded"](case_rng(10), 64)
    plan = autoplan(coo)
    costs = [c.predicted_seconds for c in plan.candidates]
    assert costs == sorted(costs)
    best = next(c for c in plan.candidates if c.feasible)
    assert plan.format_name == best.format_name
    assert plan.predicted_seconds == best.predicted_seconds
    assert plan.predicted_seconds <= plan.predicted_worst
    # every registered candidate format was weighed, plus the composed
    # region-specialized plan
    assert {c.format_name for c in plan.candidates} == (
        set(CANDIDATE_FORMATS) | {"Hybrid"}
    )


def test_blockdiag_is_infeasible_on_rectangular_matrices():
    rect = COOMatrix.from_entries((6, 9), [0, 3, 5], [1, 8, 2], [1.0, 2.0, 3.0])
    plan = autoplan(rect)
    bd = [c for c in plan.candidates if c.format_name == "BlockDiag"]
    assert bd and not any(c.feasible for c in bd)
    assert plan.format_name != "BlockDiag"
    assert plan.build(rect).shape == (6, 9)


def test_build_materializes_the_chosen_format():
    coo = STRUCTURE_CLASSES["diagonal"](case_rng(11), 80)
    plan = autoplan(coo)
    fmt = plan.build(coo)
    assert plan.built_name == plan.format_name
    assert np.array_equal(fmt.to_coo().to_dense(), coo.to_dense())


def test_explain_narrates_profile_and_ranking():
    coo = STRUCTURE_CLASSES["banded"](case_rng(12), 64)
    plan = autoplan(coo)
    text = explain(plan)
    assert "structure profile" in text
    assert "auto-plan" in text and plan.format_name in text
    assert "candidates (cheapest first)" in text
    assert "<- chosen" in text
    assert text == plan.describe() == plan.explain()


@pytest.mark.parametrize("where", ["repo-root", "tmp"])
def test_default_model_does_not_depend_on_cwd(where, tmp_path, monkeypatch):
    """``autoplan`` reads nothing relative to cwd: the default model is
    the same from the repo root and from an empty directory."""
    import inspect
    import pathlib

    root = pathlib.Path(__file__).resolve().parents[2]
    monkeypatch.chdir(root if where == "repo-root" else tmp_path)
    coo = STRUCTURE_CLASSES["banded"](case_rng(13), 64)
    plan = autoplan(coo)
    assert plan.model_source == "default"
    assert plan.candidates == autoplan(coo, model=CostModel()).candidates
    assert "history" not in inspect.signature(autoplan).parameters


def test_calibrated_model_changes_the_choice(tmp_path):
    coo = STRUCTURE_CLASSES["banded"](case_rng(13), 64)
    # a model where only Diagonal is cheap must pick Diagonal
    skew = {name: 1.0 for name in CANDIDATE_FORMATS}
    skew["Diagonal"] = 1e-9
    model = CostModel(beta=skew, source="rigged")
    plan = autoplan(coo, model=model)
    assert plan.format_name == "Diagonal"
    assert plan.model_source == "rigged"


def test_autoplan_spmv_matches_dense_product():
    rng = case_rng(14)
    coo = STRUCTURE_CLASSES["hybrid"](rng, 48)
    x = integer_vector(rng, 48)
    y, plan = autoplan_spmv(coo, x=x)
    assert np.array_equal(y, coo.to_dense() @ x)
    assert plan.built_name is not None


def test_candidate_lookup_and_unknown_candidate_error():
    coo = STRUCTURE_CLASSES["uniform"](case_rng(15), 32)
    plan = autoplan(coo)
    c = plan.candidate("CRS")
    assert c.format_name == "CRS"
    with pytest.raises(CompileError):
        plan.candidate("NoSuchFormat")


def test_plan_to_dict_is_json_serializable():
    coo = STRUCTURE_CLASSES["symmetric"](case_rng(16), 40)
    plan = autoplan(coo)
    doc = json.loads(json.dumps(plan.to_dict()))
    assert doc["format"] == plan.format_name
    assert len(doc["candidates"]) == len(plan.candidates)
    assert doc["profile"]["nnz"] == plan.profile.nnz


@pytest.mark.parametrize("path", ["compile", "foreign-profile"])
def test_blockdiag_plan_never_drops_entries_outside_its_partition(path):
    """A BlockDiag build over a matrix with an entry outside the planned
    diagonal-block partition raises, and the plan falls back down the
    ranking instead of silently dropping that entry.  A profile taken
    without that entry is refused up front: it does not describe the
    matrix."""
    n = 200
    planned = STRUCTURE_CLASSES["block_diag"](np.random.default_rng(0), n)
    model = CostModel(alpha={"BlockDiag": 0.0}, beta={"BlockDiag": 1e-12})
    coo = COOMatrix.from_entries(
        (n, n), np.r_[planned.row, 0], np.r_[planned.col, n - 1], np.r_[planned.vals, 1.0]
    )
    if path == "foreign-profile":
        with pytest.raises(ReproError, match="the profile describes a 200x200 matrix"):
            autoplan(coo, model=model, profile=autoplan(planned).profile)
        return
    plan = autoplan(planned, model=model)
    assert plan.format_name == "BlockDiag"
    x = np.arange(1.0, n + 1)
    kernel, formats = plan.compile(coo)
    formats["X"] = DenseVector(x.copy())
    formats["Y"] = DenseVector.zeros(n)
    kernel(**formats)
    assert np.array_equal(formats["Y"].vals, coo.to_dense() @ x)
    assert plan.built_name != "BlockDiag"
    with pytest.raises(FormatError):
        plan.candidate("BlockDiag").build(coo)
