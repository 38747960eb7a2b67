"""The auto-planner: ranking sanity, feasibility, cost-model calibration
pickup from BENCH_history.jsonl, explain() wiring, and the one-stop
``autoplan_spmv`` entry point."""

import json

import numpy as np
import pytest

from repro.compiler import autoplan, autoplan_spmv
from repro.compiler.autoplan import CANDIDATE_FORMATS, CostModel
from repro.errors import CompileError
from repro.formats import COOMatrix
from repro.observability import explain
from tests.conftest import case_rng
from tests.generators import STRUCTURE_CLASSES, integer_vector


def test_ranking_is_sorted_and_choice_is_cheapest_feasible():
    coo = STRUCTURE_CLASSES["banded"](case_rng(10), 64)
    plan = autoplan(coo)
    costs = [c.predicted_seconds for c in plan.candidates]
    assert costs == sorted(costs)
    best = next(c for c in plan.candidates if c.feasible)
    assert (plan.format_name, plan.backend) == (best.format_name, best.backend)
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


def test_cost_model_calibration_is_read_from_history(tmp_path):
    from repro.observability.bench_track import BenchHistory, BenchRecord

    path = tmp_path / "hist.jsonl"
    hist = BenchHistory(str(path))
    hist.append(
        BenchRecord(
            bench="autoplan_calibration",
            value=0.0,
            config={"suite": "unit-test"},
            metrics={
                "alpha.CRS": 1e-3,
                "beta.CRS": 1e-6,
                "beta.__interpreted__": 9e-7,
                "beta.Dense": -1.0,  # invalid: must be ignored
            },
        )
    )
    model = CostModel.from_history(str(path))
    assert model.alpha["CRS"] == 1e-3 and model.beta["CRS"] == 1e-6
    assert model.beta_interpreted == 9e-7
    assert model.beta["Dense"] > 0  # default survived the bad record
    assert model.source.startswith("history[")
    # an absent history falls back to defaults silently
    fallback = CostModel.from_history(str(tmp_path / "missing.jsonl"))
    assert fallback.source == "default"


@pytest.mark.parametrize("where", ["repo-root", "tmp"])
def test_default_model_does_not_depend_on_cwd(where, tmp_path, monkeypatch):
    """The repo root holds a BENCH_history.jsonl with a calibration record;
    ``autoplan`` must not read it (nor anything else relative to cwd)."""
    import inspect
    import pathlib

    root = pathlib.Path(__file__).resolve().parents[2]
    monkeypatch.chdir(root if where == "repo-root" else tmp_path)
    coo = STRUCTURE_CLASSES["banded"](case_rng(13), 64)
    plan = autoplan(coo)
    assert plan.model_source == "default"
    assert plan.candidates == autoplan(coo, model=CostModel()).candidates
    assert "history" not in inspect.signature(autoplan).parameters
    with pytest.raises(TypeError):
        CostModel.from_history()  # a calibration is an explicit path


def test_calibrated_model_changes_the_choice(tmp_path):
    coo = STRUCTURE_CLASSES["banded"](case_rng(13), 64)
    # a model where only Diagonal is cheap must pick Diagonal
    skew = {name: 1.0 for name in CANDIDATE_FORMATS}
    skew["Diagonal"] = 1e-9
    model = CostModel(beta=skew, beta_interpreted=10.0, source="rigged")
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
    assert c.format_name == "CRS" and c.backend == "vectorized"
    with pytest.raises(CompileError):
        plan.candidate("NoSuchFormat")


def test_plan_to_dict_is_json_serializable():
    coo = STRUCTURE_CLASSES["symmetric"](case_rng(16), 40)
    plan = autoplan(coo)
    doc = json.loads(json.dumps(plan.to_dict()))
    assert doc["format"] == plan.format_name
    assert len(doc["candidates"]) == len(plan.candidates)
    assert doc["profile"]["nnz"] == plan.profile.nnz
