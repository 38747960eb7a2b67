"""Cost-model container defaults: every format the planner prices,
including region-only ones, has an α and a β without a calibration."""

from repro.compiler.autoplan import DEFAULT_ALPHA, DEFAULT_BETA, CostModel


def test_denseblocks_has_container_defaults():
    """The region-only format is priced by plan_hybrid straight from the
    defaults; it must never KeyError out of the container maps."""
    assert "DenseBlocks" in DEFAULT_ALPHA and "DenseBlocks" in DEFAULT_BETA
    model = CostModel()
    assert model.alpha["DenseBlocks"] > 0 and model.beta["DenseBlocks"] > 0
