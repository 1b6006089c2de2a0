"""SweepSpec validation: grid-naming errors and duplicate-axis rejection."""

import pytest

from repro.engine import SweepSpec, grid_from_dict


def _spec(config=None, heur=None):
    return SweepSpec(config_grid=grid_from_dict(config or {}),
                     heur_grid=grid_from_dict(heur or {}))


def test_valid_spec_passes():
    _spec(config={"fetch_width": (2, 4)},
          heur={"speculation_bias": (0.5, 0.8)}).validate()


def test_unknown_config_field_names_grid_and_field():
    with pytest.raises(ValueError) as exc:
        _spec(config={"warp_core": (1,)}).validate()
    msg = str(exc.value)
    assert "config_grid" in msg
    assert "MachineConfig" in msg
    assert "warp_core" in msg


def test_unknown_heur_field_names_grid_and_field():
    with pytest.raises(ValueError) as exc:
        _spec(heur={"warp_core": (1,)}).validate()
    msg = str(exc.value)
    assert "heur_grid" in msg
    assert "FeedbackHeuristics" in msg
    assert "warp_core" in msg


def test_predictor_axis_rejected_with_grid_name():
    with pytest.raises(ValueError, match="config_grid.*predictor"):
        _spec(config={"predictor": ("perfect",)}).validate()


def test_duplicate_within_one_grid_rejected():
    spec = SweepSpec(heur_grid=(("min_gain", (0.0,)),
                                ("min_gain", (1.0,))))
    with pytest.raises(ValueError) as exc:
        spec.validate()
    msg = str(exc.value)
    assert "duplicate sweep axis" in msg
    assert "min_gain" in msg
    assert "appears twice in heur_grid" in msg


def test_field_namespaces_currently_disjoint():
    """No field name is shared between the two grids' dataclasses today;
    if one ever appears, the cross-grid duplicate error (below) is what
    users will see instead of a silent override."""
    from dataclasses import fields

    from repro.core.heuristics import FeedbackHeuristics
    from repro.sim.config import MachineConfig

    config_names = {f.name for f in fields(MachineConfig)}
    heur_names = {f.name for f in fields(FeedbackHeuristics)}
    assert not (config_names & heur_names)


def test_same_name_across_both_grids_rejected(monkeypatch):
    """The cross-grid branch: a name valid in both grids is rejected
    with a message naming both grids (exercised by widening the known
    field sets, since the real dataclasses are disjoint today)."""
    import repro.engine.sweep as sweep_mod

    real_fields = sweep_mod.dc_fields

    class _Fake:
        name = "shared_knob"

    def fake_fields(cls):
        return list(real_fields(cls)) + [_Fake]

    monkeypatch.setattr(sweep_mod, "dc_fields", fake_fields)
    spec = SweepSpec(config_grid=(("shared_knob", (1,)),),
                     heur_grid=(("shared_knob", (2,)),))
    with pytest.raises(ValueError) as exc:
        spec.validate()
    msg = str(exc.value)
    assert "duplicate sweep axis" in msg
    assert "appears in both config_grid and heur_grid" in msg


def test_error_not_raised_deep_in_worker():
    """run_sweep surfaces the validation error before any evaluation."""
    from repro.engine.sweep import run_sweep

    with pytest.raises(ValueError, match="heur_grid"):
        run_sweep(_spec(heur={"bogus": (1,)}))
