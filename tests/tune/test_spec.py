"""TuneSpec/ParamSpec: validation, serde round-trip, vector application."""

import json

import pytest

from repro.core.heuristics import DEFAULT_HEURISTICS, TUNABLE_PARAMS
from repro.tune import ParamSpec, TuneSpec, apply_params, known_bound


def _spec(**kw):
    kw.setdefault("params", (ParamSpec("speculation_bias"),))
    return TuneSpec(**kw)


# -- ParamSpec --------------------------------------------------------------

def test_registered_bounds_resolve():
    b = ParamSpec("classify.likely_threshold").bound()
    reg = TUNABLE_PARAMS["classify.likely_threshold"]
    assert (b.lo, b.hi, b.kind) == (reg.lo, reg.hi, reg.kind)


def test_narrowed_range_accepted():
    p = ParamSpec("speculation_bias", lo=0.6, hi=0.8)
    p.validate()
    assert p.bound().lo == 0.6


def test_widened_range_rejected():
    with pytest.raises(ValueError, match="exceeds the registered bound"):
        ParamSpec("speculation_bias", lo=0.0, hi=2.0).validate()


def test_unknown_param_rejected():
    with pytest.raises(ValueError, match="unknown tunable parameter"):
        ParamSpec("no_such_knob").validate()


def test_config_axis_resolves():
    assert known_bound("config.fetch_width").kind == "int"


def test_choice_param_subset():
    p = ParamSpec("split_style", choices=("inline",))
    p.validate()
    assert p.bound().choices == ("inline",)
    with pytest.raises(ValueError, match="not in"):
        ParamSpec("split_style", choices=("zigzag",)).validate()


def test_paper_defaults_inside_every_bound():
    """The paper's global values are always admissible candidates."""
    from repro.tune import default_value

    for name, bound in TUNABLE_PARAMS.items():
        value = default_value(name)
        assert bound.clamp(value) == value, name


# -- TuneSpec validation ----------------------------------------------------

def test_empty_params_rejected():
    with pytest.raises(ValueError, match="nothing to search"):
        TuneSpec(params=()).validate()


def test_duplicate_axis_rejected():
    with pytest.raises(ValueError, match="duplicate search axis"):
        _spec(params=(ParamSpec("min_gain"),
                      ParamSpec("min_gain"))).validate()


def test_unknown_benchmark_rejected():
    with pytest.raises(ValueError, match="unknown benchmark"):
        _spec(benchmarks=("nosuch",)).validate()


def test_bad_fidelities_rejected():
    with pytest.raises(ValueError, match="fidelities"):
        _spec(fidelities=(1.0, 0.5)).validate()
    with pytest.raises(ValueError, match="fidelities"):
        _spec(fidelities=(0.25, 0.5)).validate()


def test_tiny_budget_rejected():
    with pytest.raises(ValueError, match="budget"):
        _spec(budget=1).validate()


# -- serde round-trip -------------------------------------------------------

def test_tunespec_roundtrip_through_json():
    spec = TuneSpec(
        params=(ParamSpec("speculation_bias", lo=0.6, hi=0.9),
                ParamSpec("split_style", choices=("inline",)),
                ParamSpec("config.fetch_width")),
        benchmarks=("compress", "grep"), scale=0.25, budget=16, seed=9,
        fidelities=(0.5, 1.0), max_steps=1000, keep=0.25,
        mutation_rate=0.75)
    restored = TuneSpec.from_dict(json.loads(json.dumps(spec.to_dict())))
    assert restored == spec


def test_tunespec_schema_checked():
    from repro.core.serde import SchemaMismatch

    payload = _spec().to_dict()
    payload["schema_version"] = 0
    with pytest.raises(SchemaMismatch):
        TuneSpec.from_dict(payload)


# -- apply_params -----------------------------------------------------------

def test_apply_params_routes_three_namespaces():
    heur, config = apply_params({
        "classify.likely_threshold": 0.9,
        "speculation_bias": 0.7,
        "config.fetch_width": 8,
    })
    assert heur.classify.likely_threshold == 0.9
    assert heur.speculation_bias == 0.7
    assert config == {"fetch_width": 8}
    # untouched knobs keep their paper values
    assert heur.classify.bias_threshold == \
        DEFAULT_HEURISTICS.classify.bias_threshold


def test_apply_params_empty_is_default():
    heur, config = apply_params({})
    assert heur == DEFAULT_HEURISTICS
    assert config == {}


def test_apply_params_rejects_unknown():
    with pytest.raises(ValueError, match="ClassifyConfig"):
        apply_params({"classify.nope": 1})
    with pytest.raises(ValueError, match="MachineConfig"):
        apply_params({"config.nope": 1})
    with pytest.raises(ValueError, match="FeedbackHeuristics"):
        apply_params({"nope": 1})
