"""Fact compilation over windows and sliding windows."""

import math

import pytest

from scenelogic.facts import CompilerConfig, UndeclaredCategory, compile_window
from scenelogic.fol import Const, Literal
from scenelogic.inference import saturate
from scenelogic.scene import build_window, windows
from scenelogic.tracking import link_window

from conftest import linear_track, make_sequence


def lit(pred, *names):
    return Literal(pred, tuple(Const(n) for n in names))


def compiled(objects, rules, n=10, cfg=CompilerConfig(), mode="oracle"):
    seq = make_sequence(objects, n=n)
    w = build_window(seq.frames, seq.intrinsics)
    tracks = link_window(w, mode)
    return compile_window(w, tracks, cfg, rules)


def test_stationary_vehicle_has_no_moves_and_derives_stopped(rules):
    wf = compiled({"vehicle01": {"category": "Vehicle",
                         "track": linear_track((0.8, 12.0), (0.0, 0.0))}}, rules)
    assert lit("Moves", "vehicle01") not in wf.facts
    sat = saturate(wf.facts, rules)
    assert lit("Stopped", "vehicle01") in sat


def test_steady_vehicle_derives_constant_speed(rules):
    wf = compiled({"vehicle01": {"category": "Vehicle",
                         "track": linear_track((0.8, 9.0), (0.0, 6.0))}}, rules)
    assert lit("Moves", "vehicle01") in wf.facts
    assert lit("SpeedUp", "vehicle01") not in wf.facts
    assert lit("SpeedDown", "vehicle01") not in wf.facts
    sat = saturate(wf.facts, rules)
    assert lit("ConstantSpeed", "vehicle01") in sat


def test_closing_pair_derives_collide(rules):
    objects = {
        "vehicle01": {"category": "Vehicle",
                   "track": linear_track((0.5, 7.0), (0.0, 23.0 / 3.0))},
        "vehicle02": {"category": "Vehicle",
                   "track": linear_track((0.5, 14.2), (0.0, 0.0))},
    }
    wf = compiled(objects, rules)
    assert lit("DistanceDecreases", "vehicle01", "vehicle02") in wf.facts
    assert lit("DistanceDecreasesToZero", "vehicle01", "vehicle02") in wf.facts
    sat = saturate(wf.facts, rules)
    assert lit("Collide", "vehicle01", "vehicle02") in sat
    assert lit("GettingCloser", "vehicle01", "vehicle02") in sat


def test_approach_without_contact_does_not_collide(rules):
    objects = {
        "pedestrian01": {"category": "Pedestrian", "width": 0.6, "height": 1.7,
                   "track": linear_track((-5.2, 14.0), (3.0, 0.0))},
        "vehicle01": {"category": "Vehicle",
                   "track": linear_track((0.5, 14.0), (0.0, 0.0))},
    }
    wf = compiled(objects, rules)
    assert lit("DistanceDecreases", "pedestrian01", "vehicle01") in wf.facts
    assert lit("DistanceDecreasesToZero", "pedestrian01", "vehicle01") not in wf.facts
    sat = saturate(wf.facts, rules)
    assert lit("Collide", "pedestrian01", "vehicle01") not in sat


def test_speed_change_facts(rules):
    def accel_track(z0, v0, a, n=10, fps=10.0):
        return [(0.8, z0 + v0 * t + 0.5 * a * t * t)
                for t in (i / fps for i in range(n))]

    wf = compiled({"vehicle01": {"category": "Vehicle", "track": accel_track(9.0, 4.0, 6.0)}},
                  rules)
    assert lit("SpeedUp", "vehicle01") in wf.facts
    wf2 = compiled({"vehicle01": {"category": "Vehicle", "track": accel_track(9.0, 10.0, -6.0)}},
                   rules)
    assert lit("SpeedDown", "vehicle01") in wf2.facts


def test_position_thirds_are_exclusive(rules):
    objects = {
        "pedestrian01": {"category": "Pedestrian", "width": 0.6, "height": 1.7,
                 "track": linear_track((-4.4, 11.0), (0.0, 0.0))},
        "vehicle01": {"category": "Vehicle", "track": linear_track((0.5, 12.0), (0.0, 0.0))},
        "vehicle02": {"category": "Vehicle", "track": linear_track((3.6, 9.0), (0.0, 0.0))},
    }
    wf = compiled(objects, rules)
    for name in ("pedestrian01", "vehicle01", "vehicle02", "building01",
                 "building02", "pole01"):
        flags = [p for p in ("AtLeft", "AtCenter", "AtRight")
                 if lit(p, name) in wf.facts]
        assert len(flags) == 1, name
    assert lit("AtLeft", "pedestrian01") in wf.facts
    assert lit("AtRight", "vehicle02") in wf.facts


def test_close_to_camera_threshold(rules):
    near = compiled({"vehicle01": {"category": "Vehicle",
                           "track": linear_track((0.8, 8.0), (0.0, 0.0))}}, rules)
    assert lit("CloseToCamera", "vehicle01") in near.facts
    far = compiled({"vehicle01": {"category": "Vehicle",
                          "track": linear_track((0.8, 18.0), (0.0, 0.0))}}, rules)
    assert lit("CloseToCamera", "vehicle01") not in far.facts


def test_attribute_facts_canonicalized(rules):
    wf = compiled({"vehicle01": {"category": "Vehicle",
                         "track": linear_track((0.8, 12.0), (0.0, 0.0)),
                         "attributes": {"color": "white", "type": "suv"}}}, rules)
    assert lit("ColOfRel", "vehicle01", "White") in wf.facts
    assert lit("TypeOfRel", "vehicle01", "SUV") in wf.facts


def test_distance_facts_are_symmetric(rules):
    objects = {
        "vehicle01": {"category": "Vehicle", "track": linear_track((0.5, 7.0), (0.0, 5.0))},
        "vehicle02": {"category": "Vehicle", "track": linear_track((0.5, 20.0), (0.0, 0.0))},
    }
    wf = compiled(objects, rules)
    for pred in ("DistanceIncreases", "DistanceDecreases", "DistanceDecreasesToZero"):
        for x, y in (("vehicle01", "vehicle02"), ("vehicle02", "vehicle01")):
            assert (lit(pred, x, y) in wf.facts) == (lit(pred, y, x) in wf.facts)


def test_never_both_speedup_and_speeddown(rules):
    from scenelogic.scenarios import KINDS, ScenarioSpec, generate_scenario
    from scenelogic.scene import windows

    for kind in KINDS:
        sc = generate_scenario(ScenarioSpec(kind, seed=23))
        w = windows(sc.sequence, 10)[0]
        wf = compile_window(w, link_window(w, "oracle"), CompilerConfig(), rules)
        names = {str(f.args[0]) for f in wf.facts}
        for name in names:
            assert not (lit("SpeedUp", name) in wf.facts
                        and lit("SpeedDown", name) in wf.facts)
            sat = saturate(wf.facts, rules)
            assert not (lit("Moves", name) in wf.facts
                        and lit("Stopped", name) in sat)


def test_oracle_compile_reproduces_generator_gold_exactly(rules):
    # The condition under which the end-to-end oracle run must be perfect:
    # every emitted fact matches the generator's ground truth, no extras.
    from scenelogic.scenarios import KINDS, ScenarioSpec, generate_scenario
    from scenelogic.scene import windows

    for kind in KINDS:
        for seed in (0, 5):
            sc = generate_scenario(ScenarioSpec(kind, seed))
            w = windows(sc.sequence, 10)[0]
            wf = compile_window(w, link_window(w, "oracle"), CompilerConfig(), rules)
            assert wf.facts.facts == sc.gold_atomic, (
                kind, seed,
                sorted(str(f) for f in wf.facts.facts ^ sc.gold_atomic),
            )


@pytest.mark.parametrize("kw, message", [
    ({"eps_move": math.nan}, "compiler thresholds must be finite"),
    ({"close_depth": math.inf}, "compiler thresholds must be finite"),
    ({"image_width": math.nan}, "compiler thresholds must be finite"),
    ({"eps_speed": 0.0}, "eps_move, eps_speed, eps_contact and close_depth must be positive"),
    ({"trend_frac": 0.0}, "trend_frac must be in (0, 1]"),
    ({"trend_frac": 1.5}, "trend_frac must be in (0, 1]"),
    ({"left_frac": -1}, "left_frac and right_frac must satisfy"),
    ({"right_frac": 3}, "left_frac and right_frac must satisfy"),
    ({"left_frac": 0.5, "right_frac": 0.5}, "left_frac and right_frac must satisfy"),
    ({"image_width": 0}, "image_width must be positive"),
    ({"image_width": -640.0}, "image_width must be positive"),
    ({"eps_move": "x"}, "eps_move must be a number, got 'x'"),
    ({"trend_frac": True}, "trend_frac must be a number, got True"),
    ({"close_depth": None}, "close_depth must be a number, got None"),
    ({"image_width": "640"}, "image_width must be a number, got '640'"),
])
def test_compiler_config_rejects_values_out_of_range(kw, message):
    with pytest.raises(ValueError) as e:
        CompilerConfig(**kw)
    assert str(e.value).startswith(message)


def test_compiler_config_accepts_the_ends_of_its_ranges():
    CompilerConfig(left_frac=0.0, right_frac=1.0, trend_frac=1.0, image_width=640.0)


def test_undeclared_category_is_an_error(rules):
    with pytest.raises(UndeclaredCategory):
        compiled({"mystery01": {"category": "Unicycle",
                        "track": linear_track((0.8, 12.0), (0.0, 0.0))}}, rules)


def test_provenance_carries_numeric_evidence(rules):
    wf = compiled({"vehicle01": {"category": "Vehicle",
                         "track": linear_track((0.8, 9.0), (0.0, 6.0))}}, rules)
    ev = wf.provenance[lit("Moves", "vehicle01")]
    assert ev["displacement_m"] == pytest.approx(5.4, abs=1e-6)


# ---------------------------------------------------------------------------
# Sliding windows
# ---------------------------------------------------------------------------

def _static_world(n):
    return {
        "vehicle01": {"category": "Vehicle", "track": linear_track((0.8, 12.0), (0.0, 0.0), n=n)},
        "pedestrian01": {"category": "Pedestrian", "width": 0.6, "height": 1.7,
                         "track": linear_track((-4.4, 11.0), (0.0, 0.0), n=n)},
    }


def _window_facts(seq, rules):
    """Compiled facts of every stride-1 ten-frame window, by window id."""
    return [compile_window(w, link_window(w, "oracle"), CompilerConfig(), rules)
            for w in windows(seq, 10)]


def test_advance_static_scene_preserves_facts(rules):
    wf, wf2, _ = _window_facts(make_sequence(_static_world(12), n=12), rules)
    assert wf2.window_id == wf.window_id + 1
    assert wf2.facts.facts == wf.facts.facts


def test_advance_drops_object_after_it_leaves(rules):
    n = 14
    world = _static_world(n)
    # Pedestrian only exists in frames 0..3; sliding far enough forgets it.
    world["pedestrian01"]["track"] = linear_track((-4.4, 11.0), (0.0, 0.0), n=n,
                                       hidden=range(4, n))
    wfs = _window_facts(make_sequence(world, n=n), rules)
    assert lit("Pedestrian", "pedestrian01") in wfs[0].facts
    assert lit("Disappears", "pedestrian01") in wfs[0].facts
    assert lit("Pedestrian", "pedestrian01") in wfs[3].facts
    assert lit("Pedestrian", "pedestrian01") not in wfs[4].facts


def test_advance_reports_new_appearance(rules):
    n = 11
    world = _static_world(n)
    world["pedestrian01"]["track"] = linear_track((-4.4, 11.0), (0.0, 0.0), n=n,
                                       hidden=range(0, 10))
    wf, wf2 = _window_facts(make_sequence(world, n=n), rules)
    assert lit("Pedestrian", "pedestrian01") not in wf.facts
    assert lit("Appears", "pedestrian01") in wf2.facts
