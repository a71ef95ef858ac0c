"""Bipartite association, occlusion bridging, and presence flags."""

import math
from itertools import permutations

import numpy as np
import pytest

from scenelogic.scenarios import ScenarioSpec, generate_scenario
from scenelogic.scene import (
    FrameObservation,
    ObjectObservation,
    SceneWindow,
    Sequence,
    box_arrays,
    windows,
)
from scenelogic import tracking
from scenelogic.geometry import Transform2
from scenelogic.tracking import (
    MissingGroundTruthIds,
    TrackerConfig,
    _link_inferred,
    _LiveTrack,
    _weights,
    link_window,
    match_frames,
    ordinal_ids,
    presence,
)

from conftest import INTR, linear_track, make_sequence


def obs(x0, y0, x1, y1, category="Vehicle", flow=None, depth=10.0):
    return ObjectObservation(
        category=category,
        centroid_px=((x0 + x1) / 2, (y0 + y1) / 2),
        bbox=(x0, y0, x1, y1),
        depth_m=depth,
        flow_px=flow,
    )


def identity_window(frames):
    n = len(frames)
    return SceneWindow(Sequence(INTR, tuple(frames)), 0, (Transform2.identity(),) * (n - 1))


# ---------------------------------------------------------------------------
# Association weights
# ---------------------------------------------------------------------------

def weights(left, right, alpha=TrackerConfig.alpha):
    return _weights(box_arrays(left), box_arrays(right), alpha)


def weight(a, b, alpha=TrackerConfig.alpha) -> float:
    return float(weights([a], [b], alpha)[0, 0])


def test_identical_boxes_zero_flow_weight_one():
    a = obs(0, 0, 10, 10, flow=(0.0, 0.0))
    b = obs(0, 0, 10, 10)
    assert weight(a, b) == 1.0


def test_disjoint_boxes_flow_lands_exactly():
    a = obs(0, 0, 10, 10, flow=(100.0, 0.0))
    b = obs(100, 0, 110, 10)
    assert weight(a, b) == pytest.approx(0.5)


def test_disjoint_boxes_no_motion_weight_zero():
    a = obs(0, 0, 10, 10, flow=(0.0, 0.0))
    b = obs(100, 0, 110, 10)
    assert weight(a, b) == 0.0


def test_missing_flow_falls_back_to_raw_iou():
    a = obs(0, 0, 10, 10)
    b = obs(5, 0, 15, 10)
    raw = weight(a, b, alpha=0.0)
    assert raw == pytest.approx(50 / 150)
    assert weight(a, b) == weight(a, b, alpha=1.0) == raw


def test_weight_across_categories_is_zero():
    assert weight(obs(0, 0, 10, 10), obs(0, 0, 10, 10, category="Pedestrian")) == 0.0


# ---------------------------------------------------------------------------
# match_frames
# ---------------------------------------------------------------------------

W_MIN = TrackerConfig.w_min


def test_single_overlapping_pair_matches():
    r = match_frames(weights([obs(0, 0, 10, 10, flow=(1.0, 0.0))], [obs(1, 0, 11, 10)]),
                     W_MIN)
    assert r.assignments[0][:2] == (0, 0)
    assert r.unmatched_left == () and r.unmatched_right == ()


def test_empty_right_side_leaves_all_unmatched():
    r = match_frames(weights([obs(0, 0, 10, 10)], []), W_MIN)
    assert r.assignments == () and r.unmatched_left == (0,)


def test_empty_sides_leave_the_other_side_unmatched():
    r = match_frames(np.zeros((0, 2)), W_MIN)
    assert (r.assignments, r.unmatched_left, r.unmatched_right) == ((), (), (0, 1))
    r = match_frames(np.zeros((0, 0)), W_MIN)
    assert (r.assignments, r.unmatched_left, r.unmatched_right) == ((), (), ())


def test_crossing_objects_disambiguated_by_flow():
    # Two objects heading toward each other; their next boxes overlap each
    # other heavily, but the carried flow lands each on its own continuation.
    a0 = obs(100, 0, 130, 60, flow=(15.0, 0.0))
    b0 = obs(140, 0, 170, 60, flow=(-18.0, 0.0))
    a1 = obs(115, 0, 145, 60)
    b1 = obs(122, 0, 152, 60)
    r = match_frames(weights([a0, b0], [a1, b1]), W_MIN)
    pairing = {i: j for i, j, _ in r.assignments}
    assert pairing == {0: 0, 1: 1}


def test_matching_is_optimal_against_permutation_search():
    rng = np.random.default_rng(5)
    for _ in range(40):
        nl, nr = int(rng.integers(1, 7)), int(rng.integers(1, 7))
        left = [obs(x, 0, x + 20, 20, flow=(0.0, 0.0))
                for x in rng.uniform(0, 120, nl)]
        right = [obs(x, 0, x + 20, 20) for x in rng.uniform(0, 120, nr)]
        w = weights(left, right)
        got = sum(w_ij for _, _, w_ij in match_frames(w, W_MIN).assignments)

        k = min(nl, nr)
        best = 0.0
        for rows in permutations(range(nl), k):
            for cols in permutations(range(nr), k):
                total = sum(w[i, j] for i, j in zip(rows, cols) if w[i, j] >= W_MIN)
                best = max(best, total)
        assert got == pytest.approx(best)


@pytest.mark.parametrize("kw", [
    {"alpha": -0.1}, {"alpha": 7}, {"alpha": math.nan},
    {"w_min": 0.0}, {"w_min": 1.5}, {"w_min": math.nan},
    {"max_gap": -3}, {"max_gap": 1.5}, {"max_gap": True},
    {"alpha": "0.5"}, {"alpha": True}, {"w_min": None}, {"w_min": False},
])
def test_tracker_config_rejects_values_out_of_range(kw):
    with pytest.raises(ValueError, match=f"^{next(iter(kw))} must be "):
        TrackerConfig(**kw)


def test_tracker_config_accepts_the_ends_of_its_ranges():
    TrackerConfig(alpha=0, w_min=1, max_gap=0)
    TrackerConfig(alpha=1.0, w_min=1e-9)


def test_no_track_crosses_categories():
    """A pedestrian in frame 0 and a vehicle in frame 1 weigh 0 to each
    other, below every weight floor a config may hold."""
    frames = (FrameObservation(0, (obs(0, 0, 10, 10, category="Pedestrian"),)),
              FrameObservation(1, (obs(0, 0, 10, 10),)))
    tracks = _link_inferred(frames, TrackerConfig(w_min=1e-9))
    assert [(t.instance_id, t.category, sorted(t.observations)) for t in tracks] == [
        ("pedestrian01", "Pedestrian", [0]), ("vehicle01", "Vehicle", [1])]


# ---------------------------------------------------------------------------
# link_window and presence
# ---------------------------------------------------------------------------

def _window(objects, n=10):
    return windows(make_sequence(objects, n=n), n)[0]


def test_object_present_all_frames_has_no_flags():
    w = _window({"vehicle01": {"category": "Vehicle",
                               "track": linear_track((0.8, 12.0), (0.0, 0.0))}})
    tracks = link_window(w, "inferred")
    t = next(t for t in tracks if t.category == "Vehicle")
    flags = presence(t, w.n)
    assert not flags.appears and not flags.disappears
    assert (flags.first_frame, flags.last_frame) == (0, 9)


def test_object_entering_at_frame_4_appears():
    w = _window({"vehicle01": {
        "category": "Vehicle",
        "track": linear_track((0.8, 12.0), (0.0, 1.0), hidden=range(0, 4)),
    }})
    t = next(t for t in link_window(w, "inferred") if t.category == "Vehicle")
    flags = presence(t, w.n)
    assert flags.appears and flags.first_frame == 4


def test_occlusion_bridged_into_single_trajectory():
    w = _window({"p1": {
        "category": "Pedestrian", "width": 0.6, "height": 1.7,
        "track": linear_track((-4.5, 12.0), (1.0, 0.0), hidden=(5, 6)),
    }})
    tracks = [t for t in link_window(w, "inferred") if t.category == "Pedestrian"]
    assert len(tracks) == 1
    assert sorted(tracks[0].observations) == [0, 1, 2, 3, 4, 7, 8, 9]


def test_a_ghost_is_checked_like_any_observation(monkeypatch):
    # Each ghost moves 1.7e308 px: the first stays finite, the second does not.
    live = _LiveTrack(0, obs(0.0, 0.0, 10.0, 10.0, flow=(1.7e308, 0.0)))
    live.ghost()
    assert live.misses == 1 and math.isfinite(live.repr_obs.centroid_px[0])
    with pytest.raises(ValueError, match="finite"):
        live.ghost()
    # A ghost box that does not hold the carried centroid is rejected too.
    monkeypatch.setattr(tracking, "_shift", lambda bbox, d: (100.0, 100.0, 110.0, 110.0))
    with pytest.raises(ValueError, match="^bbox must contain the centroid$"):
        _LiveTrack(0, obs(0.0, 0.0, 10.0, 10.0, flow=(1.0, 0.0))).ghost()


def test_a_track_seen_once_without_flow_is_carried_in_place():
    box = (100.0, 100.0, 120.0, 140.0)
    live = _LiveTrack(0, obs(*box))
    assert live.step_estimate() == (0.0, 0.0)
    live.ghost()
    assert live.repr_obs.bbox == box
    # Seen once, missed once, seen again where it was: one track.
    w = identity_window([FrameObservation(0, (obs(*box),)), FrameObservation(1, ()),
                         FrameObservation(2, (obs(*box),))])
    tracks = link_window(w, "inferred")
    assert [sorted(t.observations) for t in tracks] == [[0, 2]]


def test_gap_longer_than_bridge_splits_track():
    w = _window({"p1": {
        "category": "Pedestrian", "width": 0.6, "height": 1.7,
        "track": linear_track((-4.5, 12.0), (1.0, 0.0), hidden=(4, 5, 6)),
    }})
    tracks = [t for t in link_window(w, "inferred") if t.category == "Pedestrian"]
    assert len(tracks) == 2


def test_presence_flags_truth_table():
    w = _window({"v": {"category": "Vehicle",
                       "track": linear_track((0.8, 12.0), (0.0, 0.0),
                                             hidden=range(7, 10))}})
    t = next(t for t in link_window(w, "oracle") if t.category == "Vehicle")
    flags = presence(t, 10)
    assert not flags.appears and flags.disappears and flags.last_frame == 6


def test_oracle_mode_requires_ids():
    frames = []
    from scenelogic.scene import FrameObservation
    o = obs(100, 100, 120, 120)
    frames = [FrameObservation(i, (o,)) for i in range(3)]
    w = identity_window(frames)
    with pytest.raises(MissingGroundTruthIds):
        link_window(w, "oracle")


def test_inferred_partition_matches_oracle_on_generated_scenes():
    from scenelogic.scenarios import KINDS

    for kind in KINDS:
        sc = generate_scenario(ScenarioSpec(kind, seed=11))
        w = windows(sc.sequence, 10)[0]
        oracle = link_window(w, "oracle")
        inferred = link_window(w, "inferred")

        def partition(tracks):
            return sorted(
                tuple(sorted((pos, o.centroid_px) for pos, o in t.observations.items()))
                for t in tracks
            )
        assert partition(oracle) == partition(inferred), kind
        assert sorted(t.instance_id for t in oracle) == \
            sorted(t.instance_id for t in inferred), kind


def test_instance_ids_are_deterministic():
    w = _window({
        "a": {"category": "Vehicle", "track": linear_track((0.8, 12.0), (0.0, 0.0))},
        "b": {"category": "Vehicle", "track": linear_track((-1.5, 15.0), (0.0, 0.0))},
    })
    first = [t.instance_id for t in link_window(w, "inferred")]
    second = [t.instance_id for t in link_window(w, "inferred")]
    assert first == second
    # Leftmost centroid gets the lower ordinal.
    vehicles = [t for t in link_window(w, "inferred") if t.category == "Vehicle"]
    leftmost = min(vehicles, key=lambda t: t.observations[0].centroid_px[0])
    assert leftmost.instance_id == "vehicle01"


def test_ordinal_ids_count_by_first_frame_then_centroid_then_order():
    keys = [("Vehicle", 1, 5.0, 0.0), ("Vehicle", 0, 9.0, 0.0), ("Bus", 0, 1.0, 1.0),
            ("Vehicle", 1, 5.0, -1.0), ("Vehicle", 1, 5.0, 0.0)]
    assert ordinal_ids(keys) == ["vehicle03", "vehicle01", "bus01", "vehicle02", "vehicle04"]


def test_every_observation_lands_in_exactly_one_trajectory():
    sc = generate_scenario(ScenarioSpec("crossing", seed=2))
    w = windows(sc.sequence, 10)[0]
    tracks = link_window(w, "inferred")
    seen = set()
    for t in tracks:
        frames_seen = set()
        for pos, o in t.observations.items():
            key = (pos, o.centroid_px, o.category)
            assert key not in seen
            assert pos not in frames_seen
            seen.add(key)
            frames_seen.add(pos)
    total = sum(len(f.objects) for f in w.frames)
    assert len(seen) == total


# ---------------------------------------------------------------------------
# Ids kept across the windows of a sequence
# ---------------------------------------------------------------------------

STREAM_KINDS = ("crossing", "collide", "appear")


def track_rows(tracks):
    return [(t.instance_id, t.category, t.attributes, sorted(t.observations.items()))
            for t in tracks]


@pytest.mark.parametrize("kind", STREAM_KINDS)
def test_an_object_keeps_its_id_in_every_window(kind):
    seq = generate_scenario(ScenarioSpec(kind, seed=7, n_frames=20)).sequence
    ids = {}
    for w in windows(seq, 10):
        for t in link_window(w, "inferred"):
            owners = {o.gt_instance for o in t.observations.values()}
            assert len(owners) == 1
            assert ids.setdefault(owners.pop(), t.instance_id) == t.instance_id
    assert len(ids) == len({o.gt_instance for f in seq.frames for o in f.objects})


@pytest.mark.parametrize("kind", STREAM_KINDS)
def test_a_prefix_links_its_windows_as_the_whole_sequence_does(kind):
    seq = generate_scenario(ScenarioSpec(kind, seed=7, n_frames=20)).sequence
    whole = windows(seq, 10)
    for m in (10, 13, 17):
        prefix = windows(Sequence(seq.intrinsics, seq.frames[:m]), 10)
        assert len(prefix) == m - 9
        for p, w in zip(prefix, whole):
            assert track_rows(link_window(p, "inferred")) == \
                track_rows(link_window(w, "inferred"))


def test_a_window_holds_its_sequences_frames_from_its_start():
    seq = generate_scenario(ScenarioSpec("crossing", seed=7, n_frames=12)).sequence
    chain = (Transform2.identity(),) * 3
    w = SceneWindow(seq, 2, chain)
    assert (w.frames, w.intrinsics, w.window_id, w.n) == (seq.frames[2:6], seq.intrinsics, 2, 4)
    assert "sequence" not in repr(w)
    SceneWindow(seq, 8, chain)
    for start in (-1, 9, 12):
        with pytest.raises(ValueError, match="outside the sequence's 12 frames"):
            SceneWindow(seq, start, chain)


def test_ids_break_ties_by_index_in_the_birth_frame():
    """Two vehicles born in frame 0 around one centroid; the second ends at
    once.  The first takes vehicle01 whether or not the other has ended."""
    a = obs(0, 0, 10, 10, flow=(0.0, 0.0))
    b = obs(-5, -5, 15, 15, flow=(0.0, 0.0))
    frames = [FrameObservation(0, (a, b))] + [FrameObservation(i, (a,)) for i in (1, 2)]
    for n in (1, 3):
        tracks = link_window(identity_window(frames[:n]), "inferred")
        assert [(t.instance_id, t.observations[0]) for t in tracks] == \
            [("vehicle01", a), ("vehicle02", b)]


def test_window_attributes_are_voted_over_the_window_frames():
    """A vehicle red in frames 0-5 and blue after: each window votes over
    its own frames, as oracle tracking does, not over the sequence."""
    seq = make_sequence({"v": {"category": "Vehicle", "attributes": {"color": "red"},
                               "track": linear_track((0.8, 12.0), (0.0, 2.0), n=12)}}, n=12)
    seq = Sequence(seq.intrinsics, tuple(
        FrameObservation(f.frame_index, tuple(
            o._replace(attributes={"color": "blue"})
            if o.category == "Vehicle" and f.frame_index >= 6 else o for o in f.objects))
        for f in seq.frames))
    colors = []
    for w in windows(seq, 4):
        inferred, oracle = (next(t for t in link_window(w, mode) if t.category == "Vehicle")
                            for mode in ("inferred", "oracle"))
        assert inferred.attributes == oracle.attributes
        colors.append(inferred.attributes["color"])
    assert colors == ["red"] * 5 + ["blue"] * 4  # a 2-2 tie goes to the first seen
