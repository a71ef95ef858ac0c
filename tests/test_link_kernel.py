"""Inferred linking's once-per-sequence work against per-pair and
per-observation references.

``tracking._link_inferred`` weighs every consecutive frame pair of a
sequence from one box table, frames padded to the widest and stacked in
batches (``_pair_weights``); each weight must equal the two frames' own
``_weights`` bit for bit.  Attribute votes count runs of equal attribute
dicts (``attribute_runs``, ``vote_attributes``); every cut's vote must
equal one vote per observation (``oracles.vote_per_observation``), keys in
the same order.
"""

import random
import sys

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
from scenelogic import tracking
from scenelogic.evaluation import process_sequence
from scenelogic.facts import CompilerConfig, compile_window
from scenelogic.inference import saturate
from scenelogic.scenarios import ScenarioSpec, generate_scenario
from scenelogic.scene import (
    FrameObservation,
    ObjectObservation,
    Sequence,
    box_arrays,
    sequence_from_dict,
    sequence_to_dict,
    windows,
)
from scenelogic.tracking import (_pair_weights, _weights, attribute_runs, cut_track,
                                vote_attributes)

from test_saturation_differential import STREAM_KINDS

CATEGORIES = ("Vehicle", "Pedestrian", "Road")


def _frame(rng: random.Random, index: int, n: int) -> FrameObservation:
    """``n`` boxes on a 10 px grid, so that identical and touching boxes
    are common; some without flow."""
    objects = []
    for _ in range(n):
        x0, y0 = rng.randrange(0, 60, 10), rng.randrange(0, 60, 10)
        x1, y1 = x0 + rng.choice((10, 20)), y0 + rng.choice((10, 20))
        flow = None if rng.random() < 0.3 else (rng.choice((-5.0, 0.0, 5.0)),
                                                rng.choice((-5.0, 0.0, 5.0)))
        objects.append(ObjectObservation(rng.choice(CATEGORIES), ((x0 + x1) / 2, (y0 + y1) / 2),
                                         (float(x0), float(y0), float(x1), float(y1)), 10.0,
                                         flow_px=flow))
    return FrameObservation(index, tuple(objects))


@st.composite
def frame_sequences(draw):
    """Frames of 0 up to 70 objects: the widest frame's cap is drawn first,
    so that wide sequences (a batch of one pair) and narrow ones (a batch
    of many) both occur, as do empty frames and one-frame sequences."""
    cap = draw(st.sampled_from((0, 1, 8, 20, 70)))
    sizes = draw(st.lists(st.integers(0, cap), min_size=1, max_size=6))
    rng = random.Random(draw(st.integers(0, 2**32)))
    return [_frame(rng, i, n) for i, n in enumerate(sizes)]


def same_bits(a: np.ndarray, b: np.ndarray) -> bool:
    return a.shape == b.shape and np.ascontiguousarray(a).tobytes() == b.tobytes()


@settings(max_examples=150, deadline=None, derandomize=True)
@given(frame_sequences(), st.sampled_from((0, 0.5, 1)))
def test_batched_weights_equal_each_pairs_own_weights(frames, alpha):
    codes: dict = {}
    table = box_arrays([o for f in frames for o in f.objects], codes)
    offsets = [0]
    for f in frames:
        offsets.append(offsets[-1] + len(f.objects))
    got = _pair_weights(table, offsets, alpha)
    assert len(got) == len(frames) - 1
    for w, prev, curr in zip(got, frames, frames[1:]):
        assert same_bits(w, _weights(box_arrays(prev.objects), box_arrays(curr.objects), alpha))


@pytest.mark.parametrize("width,frames,calls", [(70, 4, 3), (64, 4, 3), (8, 20, 1),
                                                (8, 66, 2), (0, 5, 1), (3, 1, 0)])
def test_batches_follow_the_widest_frame(monkeypatch, width, frames, calls):
    """A batch holds PAIR_BATCH_ENTRIES // width² frame pairs, and at least
    one."""
    rng = random.Random(width)
    seq = [_frame(rng, i, width) for i in range(frames)]
    seen = []
    monkeypatch.setattr(tracking, "_weights",
                        lambda left, right, alpha: seen.append(left.categories.shape)
                        or _weights(left, right, alpha))
    codes: dict = {}
    table = box_arrays([o for f in seq for o in f.objects], codes)
    _pair_weights(table, [i * width for i in range(frames + 1)], 0.5)
    assert len(seen) == calls
    assert all(pairs * width * width <= tracking.PAIR_BATCH_ENTRIES or pairs == 1
               for pairs, _ in seen)


# ---------------------------------------------------------------------------
# Attribute votes over runs
# ---------------------------------------------------------------------------

_attributes = st.one_of(
    st.none(),
    st.just({}),
    st.lists(st.tuples(st.sampled_from(("color", "type", "size")),
                       st.sampled_from(("red", "blue", "car"))),
             max_size=3).map(dict),
)


def _observations(attributes: list) -> list[ObjectObservation]:
    return [ObjectObservation("Vehicle", (5.0, 5.0), (0.0, 0.0, 10.0, 10.0), 10.0,
                              attributes=a) for a in attributes]


@settings(max_examples=300, deadline=None, derandomize=True)
@given(st.lists(_attributes, min_size=1, max_size=12), st.integers(0, 3))
def test_run_vote_equals_one_vote_per_observation(attributes, gap):
    """Every cut of a track, its positions spaced ``gap + 1`` apart, votes
    as one vote per observation does: values, ties and key order."""
    observed = _observations(attributes)
    keys = [i * (gap + 1) for i in range(len(observed))]
    t = tracking.Trajectory("vehicle01", "Vehicle", dict(zip(keys, observed)))
    runs = attribute_runs(observed)
    t.attributes = vote_attributes(runs, 0, len(keys))
    assert list(t.attributes.items()) == \
        list(oracles.vote_per_observation(t.observations).items())
    for lo in range(len(keys)):
        for hi in range(lo + 1, len(keys) + 1):
            want = oracles.vote_per_observation({p: t.observations[p] for p in keys[lo:hi]})
            assert list(vote_attributes(runs, lo, hi).items()) == list(want.items())
            cut = cut_track(t, keys, runs, lo, hi, keys[lo])
            assert list(cut.attributes.items()) == list(want.items())
            assert sorted(cut.observations) == [p - keys[lo] for p in keys[lo:hi]]


def test_equal_attributes_in_another_key_order_start_a_run():
    observed = _observations([{"color": "red", "type": "car"}, {"type": "car", "color": "red"},
                              None, {}])
    ends, items = attribute_runs(observed)
    assert ends == [1, 2, 4]
    assert list(vote_attributes((ends, items), 1, 2)) == ["type", "color"]


def test_a_sequence_pass_splits_each_track_into_runs_once(rules):
    """One ``process_sequence`` pass of a 20-frame inferred sequence in
    windows of 10 splits each track into attribute runs once, however the
    function is reached: compile reads the runs the linker recorded."""
    seq = generate_scenario(ScenarioSpec("crossing", 11, n_frames=20)).sequence
    code, calls = attribute_runs.__code__, []

    def count(frame, event, arg):
        if event == "call" and frame.f_code is code:
            calls.append(1)

    sys.setprofile(count)
    try:
        per = process_sequence(seq, rules, "inferred", n=10)
    finally:
        sys.setprofile(None)
    tracks = tracking.link_sequence(seq, "inferred")[0]
    assert len(per) == 11
    # Windows cut tracks, so a second split per cut track would show.
    assert any(len(t.observations) > 10 for t in tracks)
    assert len(calls) == len(tracks)


# ---------------------------------------------------------------------------
# Whole pipeline on noisy colours
# ---------------------------------------------------------------------------

def _stream_specs(seed: int) -> list[ScenarioSpec]:
    """The benchmark's stream sequences: six per static-camera kind, of
    18 to 22 frames."""
    rng = random.Random(seed)
    return [ScenarioSpec(k, rng.randrange(10**6), n_frames=rng.randint(18, 22))
            for k in STREAM_KINDS for _ in range(6)]


def _noisy_colors(seq: Sequence, rng: random.Random, share: float) -> Sequence:
    """A copy of ``seq`` with ``share`` of its colour attributes drawn again."""
    doc = sequence_to_dict(seq)
    colors = ("white", "black", "blue", "red", "green", "silver", "yellow", "gray")
    for f in doc["frames"]:
        for o in f["objects"]:
            if "color" in o.get("attributes", {}) and rng.random() < share:
                o["attributes"]["color"] = rng.choice(colors)
    return sequence_from_dict(doc)


def track_rows(tracks):
    return [(t.instance_id, t.category, list(t.attributes.items()), sorted(t.observations.items()))
            for t in tracks]


@pytest.mark.parametrize("mode", ["oracle", "inferred"])
def test_noisy_colors_vote_as_one_vote_per_observation(rules, mode):
    """On the benchmark's seed-5 stream sequences with 30% of colours drawn
    again, each window's tracks (attribute order included), atomic facts,
    provenance and saturated set equal those of the sequence tracks cut and
    voted one observation at a time."""
    rng = random.Random(28)
    cfg = CompilerConfig()
    voted = 0
    for spec in _stream_specs(5):
        seq = _noisy_colors(generate_scenario(spec).sequence, rng, 0.3)
        per = process_sequence(seq, rules, mode, n=10)
        linked = tracking.link_sequence(seq, mode)[0]
        for t in linked:
            assert list(t.attributes.items()) == \
                list(oracles.vote_per_observation(t.observations).items())
        for w in windows(seq, 10):
            want = oracles.cut_tracks(linked, w.start, w.n)
            wf, sat = per[w.window_id]
            ref = compile_window(w, want, cfg, rules)
            assert track_rows(wf.tracks) == track_rows(want)
            assert track_rows(tracking.link_window(w, mode)) == track_rows(want)
            assert wf.facts.facts == ref.facts.facts
            assert repr(wf.provenance) == repr(ref.provenance)
            assert sat.facts == saturate(ref.facts, rules).facts
            voted += sum(len({o.attributes["color"] for o in t.observations.values()}) > 1
                         for t in want if t.attributes.get("color"))
    assert voted > 0  # some cut tracks see more than one colour
