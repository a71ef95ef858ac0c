"""The array kernels and shared work against the formulas they replaced.

Association weights are computed over whole arrays; origin chains, in one
stacked pass, inferred tracks, pairwise distance trends and BEV points once
per sequence; kinematics with scalars; each track's facts from the few
points and the grouped means they read.  Each test here keeps the per-pair
(or per-window, or array, or per-observation) computation as a reference
and requires exactly equal results.
"""

import json
from dataclasses import replace
from types import SimpleNamespace

import numpy as np
import pytest
import scipy.optimize

import oracles
from scenelogic import facts, scene, tracking
from scenelogic.evaluation import process_sequence
from scenelogic.facts import CompilerConfig, compile_window
from scenelogic.fol import Const, Literal
from scenelogic.geometry import (
    CameraIntrinsics,
    DegenerateConfiguration,
    InsufficientAnchors,
    Transform2,
    estimate_origin,
    estimate_origins,
    kinematics,
)
from scenelogic.scenarios import KINDS, ScenarioSpec, generate_scenario
from scenelogic.scene import (
    NN_GATE_M,
    STATIC_CATEGORIES,
    FrameObservation,
    ObjectObservation,
    SceneWindow,
    Sequence,
    bev_of,
    sequence_from_dict,
    sequence_to_dict,
    box_arrays,
    windows,
)
from scenelogic.tracking import (
    TrackerConfig,
    Trajectory,
    _weights,
    link_window,
    match_frames,
)

from conftest import INTR, linear_track, make_sequence, run_fresh, whole_window


# ---------------------------------------------------------------------------
# Scalar references
# ---------------------------------------------------------------------------

def ref_iou(a, b) -> float:
    ix0 = max(a[0], b[0])
    iy0 = max(a[1], b[1])
    ix1 = min(a[2], b[2])
    iy1 = min(a[3], b[3])
    iw = max(0.0, ix1 - ix0)
    ih = max(0.0, iy1 - iy0)
    inter = iw * ih
    if inter <= 0:
        return 0.0
    area_a = (a[2] - a[0]) * (a[3] - a[1])
    area_b = (b[2] - b[0]) * (b[3] - b[1])
    return inter / (area_a + area_b - inter)


def ref_edge_weight(l, r, alpha) -> float:
    raw = ref_iou(l.bbox, r.bbox)
    if l.flow_px is None:
        flow = raw
    else:
        d = l.flow_px
        shifted = (l.bbox[0] + d[0], l.bbox[1] + d[1], l.bbox[2] + d[0], l.bbox[3] + d[1])
        flow = ref_iou(shifted, r.bbox)
    return alpha * flow + (1.0 - alpha) * raw


def ref_weights(left, right, alpha) -> np.ndarray:
    w = np.zeros((len(left), len(right)))
    for i, l in enumerate(left):
        for j, r in enumerate(right):
            if l.category == r.category:
                w[i, j] = ref_edge_weight(l, r, alpha)
    return w


DISTANCE_PREDICATES = ("DistanceDecreases", "DistanceDecreasesToZero", "DistanceIncreases")


def ref_distance_facts(w, tracks, cfg):
    """The per-pair loop compile_window ran before it used arrays."""
    facts, provenance = set(), {}

    def emit(pred, *args, **evidence):
        lit = Literal(pred, tuple(Const(a) for a in args))
        facts.add(lit)
        provenance[lit] = evidence

    bev = {t.instance_id: {pos: bev_of(o, w.intrinsics) for pos, o in t.observations.items()}
           for t in tracks}
    for i, a in enumerate(tracks):
        for b in tracks[i + 1:]:
            common = sorted(set(a.observations) & set(b.observations))
            if len(common) < 2:
                continue
            pa, pb = bev[a.instance_id], bev[b.instance_id]
            d = [float(np.hypot(pa[p][0] - pb[p][0], pa[p][1] - pb[p][1])) for p in common]
            steps = len(d) - 1
            dec = sum(1 for u, v in zip(d, d[1:]) if v < u)
            inc = sum(1 for u, v in zip(d, d[1:]) if v > u)
            if dec / steps >= cfg.trend_frac and d[0] - d[-1] > cfg.eps_move:
                for x, y in ((a, b), (b, a)):
                    emit("DistanceDecreases", x.instance_id, y.instance_id,
                         initial_m=d[0], final_m=d[-1])
                    if d[-1] < cfg.eps_contact:
                        emit("DistanceDecreasesToZero", x.instance_id, y.instance_id,
                             final_m=d[-1])
            if inc / steps >= cfg.trend_frac and d[-1] - d[0] > cfg.eps_move:
                for x, y in ((a, b), (b, a)):
                    emit("DistanceIncreases", x.instance_id, y.instance_id,
                         initial_m=d[0], final_m=d[-1])
    return facts, provenance


def distance_part(wf):
    facts = {f for f in wf.facts if f.pred in DISTANCE_PREDICATES}
    return facts, {f: ev for f, ev in wf.provenance.items() if f.pred in DISTANCE_PREDICATES}


# ---------------------------------------------------------------------------
# (a) Association weights
# ---------------------------------------------------------------------------

def random_observations(rng, n, grid):
    """Boxes on a coarse pixel grid (so edges touch and boxes coincide) or
    anywhere; some without flow; three categories."""
    out = []
    for _ in range(n):
        if grid:
            x0, y0 = (float(v) for v in rng.integers(0, 8, 2) * 10)
            x1, y1 = x0 + float(rng.integers(0, 4) * 10), y0 + float(rng.integers(1, 4) * 10)
        else:
            x0, y0 = rng.uniform(0, 200, 2)
            x1, y1 = x0 + rng.uniform(0, 60), y0 + rng.uniform(1e-3, 60)
        flow = None
        if rng.random() < 0.7:
            flow = tuple(float(v) for v in (rng.integers(-2, 3, 2) * 10 if grid
                                            else rng.normal(0, 15, 2)))
        out.append(ObjectObservation(
            category=str(rng.choice(["Vehicle", "Pedestrian", "Pole"])),
            centroid_px=((x0 + x1) / 2, (y0 + y1) / 2),
            bbox=(float(x0), float(y0), float(x1), float(y1)),
            depth_m=10.0, flow_px=flow))
    return out


def weights(left, right, alpha=TrackerConfig.alpha) -> np.ndarray:
    return _weights(box_arrays(left), box_arrays(right), alpha)


@pytest.mark.parametrize("grid", [False, True])
def test_weights_equal_scalar_reference(grid):
    rng = np.random.default_rng(7)
    for case in range(150):
        left = random_observations(rng, int(rng.integers(0, 9)), grid)
        right = random_observations(rng, int(rng.integers(0, 9)), grid)
        alpha = (0.5, 0.0, 1.0, 0.3)[case % 4]
        w = weights(left, right, alpha)
        assert w.shape == (len(left), len(right))
        assert (w == ref_weights(left, right, alpha)).all()
        # With no weight on the flow-carried factor, a weight is the raw IoU.
        raw = weights(left, right, 0.0)
        for i, l in enumerate(left):
            for j, r in enumerate(right):
                want = ref_iou(l.bbox, r.bbox) if l.category == r.category else 0.0
                assert raw[i, j] == want


def test_empty_sides_give_empty_weights():
    some = random_observations(np.random.default_rng(1), 3, grid=False)
    assert weights([], some).shape == (0, 3)
    assert weights(some, []).shape == (3, 0)
    assert weights([], []).shape == (0, 0)


def occlusion_and_arrival(n=14):
    """A pedestrian hidden for two frames while a vehicle arrives in the
    first of them: one frame pair has both a ghost and a new track."""
    return make_sequence({
        "p": {"category": "Pedestrian", "width": 0.6, "height": 1.7,
              "track": linear_track((-4.5, 12.0), (1.0, 0.0), n=n, hidden=(5, 6))},
        "v": {"category": "Vehicle",
              "track": linear_track((0.8, 12.0), (0.0, 1.0), n=n, hidden=range(5))},
    }, n=n)


@pytest.mark.parametrize("scene", ["crossing", "appear", "disappear", "collide",
                                   "occlusion_and_arrival"])
def test_tracker_graphs_equal_scalar_reference(scene, monkeypatch):
    """The tracker carries its live tracks' boxes from frame to frame,
    ghosts included; every matrix it matches must still weigh the tracks'
    current observations exactly as the scalar formula does."""
    solves = []  # [live tracks' observations, matched weights] per frame pair
    match_live, match = tracking._match_live, tracking.match_frames

    def recording_live(live, *args):
        solves.append([tuple(t.repr_obs for t in live)])
        return match_live(live, *args)

    def recording_match(weights, w_min):
        solves[-1].append(weights)
        return match(weights, w_min)

    monkeypatch.setattr(tracking, "_match_live", recording_live)
    monkeypatch.setattr(tracking, "match_frames", recording_match)
    if scene == "occlusion_and_arrival":
        seq = occlusion_and_arrival()
    else:
        seq = generate_scenario(ScenarioSpec(scene, seed=4, n_frames=14, object_count=4)).sequence
    for w in windows(seq, 10):
        link_window(w, "inferred")
    # The sequence is linked once, so solve k matches frame k + 1.
    assert len(solves) == len(seq.frames) - 1
    observed = {id(o) for f in seq.frames for o in f.objects}
    ghosts = 0
    for frame, (left, w) in zip(seq.frames[1:], solves):
        assert (w == ref_weights(left, frame.objects, TrackerConfig.alpha)).all()
        ghosts += sum(1 for o in left if id(o) not in observed)
    if scene in ("crossing", "occlusion_and_arrival"):
        assert ghosts > 0  # the occlusion gap is bridged by a ghost


# ---------------------------------------------------------------------------
# (b) Pairwise distance trends
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("kind", KINDS)
def test_distance_facts_equal_scalar_reference_on_generated_scenes(kind, rules):
    cfg = CompilerConfig()
    # Kinds with ego motion keep their anchors in view for 17 frames at most.
    sc = generate_scenario(ScenarioSpec(kind, seed=21, n_frames=16, object_count=5))
    for w in windows(sc.sequence, 10):
        tracks = link_window(w, "inferred")
        wf = compile_window(w, tracks, cfg, rules)
        facts, provenance = distance_part(wf)
        assert (facts, provenance) == ref_distance_facts(w, tracks, cfg)


def test_distance_facts_equal_scalar_reference_on_random_tracks(rules):
    """Random visibility leaves pairs with gaps, one or no common frames;
    positions on a coarse grid give equal consecutive distances."""
    rng = np.random.default_rng(3)
    n = 8
    cfg = CompilerConfig(trend_frac=0.5, eps_move=0.05)
    window = SceneWindow(Sequence(INTR, tuple(FrameObservation(i, ()) for i in range(n))), 0,
                         (Transform2.identity(),) * (n - 1))
    emitted = 0
    for _ in range(60):
        tracks = []
        for t in range(int(rng.integers(0, 7))):
            seen = np.flatnonzero(rng.random(n) < 0.75).tolist() or [0]
            observations = {}
            for pos in seen:
                cx, cy = (float(v) for v in rng.integers(100, 540, 2) // 40 * 40)
                observations[pos] = ObjectObservation(
                    "Vehicle", (cx, cy), (cx - 5, cy - 5, cx + 5, cy + 5),
                    float(rng.integers(2, 6)))
            tracks.append(Trajectory(f"vehicle{t + 1:02d}", "Vehicle", observations))
        facts, provenance = distance_part(compile_window(window, tracks, cfg, rules))
        assert (facts, provenance) == ref_distance_facts(window, tracks, cfg)
        emitted += len(facts)
    assert emitted > 0


def rows_to_window(trends, rows):
    """Trends read from a sequence table, with pair rows renamed to the
    window's track indices."""
    window_index = {row: i for i, row in enumerate(rows)}
    ia, ib, *rest = trends
    return ([window_index[r] for r in ia], [window_index[r] for r in ib], *rest)


def assert_same_trends(got, want):
    assert got[:2] == want[:2]
    for a, b in zip(got[2:], want[2:]):
        assert a.dtype.kind == b.dtype.kind and np.array_equal(a, b)


def sequence_table(seq, seq_tracks):
    """``facts._pair_table`` over the sequence's tracks, from each
    observation's point in ``Sequence.bev``."""
    points = [(i, p, seq.bev[p][id(o)]) for i, t in enumerate(seq_tracks)
              for p, o in sorted(t.observations.items())]
    rows = np.array([i for i, _, _ in points], dtype=int)
    cols = np.array([p for _, p, _ in points], dtype=int)
    xz = np.array([pt for _, _, pt in points], dtype=float).reshape(-1, 2).T
    return facts._pair_table(rows, cols, xz, len(seq_tracks), len(seq.frames))


def window_trends(table, seq_tracks, start, n):
    """The trends ``facts._trends`` reads off ``table`` for frames
    ``start..start+n-1``, renamed to the window's tracks: the sequence
    tracks seen there, in order."""
    _, ia, ib, *rest = facts._trends(table, np.array([start]), n)
    rows = [i for i, t in enumerate(seq_tracks)
            if any(start <= p < start + n for p in t.observations)]
    return rows_to_window((ia.tolist(), ib.tolist(), *rest), rows)


@pytest.mark.parametrize("kind", KINDS)
def test_pair_table_equals_per_window_trends_on_generated_scenes(kind, rules):
    sc = generate_scenario(ScenarioSpec(kind, seed=21, n_frames=16, object_count=5))
    for w in windows(sc.sequence, 10):
        tracks = link_window(w, "inferred")
        seq_tracks = tracking.link_sequence(w.sequence, "inferred")[0]
        got = window_trends(sequence_table(w.sequence, seq_tracks), seq_tracks, w.start, w.n)
        own, _ = oracles.track_points_per_observation(w, tracks)
        assert_same_trends(got, oracles.distance_trends_per_window(own, w.n))
        # A copy of the list compiles as the list does.
        assert compiled(w, tracks, rules) == compiled(w, list(tracks), rules)
        # A cut edited to have a gap compiles as its observations say.
        edited = next(t for t in tracks if len(t.observations) > 2)
        del edited.observations[max(edited.observations)]
        assert distance_part(compile_window(w, tracks, CompilerConfig(), rules)) == \
            ref_distance_facts(w, tracks, CompilerConfig())


def test_cut_tracks_read_the_sequence_table_bit_for_bit(monkeypatch, rules):
    """Random sequence tracks with gaps, cut to windows of random length at
    every start: the trends read from the sequence's table equal those of
    the window's own points, and the distance facts and provenance equal
    the per-pair loop's, both compiled per window and in one pass over the
    sequence."""
    rng = np.random.default_rng(5)
    cfg = CompilerConfig(trend_frac=0.5, eps_move=0.05)
    n = 14
    emitted = 0
    for _ in range(25):
        seq_tracks, per_frame = [], [[] for _ in range(n)]
        for t in range(int(rng.integers(0, 7))):
            seen = np.flatnonzero(rng.random(n) < 0.7).tolist() or [0]
            observations = {}
            for pos in seen:
                cx, cy = (float(v) for v in rng.integers(100, 540, 2) // 40 * 40)
                observations[pos] = ObjectObservation(
                    "Vehicle", (cx, cy), (cx - 5, cy - 5, cx + 5, cy + 5),
                    float(rng.integers(2, 6)))
                per_frame[pos].append(observations[pos])
            seq_tracks.append(Trajectory(f"vehicle{t + 1:02d}", "Vehicle", observations))
        seq = Sequence(INTR, tuple(FrameObservation(i, tuple(objects))
                                   for i, objects in enumerate(per_frame)))
        monkeypatch.setattr(tracking, "_link_inferred", lambda frames, cfg: seq_tracks)
        m = int(rng.integers(1, n + 1))
        wins = [SceneWindow(seq, start, (Transform2.identity(),) * (m - 1))
                for start in range(n - m + 1)]
        table = sequence_table(seq, seq_tracks)
        passes = facts.compile_windows(tracking.index_tracks(seq_tracks, []), wins, cfg, rules)
        for w, one_pass in zip(wins, passes):
            tracks = link_window(w, "inferred")
            assert track_rows(tracks) == track_rows(oracles.cut_tracks(seq_tracks, w.start, m))
            own, _ = oracles.track_points_per_observation(w, tracks)
            assert_same_trends(window_trends(table, seq_tracks, w.start, m),
                               oracles.distance_trends_per_window(own, m))
            got = distance_part(compile_window(w, tracks, cfg, rules))
            assert got == ref_distance_facts(w, tracks, cfg)
            assert got == distance_part(one_pass)
            assert track_rows(one_pass.tracks) == track_rows(tracks)
            emitted += len(got[0])
    assert emitted > 0


# ---------------------------------------------------------------------------
# (c) Origin chains computed once per sequence
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("kind,n_frames", [("crossing", 16), ("constant_speed", 17),
                                           ("stop", 20)])
def test_window_chains_equal_per_window_build(kind, n_frames):
    seq = generate_scenario(ScenarioSpec(kind, seed=2, n_frames=n_frames)).sequence
    wins = windows(seq, 10)
    assert [w.window_id for w in wins] == list(range(n_frames - 9))
    for w in wins:
        i = w.window_id
        alone = whole_window(seq.frames[i:i + 10], seq.intrinsics)
        assert w.frames == alone.frames
        assert w.origin_chain == alone.origin_chain
        assert w.cumulative() == alone.cumulative()
    if kind != "crossing":
        assert any(t.rotation_rad != 0.0 or t.translation_m != (0.0, 0.0)
                   for t in wins[0].origin_chain)


def _strip_anchors(seq: Sequence, positions) -> Sequence:
    """Keep one static object in each frame at ``positions``."""
    frames = []
    for i, f in enumerate(seq.frames):
        if i in positions:
            static = [o for o in f.objects if o.category in STATIC_CATEGORIES]
            f = FrameObservation(f.frame_index, tuple(
                o for o in f.objects if o.category not in STATIC_CATEGORIES) + (static[0],))
        frames.append(f)
    return Sequence(seq.intrinsics, tuple(frames))


def test_first_bad_pair_raises_the_per_window_message():
    seq = make_sequence({"v": {"category": "Vehicle",
                               "track": linear_track((0.8, 12.0), (0.0, 3.0), n=16)}},
                        n=16)
    bad = _strip_anchors(seq, {13, 6})
    with pytest.raises(InsufficientAnchors) as got:
        windows(bad, 10)
    with pytest.raises(InsufficientAnchors) as first_window:
        whole_window(bad.frames[0:10], bad.intrinsics)
    assert str(got.value) == str(first_window.value)
    assert str(got.value).startswith("frames 5-6:")

    late = _strip_anchors(seq, {13})
    with pytest.raises(InsufficientAnchors) as got:
        windows(late, 10)
    with pytest.raises(InsufficientAnchors) as window_4:
        whole_window(late.frames[4:14], late.intrinsics)
    assert str(got.value) == str(window_4.value)
    assert str(got.value).startswith("frames 12-13:")

    # One-frame windows hold no frame pair, so no transform is estimated.
    assert len(windows(bad, 1)) == 16


def _recorded_origin_calls(monkeypatch) -> list:
    """The anchor pairs of each ``estimate_origins`` call ``scene`` makes."""
    calls = []

    def recording(pairs):
        calls.append(list(pairs))
        return estimate_origins(calls[-1])

    monkeypatch.setattr(scene, "estimate_origins", recording)
    return calls


def _assert_equal_per_pair(pairs):
    stacked = estimate_origins(pairs)
    assert len(stacked) == len(pairs)
    for (prev, curr), tf in zip(pairs, stacked):
        ref = oracles.estimate_origin_per_pair(prev, curr)
        assert tf.rotation_rad == ref.rotation_rad
        assert tf.translation_m == ref.translation_m
        assert tf.residual_rms == ref.residual_rms


@pytest.mark.parametrize("seed", (5, 77))
def test_stacked_origins_equal_per_pair_on_generated_scenes(seed, monkeypatch):
    # As `scenelogic gen --kind all --count 2 --seed <seed>`: every frame pair.
    calls = _recorded_origin_calls(monkeypatch)
    for kind in KINDS:
        for j in range(2):
            seq = generate_scenario(ScenarioSpec(kind, 1000 * seed + j)).sequence
            chain = windows(seq)[0].origin_chain
            assert len(calls) == 1
            pairs = calls.pop()
            assert len(pairs) == len(seq.frames) - 1
            _assert_equal_per_pair(pairs)
            assert chain == tuple(map(oracles.estimate_origin_per_pair, *zip(*pairs)))


def test_stacked_origins_equal_per_pair_on_mixed_anchor_counts():
    rng = np.random.default_rng(18)
    for _ in range(60):
        pairs = []
        for _ in range(int(rng.integers(1, 16))):
            n = int(rng.integers(2, 13))
            prev = rng.uniform((-30.0, 0.0), (30.0, 60.0), (n, 2))
            theta = rng.uniform(-np.pi, np.pi)
            c, s = np.cos(theta), np.sin(theta)
            curr = prev @ np.array([[c, s], [-s, c]]) + rng.uniform(-5, 5, 2)
            curr += rng.normal(0.0, rng.choice([0.0, 0.05, 2.0]), curr.shape)
            pairs.append(([tuple(p) for p in prev.tolist()], [tuple(p) for p in curr.tolist()]))
        _assert_equal_per_pair(pairs)


GOOD_PAIR = ([(0.0, 10.0), (4.0, 20.0), (-3.0, 15.0)], [(0.5, 10.0), (4.5, 20.0), (-2.5, 15.0)])
COINCIDENT = ([(1.0, 1.0), (1.0, 1.0)], [(2.0, 2.0), (2.0, 2.0)])
ONE_ANCHOR = ([(0.0, 1.0)], [(0.0, 1.0)])
UNEQUAL = ([(0.0, 1.0), (2.0, 3.0)], [(0.0, 1.0), (2.0, 3.0), (4.0, 5.0)])
NAN_ANCHOR = ([(0.0, 1.0), (2.0, float("nan"))], [(0.0, 1.0), (2.0, 3.0)])


@pytest.mark.parametrize("pairs,error", [
    ([GOOD_PAIR, COINCIDENT, GOOD_PAIR], DegenerateConfiguration),
    ([GOOD_PAIR, COINCIDENT, NAN_ANCHOR], DegenerateConfiguration),
    ([NAN_ANCHOR, COINCIDENT], ValueError),
], ids=["degenerate-first", "degenerate-before-nan", "nan-first"])
def test_first_failing_pair_raises_what_it_raises_alone(pairs, error):
    first_bad = next(p for p in pairs if p is not GOOD_PAIR)
    with pytest.raises(error) as alone:
        oracles.estimate_origin_per_pair(*first_bad)
    with pytest.raises(error) as stacked:
        estimate_origins(pairs)
    assert type(stacked.value) is type(alone.value)
    assert str(stacked.value) == str(alone.value)


@pytest.mark.parametrize("pair", [
    ONE_ANCHOR,
    UNEQUAL,
    ([], []),
    ([(0.0, 1.0, 2.0), (3.0, 4.0, 5.0)], [(0.0, 1.0, 2.0), (3.0, 4.0, 5.0)]),
    ([("a", 1.0), (2.0, 3.0)], [(0.0, 1.0), (2.0, 3.0)]),
    ([({}, 1.0), (2.0, 3.0)], [(0.0, 1.0), (2.0, 3.0)]),
], ids=["one-anchor", "unequal", "no-anchors", "three-columns", "not-a-number", "not-numeric"])
def test_estimate_origin_checks_its_own_pair(pair):
    with pytest.raises((TypeError, ValueError)) as alone:
        oracles.estimate_origin_per_pair(*pair)
    with pytest.raises((TypeError, ValueError)) as checked:
        estimate_origin(*pair)
    assert type(checked.value) is type(alone.value)
    assert str(checked.value) == str(alone.value)


@pytest.mark.parametrize("pairs", [
    [ONE_ANCHOR],
    [GOOD_PAIR, ONE_ANCHOR, COINCIDENT, GOOD_PAIR],
    [COINCIDENT, UNEQUAL],
], ids=["one-anchor", "insufficient-first", "degenerate-before-malformed"])
def test_malformed_pairs_fail_the_stack(pairs):
    # estimate_origins takes pairs as _origin_chain builds them; one that
    # is not still fails loudly.
    with pytest.raises(ValueError) as raised:
        estimate_origins(pairs)
    assert not isinstance(raised.value, (InsufficientAnchors, DegenerateConfiguration))


def _coincident_anchors(seq: Sequence, positions) -> Sequence:
    """Move the second static object onto the first in each frame at
    ``positions``, so that the frame's anchors are coincident."""
    frames = []
    for i, f in enumerate(seq.frames):
        if i in positions:
            static = [o for o in f.objects if o.category in STATIC_CATEGORIES]
            moved = static[1]._replace(centroid_px=static[0].centroid_px,
                                       bbox=static[0].bbox, depth_m=static[0].depth_m)
            f = FrameObservation(f.frame_index, tuple(
                o for o in f.objects if o.category not in STATIC_CATEGORIES)
                + (static[0], moved))
        frames.append(f)
    return Sequence(seq.intrinsics, tuple(frames))


def test_origin_chain_raises_for_the_first_failing_frame_pair():
    seq = make_sequence({"v": {"category": "Vehicle",
                               "track": linear_track((0.8, 12.0), (0.0, 3.0), n=16)}},
                        n=16)
    # Frame 6's anchors coincide (pairs 5-6 and 6-7 are degenerate), and
    # frame 13 keeps one (pair 12-13 has one correspondence).
    degenerate_first = _strip_anchors(_coincident_anchors(seq, {6}), {13})
    with pytest.raises(DegenerateConfiguration, match="coincident"):
        windows(degenerate_first, 10)
    insufficient_first = _strip_anchors(_coincident_anchors(seq, {13}), {6})
    with pytest.raises(InsufficientAnchors, match="^frames 5-6: 1 static correspondences"):
        windows(insufficient_first, 10)
    # A window that ends before the bad pairs is fine.
    assert len(whole_window(degenerate_first.frames[:6], seq.intrinsics).origin_chain) == 5


def test_windows_estimates_origins_once_per_sequence(monkeypatch):
    calls = _recorded_origin_calls(monkeypatch)
    for n_frames, n, n_windows in ((20, 10, 11), (20, 2, 19), (12, None, 3)):
        seq = generate_scenario(ScenarioSpec("crossing", seed=4, n_frames=n_frames)).sequence
        assert len(windows(seq, n)) == n_windows
        assert len(calls) == 1 and len(calls.pop()) == n_frames - 1
    windows(seq, 1)  # no frame pair in any window
    assert calls == []


def _unlabelled_statics(seq: Sequence) -> Sequence:
    """``seq`` with ``gt_instance`` removed from every static object."""
    return Sequence(seq.intrinsics, tuple(
        FrameObservation(f.frame_index, tuple(
            o._replace(gt_instance=None) if o.category in STATIC_CATEGORIES else o
            for o in f.objects))
        for f in seq.frames))


@pytest.mark.parametrize("seed", (0, 1))
def test_unlabelled_static_anchors_pair_as_labelled_ones(seed, rules):
    # As `scenelogic gen --kind all --count 2`: unlabelled static objects
    # pair with their nearest neighbour, and every pairing equals the
    # labels'.
    for kind in KINDS:
        seq = generate_scenario(ScenarioSpec(kind, seed)).sequence
        bare = _unlabelled_statics(seq)
        assert any(o.category in STATIC_CATEGORIES and o.gt_instance is None
                   for o in bare.frames[0].objects)
        assert repr([w.origin_chain for w in windows(bare)]) == \
            repr([w.origin_chain for w in windows(seq)])
        labelled = process_sequence(seq, rules, "inferred")
        unlabelled = process_sequence(bare, rules, "inferred")
        assert labelled.keys() == unlabelled.keys()
        for (wf, sat), (bare_wf, bare_sat) in zip(labelled.values(), unlabelled.values()):
            assert bare_wf.facts == wf.facts and bare_sat == sat
            assert repr(sorted(bare_wf.provenance.items(), key=repr)) == \
                repr(sorted(wf.provenance.items(), key=repr))


def test_unlabelled_anchors_beyond_the_gate_leave_their_frame_pair_short():
    seq = _unlabelled_statics(generate_scenario(ScenarioSpec("crossing", 0)).sequence)
    frame = seq.frames[4]
    static = [o for o in frame.objects if o.category in STATIC_CATEGORIES]
    assert len(static) >= 3
    # All but the first static object move 100 gates deeper, out of reach
    # of every static object of the frames before and after.
    kept = static[0]
    shifted = FrameObservation(frame.frame_index, tuple(
        o._replace(depth_m=o.depth_m + 100 * NN_GATE_M)
        if o.category in STATIC_CATEGORIES and o is not kept else o
        for o in frame.objects))
    frames = seq.frames[:4] + (shifted,) + seq.frames[5:]
    with pytest.raises(InsufficientAnchors,
                       match=f"^frames {seq.frames[3].frame_index}-{frame.frame_index}: "
                             "1 static correspondences, need 2$"):
        windows(Sequence(seq.intrinsics, frames))


# ---------------------------------------------------------------------------
# (d) Tracks linked and BEV points computed once per sequence
# ---------------------------------------------------------------------------

def reloaded(frames):
    """Equal frames as new objects, with nothing cached on them."""
    seq = sequence_from_dict(sequence_to_dict(Sequence(INTR, tuple(frames))))
    return seq.frames


def track_rows(tracks):
    return [(t.instance_id, t.category, t.attributes, sorted(t.observations.items()))
            for t in tracks]


def compile_points(w, tracks):
    """Every observation's own-frame and window-frame point as
    ``compile_window`` reads them, from ``Sequence.bev`` and
    ``facts._cumulative``, in the shape of
    ``oracles.track_points_per_observation``."""
    bev = w.sequence.bev[w.start:w.start + w.n]
    own = [{pos: bev[pos].get(id(obs)) or scene.bev_of(obs, w.intrinsics)
            for pos, obs in t.observations.items()} for t in tracks]
    c, s, tx, tz = facts._cumulative([w]).T.tolist()
    return own, [{p: (c[p] * x - s[p] * z + tx[p], s[p] * x + c[p] * z + tz[p])
                  for p, (x, z) in points.items()} for points in own]


def compiled(w, tracks, rules):
    wf = compile_window(w, tracks, CompilerConfig(), rules)
    return wf.facts, wf.provenance


def flow_or_overlap():
    """Two vehicles a box apart moving one box right per frame: the
    flow-carried IoU links each to its own continuation, the raw IoU links
    the rear one to where the front one was.  The weights and the links
    depend on ``alpha``."""
    def frame(i):
        boxes = [(10.0 * (i + k), 0.0, 10.0 * (i + k + 1), 10.0) for k in (0, 1)]
        return FrameObservation(i, tuple(
            ObjectObservation("Vehicle", ((b[0] + b[2]) / 2, 5.0), b, 10.0, flow_px=(10.0, 0.0))
            for b in boxes))
    return tuple(frame(i) for i in range(4))


def identity_window(frames):
    return SceneWindow(Sequence(INTR, tuple(frames)), 0,
                       (Transform2.identity(),) * (len(frames) - 1))


def test_links_follow_alpha_on_shared_frames():
    frames = flow_or_overlap()
    w = identity_window(frames)  # one sequence, linked once per alpha
    results = {}
    for alpha in (1.0, 0.0, 0.5, 1.0):
        cfg = TrackerConfig(alpha=alpha)
        got = track_rows(link_window(w, "inferred", cfg))
        want = track_rows(link_window(identity_window(reloaded(frames)), "inferred", cfg))
        assert got == want
        results[alpha] = got
    assert results[1.0] != results[0.0]  # the scene tells the weights apart

    seq = generate_scenario(ScenarioSpec("crossing", seed=4, n_frames=14)).sequence
    fresh = windows(Sequence(seq.intrinsics, reloaded(seq.frames)), 10)
    for alpha in (0.5, 0.9, 0.5):
        cfg = TrackerConfig(alpha=alpha)
        for w, alone in zip(windows(seq, 10), fresh):
            assert track_rows(link_window(w, "inferred", cfg)) == \
                track_rows(link_window(alone, "inferred", cfg))


def test_points_follow_the_intrinsics_on_shared_frames(rules):
    seq = generate_scenario(ScenarioSpec("crossing", seed=4)).sequence
    k = seq.intrinsics
    other = replace(k, fx=k.fx * 1.25, cx=k.cx + 7.0)
    results = []
    # Two sequences share one frames tuple; the third pass reuses the
    # first sequence and its caches.
    shared = {k: seq, other: Sequence(other, seq.frames)}
    for intrinsics in (k, other, k):
        w = windows(shared[intrinsics], len(seq.frames))[0]
        alone = whole_window(reloaded(seq.frames), intrinsics)
        for mode in ("oracle", "inferred"):
            tracks, alone_tracks = link_window(w, mode), link_window(alone, mode)
            assert compile_points(w, tracks) == \
                oracles.track_points_per_observation(alone, alone_tracks)
            assert compiled(w, tracks, rules) == compiled(alone, alone_tracks, rules)
        results.append(compiled(w, tracks, rules)[1])
    assert results[0] != results[1]  # the intrinsics move the points


def test_a_frame_links_afresh_after_another_predecessor(rules):
    seq = generate_scenario(ScenarioSpec("crossing", seed=4, n_frames=10)).sequence
    frames = seq.frames
    link_window(whole_window(frames, seq.intrinsics), "inferred")  # links the frames once

    def without_an_agent(f):
        agent = next(o for o in f.objects if o.category not in STATIC_CATEGORIES)
        return FrameObservation(f.frame_index, tuple(o for o in f.objects if o is not agent))

    w = whole_window((without_an_agent(frames[0]),) + frames[1:], seq.intrinsics)
    fresh = reloaded(frames)
    alone = whole_window((without_an_agent(fresh[0]),) + fresh[1:], seq.intrinsics)
    tracks, alone_tracks = link_window(w, "inferred"), link_window(alone, "inferred")
    assert track_rows(tracks) == track_rows(alone_tracks)
    assert compiled(w, tracks, rules) == compiled(alone, alone_tracks, rules)
    assert track_rows(tracks) != track_rows(link_window(whole_window(frames, seq.intrinsics)))


GHOST_SCENES = {
    "appear": lambda: generate_scenario(ScenarioSpec("appear", seed=3, n_frames=16)).sequence,
    "disappear": lambda: generate_scenario(
        ScenarioSpec("disappear", seed=3, n_frames=16)).sequence,
    "crossing": lambda: generate_scenario(
        ScenarioSpec("crossing", seed=4, n_frames=16, object_count=4)).sequence,
    "occlusion_and_arrival": lambda: occlusion_and_arrival(n=16),
}


def whole(seq):
    """One window over all of the sequence's frames."""
    return SceneWindow(seq, 0, (Transform2.identity(),) * (len(seq.frames) - 1))


@pytest.mark.parametrize("scene", sorted(GHOST_SCENES))
def test_shared_links_and_points_equal_per_window_work(scene):
    """Each window's tracks are the per-window tracker's, run from scratch
    over the whole sequence and cut to the window."""
    seq = GHOST_SCENES[scene]()
    visits = []
    linked = oracles.link_inferred_per_window(
        whole(Sequence(seq.intrinsics, reloaded(seq.frames))), visits=visits)
    for w in windows(seq, 10):
        want = oracles.cut_tracks(linked, w.start, w.n)
        tracks = link_window(w, "inferred")
        assert track_rows(tracks) == track_rows(want)
        assert compile_points(w, tracks) == oracles.track_points_per_observation(w, tracks)
    if scene != "appear":
        assert sum(ghost for *_, ghost in visits) > 0


def test_each_frame_pair_is_weighed_once_and_each_assignment_solved_once(monkeypatch):
    seq = generate_scenario(ScenarioSpec("crossing", seed=4, n_frames=20)).sequence
    visits = []
    oracles.link_inferred_per_window(whole(seq), visits=visits)
    ghost_visits = sum(ghost for *_, ghost in visits)
    assert ghost_visits > 0

    built, weighed, solves = [], [], []
    solve = tracking._load_solver()
    monkeypatch.setattr(tracking, "box_arrays",
                        lambda objects, codes=None: built.append(list(objects))
                        or box_arrays(objects, codes))
    monkeypatch.setattr(tracking, "_weights",
                        lambda left, right, alpha: weighed.append(left.boxes.ndim)
                        or _weights(left, right, alpha))
    monkeypatch.setattr(tracking, "_solve",
                        lambda *args, **kw: solves.append(1) or solve(*args, **kw))
    for w in windows(seq, 10):
        link_window(w, "inferred")

    # One box table of every observation, then boxes of ghosts only, once
    # per frame pair visited with ghosts.
    observed = [o for f in seq.frames for o in f.objects]
    assert built[0] == observed
    assert len(built) - 1 == ghost_visits
    assert not {id(o) for ghosts in built[1:] for o in ghosts} & set(map(id, observed))
    # The frame pairs are weighed in one stacked batch, as they fit in its
    # budget, and ghost rows by one kernel call per visit.
    width = max(len(f.objects) for f in seq.frames)
    assert (len(seq.frames) - 1) * width ** 2 <= tracking.PAIR_BATCH_ENTRIES
    assert weighed.count(4) == 1
    assert weighed.count(3) == ghost_visits
    assert len(solves) == len(seq.frames) - 1


@pytest.mark.parametrize("mode", ["oracle", "inferred"])
def test_each_observations_bev_point_is_computed_once_per_sequence(monkeypatch, rules, mode):
    seq = generate_scenario(ScenarioSpec("crossing", seed=4, n_frames=20)).sequence
    calls = []

    def counted(obs, k):
        calls.append(id(obs))
        return bev_of(obs, k)

    monkeypatch.setattr(scene, "bev_of", counted)
    monkeypatch.setattr(facts, "bev_of", counted)
    assert len(process_sequence(seq, rules, mode, n=5)) == 16
    assert sorted(calls) == sorted(id(o) for f in seq.frames for o in f.objects)


# ---------------------------------------------------------------------------
# (e) Kinematics
# ---------------------------------------------------------------------------

def ref_kinematics(positions, fps):
    """The array formulas kinematics used before it went scalar."""
    pts = np.asarray(positions, dtype=float)
    velocity = np.sqrt((np.diff(pts, axis=0) ** 2).sum(axis=1)) * fps
    return (float(np.sqrt(((pts[-1] - pts[0]) ** 2).sum())), tuple(velocity.tolist()),
            tuple((np.diff(velocity) * fps).tolist()))


def test_kinematics_equal_array_reference():
    rng = np.random.default_rng(11)
    for case in range(400):
        n = int(rng.integers(2, 14))
        scale = 10.0 ** int(rng.integers(-3, 4))
        positions = (rng.normal(0, 20, (n, 2)) * scale).tolist()
        if case % 5 == 0:
            positions[1] = positions[0]  # a zero step
        k = CameraIntrinsics(800.0, 800.0, 640.0, 360.0, float(rng.choice([5.0, 10.0, 29.97])))
        kin = kinematics([tuple(p) for p in positions], k)
        assert (kin.displacement_total, kin.velocity, kin.accel) == \
            ref_kinematics(positions, k.fps)


def test_mean_evidence_equals_per_list_means(rules):
    """compile_window takes the means of all tracks of one length in one
    2-D call; each must equal np.mean of its own list, for lists long
    enough to be summed pairwise."""
    rng = np.random.default_rng(12)
    n = 24
    window = SceneWindow(Sequence(INTR, tuple(FrameObservation(i, ()) for i in range(n))), 0,
                         (Transform2.identity(),) * (n - 1))
    for _ in range(40):
        tracks = []
        for t in range(int(rng.integers(1, 5))):
            seen = sorted(rng.choice(n, int(rng.integers(1, n + 1)), replace=False).tolist())
            observations = {}
            for pos in seen:
                cx, cy = rng.uniform(5, 1270), rng.uniform(5, 700)
                observations[pos] = ObjectObservation(
                    "Vehicle", (cx, cy), (cx - 5, cy - 5, cx + 5, cy + 5),
                    float(rng.uniform(0.5, 80.0) * 10.0 ** int(rng.integers(-2, 3))))
            tracks.append(Trajectory(f"vehicle{t + 1:02d}", "Vehicle", observations))
        provenance = compile_window(window, tracks, CompilerConfig(), rules).provenance
        for t in tracks:
            observed = [o for _, o in t.frames_sorted()]
            name = (Const(t.instance_id),)
            x = next(ev["mean_centroid_x"] for f, ev in provenance.items()
                     if f.args == name and "mean_centroid_x" in ev)
            assert x == float(np.mean([o.centroid_px[0] for o in observed]))
            depth = float(np.mean([o.depth_m for o in observed]))
            if depth < CompilerConfig().close_depth:
                assert provenance[Literal("CloseToCamera", name)] == {"mean_depth_m": depth}


# ---------------------------------------------------------------------------
# (f) Per-track facts from the positions they read
# ---------------------------------------------------------------------------

def random_chain(rng, n):
    return tuple(Transform2(float(rng.uniform(-0.4, 0.4)),
                            (float(rng.normal(0, 2)), float(rng.normal(0, 2))))
                 for _ in range(n - 1))


def random_observation(rng):
    cx, cy = rng.uniform(20, 1260), rng.uniform(20, 700)
    return ObjectObservation("Vehicle", (cx, cy), (cx - 10, cy - 10, cx + 10, cy + 10),
                             float(rng.uniform(0.5, 60.0)))


def random_gap_tracks(rng, n, inside: bool):
    """A window of ``n`` frames under a random origin chain and tracks whose
    spans are 2, 3 or more frames, with interior gaps of random lengths.
    With ``inside`` the observations are their frames' objects; otherwise
    the frames hold other objects and the tracks fresh copies."""
    per_frame = [[random_observation(rng) for _ in range(int(rng.integers(0, 2)))]
                 for _ in range(n)]
    tracks = []
    for t in range(int(rng.integers(1, 6))):
        span = int(rng.choice([2, 3, int(rng.integers(4, n + 1))]))
        first = int(rng.integers(0, n - span + 1))
        interior = range(first + 1, first + span - 1)
        keep = rng.random(len(interior)) < rng.choice([0.0, 0.3, 0.7])
        seen = [first, *(p for p, k in zip(interior, keep) if k), first + span - 1]
        observations = {}
        for pos in rng.permutation(seen).tolist():
            obs = random_observation(rng)
            if inside:
                per_frame[pos].append(obs)
            else:
                per_frame[pos].append(obs._replace())
            observations[pos] = obs
        tracks.append(Trajectory(f"vehicle{t + 1:02d}", "Vehicle", observations))
    k = replace(INTR, fps=float(rng.choice([5.0, 10.0, 29.97])))
    frames = tuple(FrameObservation(i, tuple(objects)) for i, objects in enumerate(per_frame))
    return SceneWindow(Sequence(k, frames), 0, random_chain(rng, n)), tracks


@pytest.mark.parametrize("inside", [True, False], ids=["frame-objects", "outside-frames"])
def test_track_facts_equal_dense_kinematics_on_random_gaps(rules, inside):
    """Each track's displacement and speed change equal kinematics over its
    densely interpolated window points, bit for bit, and so do its facts
    and their evidence; observations outside their frames are
    back-projected, and the distance facts of such a list equal the
    per-pair loop's."""
    rng = np.random.default_rng(13 if inside else 14)
    cfg = CompilerConfig(eps_move=0.5, eps_speed=0.5)
    # Thresholds at the least positive float: every nonzero displacement
    # and speed change becomes evidence.
    tiny = CompilerConfig(eps_move=5e-324, eps_speed=5e-324)
    n = 12
    spans, gaps, emitted = set(), set(), set()
    for _ in range(150):
        w, tracks = random_gap_tracks(rng, n, inside)
        evidence = compile_window(w, tracks, tiny, rules).provenance
        for t, kin in zip(tracks, oracles.track_kinematics_per_observation(w, tracks)):
            keys = sorted(t.observations)
            spans.add(min(keys[-1] - keys[0] + 1, 4))
            gaps.update(b - a - 1 for a, b in zip(keys, keys[1:]) if b - a > 1)
            name = (Const(t.instance_id),)
            speed = (evidence.get(Literal("SpeedUp", name))
                     or evidence.get(Literal("SpeedDown", name), {"velocity_delta": 0.0}))
            got = (evidence.get(Literal("Moves", name), {"displacement_m": 0.0})["displacement_m"],
                   speed["velocity_delta"])
            want = (kin.displacement_total, kin.velocity[-1] - kin.velocity[0])
            assert repr(got) == repr(want)
        wf = compile_window(w, tracks, cfg, rules)
        want = oracles.track_facts_per_observation(w, tracks, cfg)
        assert {f for f in wf.facts if len(f.args) == 1} == {f for f, _ in want}
        assert repr([(f, ev) for f, ev in wf.provenance.items() if len(f.args) == 1]) == \
            repr([(f, ev) for f, ev in want if ev is not None])
        assert distance_part(wf) == ref_distance_facts(w, tracks, cfg)
        emitted.update(f.pred for f, _ in want)
    assert spans == {2, 3, 4}
    assert gaps == set(range(1, n - 1))
    assert {"Moves", "SpeedUp", "SpeedDown", "Appears", "Disappears"} <= emitted


def stand_in(**fields):
    """An observation reduced to the fields a helper reads."""
    return SimpleNamespace(**fields)


def random_mean_track(rng, length):
    scale = 10.0 ** int(rng.integers(-2, 4))
    if rng.random() < 0.2:  # integer pixels and depths
        xs, depths = rng.integers(0, 1280, length).tolist(), rng.integers(1, 90, length).tolist()
    else:
        xs = (rng.uniform(0, 1280, length) * scale).tolist()
        depths = (rng.uniform(0.1, 90, length) * scale).tolist()
    positions = sorted(rng.choice(3 * length, length, replace=False).tolist())
    return Trajectory("t", "Vehicle", {p: stand_in(centroid_px=(x, 0.0), depth_m=d)
                                       for p, x, d in zip(positions, xs, depths)})


def test_grouped_means_equal_per_track_means():
    """Tracks of equal length share one 2-D mean; each track's means equal
    np.mean of its own lists, for row lengths 1-40 in groups of 1-70
    tracks and in mixed lists."""
    rng = np.random.default_rng(15)
    cases = [[length] * g for length in range(1, 41)
             for g in (1, int(rng.integers(2, 70)), 70)]
    cases += [rng.integers(1, 41, int(rng.integers(1, 70))).tolist() for _ in range(100)]
    for lengths in cases:
        tracks = [random_mean_track(rng, length) for length in lengths]
        want, observed = [], []
        for t in tracks:
            own = [o for _, o in t.frames_sorted()]
            observed += own
            want.append((float(np.mean([o.centroid_px[0] for o in own])),
                         float(np.mean([o.depth_m for o in own]))))
        values = np.array([[o.centroid_px[0] for o in observed], [o.depth_m for o in observed]],
                          dtype=float)
        first = np.cumsum([0, *lengths[:-1]])
        # Entries in shuffled order, as windows list their tracks.
        order = rng.permutation(len(tracks))
        got = facts._means(values, first[order], np.array(lengths)[order]).T.tolist()
        assert repr([tuple(got[i]) for i in np.argsort(order)]) == repr(want)


# ---------------------------------------------------------------------------
# (g) The assignment solver, from scipy's extension file or scipy.optimize
# ---------------------------------------------------------------------------

def solved_matrices(monkeypatch) -> list:
    """Every frame-pair weight matrix that inferred tracking solves on the
    scenes of ``gen --kind all --count 2`` and on a 60-object scene, then
    random matrices with ties, rectangular shapes and empty sides."""
    matrices = []
    solve = tracking._load_solver()
    with monkeypatch.context() as m:
        m.setattr(tracking, "_solve",
                  lambda w, **kw: matrices.append(w.copy()) or solve(w, **kw))
        specs = [ScenarioSpec(kind, seed) for kind in KINDS for seed in (0, 1)]
        for spec in specs + [ScenarioSpec("crossing", 5, object_count=60)]:
            for w in windows(generate_scenario(spec).sequence):
                link_window(w, "inferred")
    rng = np.random.default_rng(19)
    shapes = [(0, 0), (0, 3), (3, 0), (1, 1)] + [tuple(rng.integers(1, 12, 2))
                                                 for _ in range(300)]
    for shape in shapes:
        # Few distinct values, so that many assignments tie.
        matrices.append(rng.integers(0, 3, shape) / 2.0)
        matrices.append(np.where(rng.random(shape) < 0.5, 0.0, rng.random(shape)))
    return matrices


def scipy_assignments(matrices) -> list:
    return [[a.tolist() for a in scipy.optimize.linear_sum_assignment(w, maximize=True)]
            for w in matrices]


def test_solver_from_the_extension_file_equals_scipy_optimize(tmp_path, monkeypatch):
    matrices = solved_matrices(monkeypatch)
    assert max(w.shape[0] for w in matrices) >= 60
    np.savez(tmp_path / "weights.npz", *matrices)
    # A fresh interpreter, so that the routine comes from the file and not
    # from the scipy.optimize this process has imported.
    out = run_fresh(
        "import json, sys\nimport numpy as np\nfrom scenelogic import tracking\n"
        "solve = tracking._load_solver()\n"
        f"weights = np.load({str(tmp_path / 'weights.npz')!r})\n"
        "got = [[a.tolist() for a in solve(weights[f'arr_{i}'], maximize=True)]\n"
        "       for i in range(len(weights.files))]\n"
        "print(json.dumps(['scipy.optimize' in sys.modules, got]))")
    optimize_loaded, got = json.loads(out)
    assert not optimize_loaded
    assert got == scipy_assignments(matrices)


@pytest.mark.parametrize("failure", ["missing", "unloadable"])
def test_solver_falls_back_to_scipy_optimize(monkeypatch, failure):
    matrices = solved_matrices(monkeypatch)
    want = scipy_assignments(matrices)
    if failure == "missing":
        monkeypatch.setattr(tracking, "EXTENSION_SUFFIXES", [".missing"])
    else:
        class Unloadable(tracking.ExtensionFileLoader):
            def create_module(self, spec):
                raise ImportError("cannot load")
        monkeypatch.setattr(tracking, "ExtensionFileLoader", Unloadable)
    solve, solves = scipy.optimize.linear_sum_assignment, []
    monkeypatch.setattr(scipy.optimize, "linear_sum_assignment",
                        lambda *args, **kw: solves.append(1) or solve(*args, **kw))
    monkeypatch.setattr(tracking, "_solve", None)
    # A weight floor of 0 keeps every assignment.
    got = [match_frames(w, 0.0).assignments for w in matrices]
    assert len(solves) == len(matrices)
    assert [[[i for i, _, _ in a], [j for _, j, _ in a]] for a in got] == want
