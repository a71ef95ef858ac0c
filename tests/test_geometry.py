"""Back-projection, rigid alignment of anchors, and kinematics."""

import math

import numpy as np
import pytest

from scenelogic.geometry import (
    CameraIntrinsics,
    DegenerateConfiguration,
    InsufficientAnchors,
    NonPositiveDepth,
    TooFewSamples,
    Transform2,
    back_project,
    estimate_origin,
    kinematics,
    to_bev,
)

K = CameraIntrinsics(fx=100.0, fy=100.0, cx=320.0, cy=240.0, fps=10.0)


# ---------------------------------------------------------------------------
# back_project / to_bev
# ---------------------------------------------------------------------------

def test_optical_center_maps_to_axis():
    assert back_project((K.cx, K.cy), 5.0, K) == (0.0, 0.0, 5.0)


def test_back_project_hand_value():
    assert back_project((420.0, 240.0), 5.0, K) == (5.0, 0.0, 5.0)


def test_back_project_rejects_nonpositive_depth():
    with pytest.raises(NonPositiveDepth):
        back_project((320.0, 240.0), -1.0, K)
    with pytest.raises(NonPositiveDepth):
        back_project((320.0, 240.0), 0.0, K)


def test_back_project_matches_closed_form_exactly():
    rng = np.random.default_rng(42)
    for _ in range(2000):
        x, y = rng.uniform(0, 640), rng.uniform(0, 480)
        z = rng.uniform(0.1, 80.0)
        got = back_project((x, y), z, K)
        assert got == ((x - K.cx) * z / K.fx, (y - K.cy) * z / K.fy, z)


def test_to_bev_drops_height():
    assert to_bev((1.0, 7.0, 3.0)) == (1.0, 3.0)
    assert to_bev((0.0, 0.0, 9.0)) == (0.0, 9.0)


def test_center_pixel_back_projects_onto_depth_axis():
    assert to_bev(back_project((K.cx, K.cy), 12.5, K)) == (0.0, 12.5)


# ---------------------------------------------------------------------------
# estimate_origin
# ---------------------------------------------------------------------------

def _apply_rigid(theta, t, pts):
    c, s = math.cos(theta), math.sin(theta)
    return [(c * x - s * z + t[0], s * x + c * z + t[1]) for x, z in pts]


ANCHORS = [(-8.0, 30.0), (10.0, 32.0), (-4.0, 12.0), (8.0, 16.0), (0.0, 20.0)]


def test_identical_anchor_sets_give_identity():
    tf = estimate_origin(ANCHORS, ANCHORS)
    assert tf.rotation_rad == pytest.approx(0.0, abs=1e-12)
    assert tf.translation_m == pytest.approx((0.0, 0.0), abs=1e-12)
    assert tf.residual_rms == pytest.approx(0.0, abs=1e-12)


def test_pure_translation_recovered():
    prev = ANCHORS[:3]
    curr = [(x - 1.0, z) for x, z in prev]
    tf = estimate_origin(prev, curr)
    assert abs(tf.rotation_rad) < 1e-9
    assert tf.translation_m[0] == pytest.approx(1.0, abs=1e-9)
    assert tf.translation_m[1] == pytest.approx(0.0, abs=1e-9)
    assert tf.residual_rms < 1e-9


def test_noiseless_rigid_transforms_recovered():
    rng = np.random.default_rng(3)
    for _ in range(200):
        n = rng.integers(2, 8)
        pts = [(float(x), float(z)) for x, z in rng.uniform(-20, 20, (n, 2))]
        if max(math.dist(p, pts[0]) for p in pts) < 1e-6:
            continue
        theta = float(rng.uniform(-0.5, 0.5))
        t = (float(rng.uniform(-3, 3)), float(rng.uniform(-3, 3)))
        curr = _apply_rigid(-theta, (0, 0), [(x - t[0], z - t[1]) for x, z in pts])
        tf = estimate_origin(pts, curr)
        assert tf.residual_rms < 1e-9
        for p, c in zip(pts, curr):
            assert math.dist(tf.transform(c), p) < 1e-8


def test_noisy_recovery_monte_carlo():
    rng = np.random.default_rng(7)
    sigma, n = 0.02, 5
    theta, t = 0.05, (0.4, -0.3)
    pts = np.asarray(ANCHORS)
    c, s = math.cos(theta), math.sin(theta)
    rot_inv = np.array([[c, s], [-s, c]])
    errors = []
    for _ in range(1000):
        curr = (pts - t) @ rot_inv.T + rng.normal(0, sigma, pts.shape)
        tf = estimate_origin(pts, curr)
        errors.append(math.dist(tf.translation_m, t))
    rms = math.sqrt(float(np.mean(np.square(errors))))
    assert rms < 3 * sigma / math.sqrt(n)


def test_insufficient_anchors():
    with pytest.raises(InsufficientAnchors):
        estimate_origin([(0.0, 1.0)], [(0.0, 1.0)])


def test_coincident_anchors_degenerate():
    with pytest.raises(DegenerateConfiguration):
        estimate_origin([(1.0, 1.0), (1.0, 1.0)], [(2.0, 2.0), (2.0, 2.0)])


def test_chain_composition_keeps_static_point_fixed():
    # Camera translating 0.2 m forward per frame with slight rotation.
    theta_step, t_step = 0.01, (0.05, 0.2)
    world = ANCHORS
    frames = [world]
    for _ in range(9):
        prev = frames[-1]
        c, s = math.cos(theta_step), math.sin(theta_step)
        frames.append([
            ((x - t_step[0]) * c + (z - t_step[1]) * s,
             -(x - t_step[0]) * s + (z - t_step[1]) * c)
            for x, z in prev
        ])
    cumulative = Transform2.identity()
    spread = []
    for i in range(9):
        link = estimate_origin(frames[i], frames[i + 1])
        cumulative = cumulative.compose(link) if i else link
        spread.append(math.dist(cumulative.transform(frames[i + 1][0]), world[0]))
    assert max(spread) < 10 * 1e-9


# ---------------------------------------------------------------------------
# kinematics
# ---------------------------------------------------------------------------

def test_stationary_object_has_zero_motion():
    kin = kinematics([(1.0, 5.0)] * 10, K)
    assert kin.displacement_total == 0.0
    assert all(v == 0.0 for v in kin.velocity)


def test_uniform_motion_hand_value():
    kin = kinematics([(0.0, float(i)) for i in range(10)], K)
    assert kin.velocity == pytest.approx((10.0,) * 9)
    assert kin.accel == pytest.approx((0.0,) * 8, abs=1e-9)
    assert kin.displacement_total == pytest.approx(9.0)


def test_single_position_is_too_few():
    with pytest.raises(TooFewSamples):
        kinematics([(0.0, 0.0)], K)


def test_constant_velocity_track_has_tiny_accel():
    rng = np.random.default_rng(11)
    for _ in range(50):
        v = rng.uniform(-5, 5, 2)
        p0 = rng.uniform(-10, 10, 2)
        pts = [tuple(p0 + v * (i / K.fps)) for i in range(10)]
        kin = kinematics(pts, K)
        assert max(abs(a) for a in kin.accel) < 1e-9


def test_transform_compose_matches_sequential_application():
    a = Transform2(0.3, (1.0, -2.0))
    b = Transform2(-0.1, (0.5, 4.0))
    p = (3.0, 7.0)
    via_compose = a.compose(b).transform(p)
    sequential = a.transform(b.transform(p))
    assert via_compose == pytest.approx(sequential, abs=1e-12)
