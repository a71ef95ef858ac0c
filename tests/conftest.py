"""Shared fixtures: the default ruleset, a tiny scene builder for
hand-specified windows (static camera, fixed anchor set), and a runner for
code that must start in a fresh interpreter."""

import os
import subprocess
import sys

import pytest

import scenelogic
from scenelogic.geometry import CameraIntrinsics
from scenelogic.logicpad import default_ruleset
from scenelogic.scene import FrameObservation, ObjectObservation, Sequence, windows

INTR = CameraIntrinsics(fx=500.0, fy=500.0, cx=320.0, cy=240.0, fps=10.0)


@pytest.fixture(scope="session")
def rules():
    return default_ruleset()


def project(x, z, y_center=0.3, width=1.8, height=1.4):
    """Pinhole projection of a world (X, Z) box into (centroid, bbox, depth)."""
    px = INTR.cx + INTR.fx * x / z
    py = INTR.cy + INTR.fy * y_center / z
    hw = 0.5 * width * INTR.fx / z
    hh = 0.5 * height * INTR.fy / z
    return (px, py), (px - hw, py - hh, px + hw, py + hh), z


def make_sequence(objects, n=10, include_anchors=True, start_index=0):
    """Build a Sequence from world-space tracks with a static camera.

    ``objects`` maps name -> dict(category, track=[(x, z) | None per frame],
    attributes=None, y_center, width, height).  Flow is exact pixel motion.
    """
    anchor_rows = []
    if include_anchors:
        anchor_rows = [
            ("building01", "Building", (-8.0, 30.0), -2.0, 6.0, 8.0),
            ("building02", "Building", (10.0, 32.0), -2.0, 6.0, 8.0),
            ("pole01", "Pole", (-4.0, 12.0), -1.0, 0.3, 4.0),
        ]

    frames = []
    for i in range(n):
        obs = []
        for name, spec in objects.items():
            track = spec["track"]
            if track[i] is None:
                continue
            x, z = track[i]
            centroid, bbox, depth = project(
                x, z, spec.get("y_center", 0.3),
                spec.get("width", 1.8), spec.get("height", 1.4),
            )
            flow = None
            if i + 1 < n and track[i + 1] is not None:
                nxt, _, _ = project(
                    track[i + 1][0], track[i + 1][1], spec.get("y_center", 0.3),
                    spec.get("width", 1.8), spec.get("height", 1.4),
                )
                flow = (nxt[0] - centroid[0], nxt[1] - centroid[1])
            obs.append(ObjectObservation(
                category=spec["category"], centroid_px=centroid, bbox=bbox,
                depth_m=depth, gt_instance=name, flow_px=flow,
                attributes=spec.get("attributes"),
            ))
        for name, cat, (x, z), yc, w, h in anchor_rows:
            centroid, bbox, depth = project(x, z, yc, w, h)
            obs.append(ObjectObservation(
                category=cat, centroid_px=centroid, bbox=bbox, depth_m=depth,
                gt_instance=name, flow_px=(0.0, 0.0) if i + 1 < n else None,
            ))
        frames.append(FrameObservation(start_index + i, tuple(obs)))
    return Sequence(INTR, tuple(frames))


def whole_window(frames, k=INTR):
    """The one window over all of ``frames``, a sequence of their own, with
    its estimated origin chain."""
    frames = tuple(frames)
    return windows(Sequence(k, frames), len(frames))[0]


def linear_track(start, velocity, n=10, fps=10.0, hidden=()):
    xs = []
    for i in range(n):
        if i in hidden:
            xs.append(None)
        else:
            t = i / fps
            xs.append((start[0] + velocity[0] * t, start[1] + velocity[1] * t))
    return xs


def run_fresh(code: str) -> str:
    """Standard output of ``code`` run by a new interpreter that imports this
    checkout's package."""
    src = os.path.dirname(os.path.dirname(os.path.abspath(scenelogic.__file__)))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH")) if p))
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                         text=True, timeout=120)
    assert out.returncode == 0, out.stderr
    return out.stdout
