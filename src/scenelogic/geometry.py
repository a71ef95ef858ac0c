"""Camera geometry: pinhole back-projection, bird's-eye reduction, rigid
alignment of static anchors, and finite-difference kinematics."""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np


class NonPositiveDepth(ValueError):
    pass


class InsufficientAnchors(ValueError):
    pass


class DegenerateConfiguration(ValueError):
    pass


class TooFewSamples(ValueError):
    pass


@dataclass(frozen=True)
class CameraIntrinsics:
    fx: float
    fy: float
    cx: float
    cy: float
    fps: float

    def __post_init__(self):
        for name in ("fx", "fy", "cx", "cy", "fps"):
            if not math.isfinite(getattr(self, name)):
                raise ValueError(f"intrinsics {name} must be finite, got {getattr(self, name)}")
        if self.fx <= 0 or self.fy <= 0:
            raise ValueError("focal lengths must be positive")
        if self.fps <= 0:
            raise ValueError("fps must be positive")


@dataclass(frozen=True)
class Transform2:
    """Rigid motion of the ground plane: rotation about the vertical axis
    followed by translation, mapping one frame's coordinates into another's."""

    rotation_rad: float
    translation_m: tuple[float, float]
    residual_rms: float = 0.0

    def __post_init__(self):
        if not -math.pi < self.rotation_rad <= math.pi:
            raise ValueError("rotation must be normalized to (-pi, pi]")

    @staticmethod
    def identity() -> "Transform2":
        return Transform2(0.0, (0.0, 0.0))

    def transform(self, point) -> tuple[float, float]:
        c, s = math.cos(self.rotation_rad), math.sin(self.rotation_rad)
        x, z = point
        tx, tz = self.translation_m
        return (c * x - s * z + tx, s * x + c * z + tz)

    def compose(self, other: "Transform2") -> "Transform2":
        """self after other: (self.compose(other)).transform(p) ==
        self.transform(other.transform(p))."""
        angle = _wrap_angle(self.rotation_rad + other.rotation_rad)
        tx, tz = self.transform(other.translation_m)
        return Transform2(angle, (tx, tz))


def _wrap_angle(a: float) -> float:
    a = math.remainder(a, 2.0 * math.pi)
    if a <= -math.pi:
        a = math.pi
    return a


def back_project(px, depth: float, k: CameraIntrinsics) -> tuple[float, float, float]:
    """Pixel plus depth to camera-frame 3D point through the pinhole model."""
    if depth <= 0:
        raise NonPositiveDepth(f"depth must be positive, got {depth}")
    x, y = px
    return ((x - k.cx) * depth / k.fx, (y - k.cy) * depth / k.fy, depth)


def to_bev(p) -> tuple[float, float]:
    """Drop the height axis, keeping the ground-plane coordinates."""
    return (p[0], p[2])


def estimate_origin(static_prev, static_curr) -> Transform2:
    """Least-squares rigid transform taking current-frame anchor positions
    onto the previous frame's, fixing a shared temporary origin.

    Requires two or more corresponding anchors; raises
    DegenerateConfiguration when the anchors are all coincident (rotation
    unobservable).
    """
    prev = np.asarray(static_prev, dtype=float)
    curr = np.asarray(static_curr, dtype=float)
    if prev.ndim != 2 or prev.shape != curr.shape or prev.shape[1] != 2:
        raise ValueError("anchor lists must be equal-length sequences of (X, Z) pairs")
    n = prev.shape[0]
    if n < 2:
        raise InsufficientAnchors(f"need at least 2 anchor correspondences, got {n}")

    cp = prev.mean(axis=0)
    cc = curr.mean(axis=0)
    dp = prev - cp
    dc = curr - cc

    if float((dc ** 2).sum()) < 1e-18 or float((dp ** 2).sum()) < 1e-18:
        raise DegenerateConfiguration("anchors are coincident; rotation unobservable")
    num = float(dc[:, 0] @ dp[:, 1] - dc[:, 1] @ dp[:, 0])
    den = float(dc[:, 0] @ dp[:, 0] + dc[:, 1] @ dp[:, 1])
    theta = math.atan2(num, den)

    c, s = math.cos(theta), math.sin(theta)
    rot = np.array([[c, -s], [s, c]])
    t = cp - rot @ cc
    mapped = curr @ rot.T + t
    residual = float(np.sqrt(np.mean(np.sum((mapped - prev) ** 2, axis=1))))
    return Transform2(_wrap_angle(theta), (float(t[0]), float(t[1])), residual)


@dataclass(frozen=True)
class Kinematics:
    displacement_total: float
    velocity: tuple[float, ...]  # per step, m/s
    accel: tuple[float, ...]  # per step pair, m/s^2


def kinematics(positions, k: CameraIntrinsics) -> Kinematics:
    """Finite-difference speed and acceleration along a positions series.

    ``positions`` are (X, Z) pairs in the common window frame, one per frame.
    A window holds about ten of them, too few for arrays to pay off, so the
    arithmetic is scalar.
    """
    pts = [(float(x), float(z)) for x, z in positions]
    if len(pts) < 2:
        raise TooFewSamples("kinematics needs at least 2 positions")
    velocity = tuple(distance(a, b) * k.fps for a, b in zip(pts, pts[1:]))
    accel = tuple((v1 - v0) * k.fps for v0, v1 in zip(velocity, velocity[1:]))
    return Kinematics(distance(pts[0], pts[-1]), velocity, accel)


def distance(a, b) -> float:
    """The distance from point ``a`` to point ``b``, both (X, Z)."""
    dx, dz = b[0] - a[0], b[1] - a[1]
    # dx * dx, not dx ** 2: float power can differ from the product in the
    # last bit.
    return math.sqrt(dx * dx + dz * dz)
