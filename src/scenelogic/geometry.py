"""Camera geometry: pinhole back-projection, bird's-eye reduction, rigid
alignment of static anchors, and finite-difference kinematics.

``estimate_origin`` checks the anchors it is given; ``estimate_origins``, the
stacked pass behind it and each sequence's origin chain, does not."""

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

    The lists are checked first: values that are not numbers raise numpy's
    error, lists that are not equal-length (X, Z) pairs ValueError, and
    fewer than two anchors InsufficientAnchors.  Coincident anchors
    (rotation unobservable) raise DegenerateConfiguration.
    """
    prev = np.asarray(static_prev, dtype=float)
    curr = np.asarray(static_curr, dtype=float)
    if prev.ndim != 2 or prev.shape != curr.shape or prev.shape[1] != 2:
        raise ValueError("anchor lists must be equal-length sequences of (X, Z) pairs")
    if len(prev) < 2:
        raise InsufficientAnchors(f"need at least 2 anchor correspondences, got {len(prev)}")
    return estimate_origins([(prev, curr)])[0]


def estimate_origins(pairs) -> list[Transform2]:
    """``estimate_origin`` of each ``(static_prev, static_curr)`` pair, in
    one stacked numpy pass per anchor count.

    Each pair must hold two equal lists of two or more (X, Z) points, as
    ``scene._origin_chain`` builds them.  Each transform is bit-identical
    to one estimated alone: every reduction and product runs along the
    same axis with the same memory layout, and the angle's trigonometry is
    ``math``'s, per pair.  If any pair fails, the first one that does
    raises what it would raise alone.
    """
    pairs = list(pairs)
    results: list = [None] * len(pairs)
    groups: dict[int, list[int]] = {}
    for i, (static_prev, _) in enumerate(pairs):
        groups.setdefault(len(static_prev), []).append(i)
    for idx in groups.values():
        m = len(idx)
        both = np.array([[pairs[i][0] for i in idx], [pairs[i][1] for i in idx]], dtype=float)
        if both.ndim != 4 or both.shape[2] < 2 or both.shape[3] != 2:
            raise ValueError("anchor pairs must be equal lists of two or more (X, Z) points")

        prev, curr = both  # (m, n, 2) each
        cp, cc = centre = both.mean(axis=2)
        dp, dc = d = both - centre[:, :, None]
        degenerate = ((d ** 2).reshape(2, m, -1).sum(axis=2) < 1e-18).any(axis=0).tolist()
        # dots[k, i, j] = dc[k, :, i] @ dp[k, :, j]: each a (1, n) by (n, 1)
        # product of strided columns, as the per-pair column dot products are
        cols_c, cols_p = dc.transpose(0, 2, 1), dp.transpose(0, 2, 1)
        dots = np.matmul(cols_c[:, :, None, None, :], cols_p[:, None, :, :, None])[..., 0, 0]
        num = (dots[:, 0, 1] - dots[:, 1, 0]).tolist()
        den = (dots[:, 0, 0] + dots[:, 1, 1]).tolist()
        theta = list(map(math.atan2, num, den))
        rot = np.array([[[c, -s], [s, c]]
                        for c, s in zip(map(math.cos, theta), map(math.sin, theta))])
        t = cp - np.matmul(rot, cc[:, :, None])[:, :, 0]
        mapped = np.matmul(curr, rot.transpose(0, 2, 1)) + t[:, None]
        residual = np.sqrt(((mapped - prev) ** 2).sum(axis=2).mean(axis=1)).tolist()
        for i, bad, angle, shift, rms in zip(idx, degenerate, theta, t.tolist(), residual):
            if bad:
                results[i] = DegenerateConfiguration(
                    "anchors are coincident; rotation unobservable")
                continue
            try:
                results[i] = Transform2(_wrap_angle(angle), tuple(shift), rms)
            except ValueError as e:  # a NaN anchor makes a NaN angle
                results[i] = e

    for r in results:
        if isinstance(r, Exception):
            raise r
    return results


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
