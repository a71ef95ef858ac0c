"""Ground-fact compilation: evaluate every atomic predicate over a window's
trajectories and geometry."""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .fol import Const, Literal
from .geometry import kinematics
from .inference import FactSet
from .logicpad import RuleSet
from .scene import STATIC_CATEGORIES, SURFACE_CATEGORIES, SceneWindow, bev_of
from .tracking import Trajectory, presence


class UndeclaredCategory(ValueError):
    pass


@dataclass(frozen=True)
class CompilerConfig:
    eps_move: float = 0.1  # m of net displacement before Moves holds
    eps_speed: float = 0.2  # m/s of end-vs-start speed change
    eps_contact: float = 0.5  # m final separation for "to zero"
    close_depth: float = 10.0  # m mean depth for CloseToCamera
    left_frac: float = 1.0 / 3.0
    right_frac: float = 2.0 / 3.0
    trend_frac: float = 0.7  # fraction of steps a distance trend must hold
    image_width: float | None = None  # None: twice the optical center x

    def __post_init__(self):
        if min(self.eps_move, self.eps_speed, self.eps_contact,
               self.close_depth, self.trend_frac) <= 0:
            raise ValueError("thresholds must be positive")
        if not self.left_frac < self.right_frac:
            raise ValueError("left_frac must be below right_frac")


@dataclass
class WindowFacts:
    window_id: int
    facts: FactSet
    provenance: dict  # Literal -> numeric evidence
    window: SceneWindow | None = None
    tracks: list[Trajectory] | None = None


def _track_points(w: SceneWindow, tracks: list[Trajectory]):
    """Every track observation's BEV point, in its own frame's coordinates
    and in the window's (frame 0's), each as one dict per track from window
    position to point.

    Points are read from the frames' ``bev`` caches; an observation that is
    not one of its frame's objects is back-projected.  The window mapping is
    ``Transform2.transform``'s arithmetic with each frame's cosine and sine
    taken once, so equal to it bit for bit.
    """
    k = w.intrinsics
    frames = [(f.bev(k), math.cos(c.rotation_rad), math.sin(c.rotation_rad),
               *c.translation_m) for f, c in zip(w.frames, w.cumulative())]
    own, window = [], []
    for t in tracks:
        own_t, window_t = {}, {}
        for pos, obs in t.observations.items():
            points, c, s, tx, tz = frames[pos]
            x, z = own_t[pos] = points.get(id(obs)) or bev_of(obs, k)
            window_t[pos] = (c * x - s * z + tx, s * x + c * z + tz)
        own.append(own_t)
        window.append(window_t)
    return own, window


def _distance_trends(bev: list[dict], n: int):
    """The distance series of every track pair over the frames where both
    are observed, each distance in that frame's own coordinates (rigid
    camera motion cannot change it).

    ``bev[t]`` maps track t's window positions to BEV points.  Returns, for
    the pairs ``ia < ib`` with two or more common frames: the number of
    steps between consecutive common frames, how many of them decrease and
    increase the distance, and the first and last distances.
    """
    rows = [t for t, keyed in enumerate(bev) for _ in keyed]
    cols = [pos for keyed in bev for pos in keyed]
    pts = np.zeros((len(bev), n, 2))
    seen = np.zeros((len(bev), n), dtype=bool)
    pts[rows, cols] = np.array([p for keyed in bev for p in keyed.values()]).reshape(-1, 2)
    seen[rows, cols] = True
    ia, ib = np.triu_indices(len(bev), 1)
    both = seen[ia] & seen[ib]
    common = both.sum(axis=1)
    keep = common >= 2
    ia, ib, both, steps = ia[keep], ib[keep], both[keep], common[keep] - 1
    diff = pts[ia] - pts[ib]
    d = np.hypot(diff[..., 0], diff[..., 1])
    # For each frame, the latest common frame up to it (-1 before the first).
    latest = np.maximum.accumulate(np.where(both, np.arange(n), -1), axis=1)
    prev = np.take_along_axis(d, np.maximum(latest[:, :-1], 0), axis=1)
    step = both[:, 1:] & (latest[:, :-1] >= 0)
    dec = (step & (d[:, 1:] < prev)).sum(axis=1)
    inc = (step & (d[:, 1:] > prev)).sum(axis=1)
    pair = np.arange(len(d))
    first = d[pair, both.argmax(axis=1)]
    last = d[pair, latest[:, -1]]
    return ia.tolist(), ib.tolist(), steps, dec, inc, first, last


def _dense_positions(keyed: dict[int, tuple[float, float]]) -> list[tuple[float, float]]:
    """Fill interior occlusion gaps by linear interpolation."""
    keys = sorted(keyed)
    first, last = keys[0], keys[-1]
    dense = []
    for p in range(first, last + 1):
        if p in keyed:
            dense.append(keyed[p])
        else:
            lo = max(k for k in keys if k < p)
            hi = min(k for k in keys if k > p)
            f = (p - lo) / (hi - lo)
            a, b = keyed[lo], keyed[hi]
            dense.append((a[0] + f * (b[0] - a[0]), a[1] + f * (b[1] - a[1])))
    return dense


def _vocab_constant(rules: RuleSet, section: str, value: str) -> str:
    return rules.vocabulary.get(section, {}).get(str(value).lower(), str(value))


def _bottom_mid(bbox) -> tuple[float, float]:
    return ((bbox[0] + bbox[2]) / 2.0, bbox[3])


def _contains(bbox, pt) -> bool:
    return bbox[0] <= pt[0] <= bbox[2] and bbox[1] <= pt[1] <= bbox[3]


def compile_window(w: SceneWindow, tracks: list[Trajectory],
                   cfg: CompilerConfig = CompilerConfig(),
                   rules: RuleSet | None = None) -> WindowFacts:
    """Evaluate the atomic predicate catalog over the window's trajectories."""
    facts: list[Literal] = []
    provenance: dict = {}

    def emit(pred: str, *args: str, **evidence):
        lit = Literal(pred, tuple(map(Const, args)))
        facts.append(lit)
        if evidence:
            provenance[lit] = evidence

    if rules is not None:
        declared = {d.name for d in rules.atomic_predicates()}
        for t in tracks:
            if t.category not in declared:
                raise UndeclaredCategory(
                    f"{t.instance_id}: category {t.category!r} is not a declared atomic predicate"
                )

    k = w.intrinsics
    width = cfg.image_width if cfg.image_width is not None else 2.0 * k.cx

    bev, positions = _track_points(w, tracks)

    for t, window_points in zip(tracks, positions):
        name = t.instance_id
        emit(t.category, name)

        flags = presence(t, w.n)
        if flags.appears:
            emit("Appears", name, first_frame=flags.first_frame)
        if flags.disappears:
            emit("Disappears", name, last_frame=flags.last_frame)

        dense = _dense_positions(window_points)
        if len(dense) >= 2:
            kin = kinematics(dense, k)
            if kin.displacement_total > cfg.eps_move:
                emit("Moves", name, displacement_m=kin.displacement_total)
            delta = kin.velocity[-1] - kin.velocity[0]
            if delta > cfg.eps_speed:
                emit("SpeedUp", name, velocity_delta=delta)
            elif -delta > cfg.eps_speed:
                emit("SpeedDown", name, velocity_delta=delta)

        # One call for both means: each row of a 2-D mean is summed exactly
        # as np.mean sums that row alone.
        observed = [obs for _, obs in t.frames_sorted()]
        mean_x, mean_depth = np.mean([[o.centroid_px[0] for o in observed],
                                      [o.depth_m for o in observed]], axis=1).tolist()
        if mean_x < width * cfg.left_frac:
            emit("AtLeft", name, mean_centroid_x=mean_x)
        elif mean_x > width * cfg.right_frac:
            emit("AtRight", name, mean_centroid_x=mean_x)
        else:
            emit("AtCenter", name, mean_centroid_x=mean_x)

        if mean_depth < cfg.close_depth:
            emit("CloseToCamera", name, mean_depth_m=mean_depth)

        if "color" in t.attributes:
            emit("ColOfRel", name, _vocab_constant(rules, "colors", t.attributes["color"])
                 if rules else str(t.attributes["color"]))
        if "type" in t.attributes:
            emit("TypeOfRel", name, _vocab_constant(rules, "types", t.attributes["type"])
                 if rules else str(t.attributes["type"]))

    # Pairwise relations over frames where both instances are observed.
    ia, ib, steps, dec, inc, first, last = _distance_trends(bev, w.n)
    decreases = (dec / steps >= cfg.trend_frac) & (first - last > cfg.eps_move)
    increases = (inc / steps >= cfg.trend_frac) & (last - first > cfg.eps_move)
    first, last = first.tolist(), last.tolist()
    for p in np.flatnonzero(decreases | increases).tolist():
        a, b = tracks[ia[p]], tracks[ib[p]]
        if decreases[p]:
            for x, y in ((a, b), (b, a)):
                emit("DistanceDecreases", x.instance_id, y.instance_id,
                     initial_m=first[p], final_m=last[p])
                if last[p] < cfg.eps_contact:
                    emit("DistanceDecreasesToZero", x.instance_id,
                         y.instance_id, final_m=last[p])
        if increases[p]:
            for x, y in ((a, b), (b, a)):
                emit("DistanceIncreases", x.instance_id, y.instance_id,
                     initial_m=first[p], final_m=last[p])

    # Support relations: only tracked dynamic objects rest on surfaces.
    for a in tracks:
        if a.category in STATIC_CATEGORIES:
            continue
        for s in tracks:
            if s.category not in SURFACE_CATEGORIES or s is a:
                continue
            common = sorted(set(a.observations) & set(s.observations))
            if not common:
                continue
            hits = sum(
                1 for p in common
                if _contains(s.observations[p].bbox, _bottom_mid(a.observations[p].bbox))
            )
            if hits / len(common) > 0.5:
                emit("On", a.instance_id, s.instance_id,
                     containment_frac=hits / len(common))

    fact_set = FactSet(frozenset(facts), w.window_id)
    return WindowFacts(w.window_id, fact_set, provenance, window=w, tracks=list(tracks))

