"""Synthetic scenario generation with ground-truth facts and QA items.

Each scenario is one window of kinematically exact trajectories projected
through the pinhole model into the annotation format.  Ground-truth facts are
computed from the generating kinematics, not from the pipeline, so a perfect
pipeline must reproduce them exactly.
"""

from __future__ import annotations

import json
import random
from dataclasses import asdict, dataclass, field

import numpy as np

from .evaluation import QAItem
from .facts import CompilerConfig
from .fol import Const, Literal
from .geometry import CameraIntrinsics
from .scene import (
    STATIC_CATEGORIES,
    SURFACE_CATEGORIES,
    FrameObservation,
    ObjectObservation,
    Sequence,
    save_annotation,
)
from .tracking import ordinal_ids

DEFAULT_INTRINSICS = CameraIntrinsics(fx=500.0, fy=500.0, cx=320.0, cy=240.0, fps=10.0)

KINDS = (
    "constant_speed", "accelerate", "decelerate", "stop", "approach",
    "collide", "appear", "disappear", "crossing", "static",
)

_COLORS = ("White", "Black", "Blue", "Red", "Green", "Silver", "Yellow", "Gray")
_TYPES = ("Car", "SUV", "Bus", "Truck", "Van")

# Fixed pixel extents of the two surface regions.
_ROAD_BBOX = (200.0, 250.0, 520.0, 478.0)
_SIDEWALK_BBOX = (60.0, 255.0, 180.0, 478.0)


class InvalidSpec(ValueError):
    pass


@dataclass(frozen=True)
class ScenarioSpec:
    kind: str
    seed: int
    n_frames: int = 10
    object_count: int = 2
    intrinsics: CameraIntrinsics = DEFAULT_INTRINSICS

    def __post_init__(self):
        if self.kind not in KINDS:
            raise InvalidSpec(f"unknown kind {self.kind!r}; choose one of {KINDS}")
        if self.n_frames < 3:
            raise InvalidSpec("scenarios need at least 3 frames")
        if self.object_count < 1:
            raise InvalidSpec("object_count must be at least 1")


@dataclass
class Scenario:
    spec: ScenarioSpec
    sequence: Sequence
    gold_atomic: frozenset[Literal]
    gold_derived: frozenset[Literal]
    qa: list[QAItem]


# ---------------------------------------------------------------------------
# World model
# ---------------------------------------------------------------------------

@dataclass
class _WorldObject:
    category: str
    width_m: float
    height_m: float
    y_center_m: float  # vertical center, meters below the camera axis
    track: list  # world (X, Z) per frame; None when absent from the scene
    attributes: dict | None = None
    fixed_bbox: tuple | None = None  # surfaces keep a constant pixel bbox
    name: str = ""
    # filled during assembly
    centroids: dict = field(default_factory=dict)
    bboxes: dict = field(default_factory=dict)
    depths: dict = field(default_factory=dict)

    def visible(self) -> list[int]:
        return [i for i, p in enumerate(self.track) if p is not None]


def _linear(start, velocity, times):
    return [(start[0] + velocity[0] * t, start[1] + velocity[1] * t) for t in times]


def _quadratic_z(x, z0, v0, a, times):
    return [(x, z0 + v0 * t + 0.5 * a * t * t) for t in times]


def _mask(track, visible_frames):
    return [p if i in visible_frames else None for i, p in enumerate(track)]


def _anchors(times) -> list[_WorldObject]:
    static = lambda x, z: [(x, z) for _ in times]
    return [
        _WorldObject("Building", 6.0, 8.0, -2.0, static(-8.0, 30.0)),
        _WorldObject("Building", 6.0, 8.0, -2.0, static(10.0, 32.0)),
        _WorldObject("Pole", 0.3, 4.0, -1.0, static(-4.0, 12.0)),
        _WorldObject("Vegetation", 2.0, 3.0, -0.5, static(8.0, 16.0)),
        _WorldObject("Road", 8.0, 0.05, 1.2, static(0.0, 20.0), fixed_bbox=_ROAD_BBOX),
        _WorldObject("Sidewalk", 2.0, 0.05, 1.2, static(-4.5, 12.0),
                     fixed_bbox=_SIDEWALK_BBOX),
    ]


def _vehicle(track, color, vtype) -> _WorldObject:
    return _WorldObject("Vehicle", 1.8, 1.4, 0.3, track,
                        attributes={"color": color, "type": vtype})


def _pedestrian(track, color) -> _WorldObject:
    return _WorldObject("Pedestrian", 0.6, 1.7, 0.2, track,
                        attributes={"color": color})


def _build_world(spec: ScenarioSpec, rng: random.Random):
    """Lay out the scene for the requested kind.  Returns (objects, ego_speed)."""
    n = spec.n_frames
    fps = spec.intrinsics.fps
    times = [i / fps for i in range(n)]
    colors = rng.sample(_COLORS, 4)
    types = rng.sample(_TYPES, 3)
    kind = spec.kind
    ego = 0.0
    objs: list[_WorldObject]

    if kind == "constant_speed":
        ego = 2.0
        a = _vehicle(_linear((0.8, 9.0), (0.0, 8.0), times), colors[0], types[0])
        b = _vehicle(_linear((-1.2, 22.0), (0.0, 2.0), times), colors[1], types[1])
        objs = [a, b]
    elif kind == "accelerate":
        a = _vehicle(_quadratic_z(0.8, 9.0, 4.0, 20.0 / 3.0, times), colors[0], types[0])
        b = _vehicle(_linear((-1.2, 12.0), (0.0, 5.0), times), colors[1], types[1])
        objs = [a, b]
    elif kind == "decelerate":
        a = _vehicle(_quadratic_z(0.8, 9.0, 10.0, -20.0 / 3.0, times), colors[0], types[0])
        b = _vehicle(_linear((-1.2, 12.0), (0.0, 5.0), times), colors[1], types[1])
        objs = [a, b]
    elif kind == "stop":
        ego = 1.5
        a = _vehicle(_linear((0.8, 9.0), (0.0, 0.0), times), colors[0], types[0])
        b = _pedestrian(_linear((-4.4, 12.0), (0.0, 1.4), times), colors[1])
        objs = [a, b]
    elif kind == "approach":
        a = _pedestrian(_linear((-5.2, 14.0), (29.0 / 9.0, 0.0), times), colors[0])
        b = _vehicle(_linear((0.5, 14.0), (0.0, 0.0), times), colors[1], types[0])
        objs = [a, b]
    elif kind == "collide":
        a = _vehicle(_linear((0.5, 7.8), (0.0, 23.0 / 3.0), times), colors[0], types[0])
        b = _vehicle(_linear((0.5, 15.0), (0.0, 0.0), times), colors[1], types[1])
        objs = [a, b]
    elif kind == "appear":
        a = _vehicle(_linear((0.8, 9.0), (0.0, 6.0), times), colors[0], types[0])
        enter = max(2, min(n - 3, round(0.4 * fps)))
        late = _mask(_linear((3.8, 10.0), (-1.0, 0.0), times), set(range(enter, n)))
        b = _vehicle(late, colors[1], types[1])
        objs = [a, b]
    elif kind == "disappear":
        a = _vehicle(_linear((0.8, 9.0), (0.0, 6.0), times), colors[0], types[0])
        leave = max(2, min(n - 3, round(0.5 * fps)))
        early = _mask(_linear((3.4, 10.0), (1.0, 0.0), times), set(range(0, leave + 1)))
        b = _vehicle(early, colors[1], types[1])
        objs = [a, b]
    elif kind == "crossing":
        occluded = n // 2
        a = _pedestrian(_linear((-5.2, 11.0), (1.5, 0.0), times), colors[0])
        b_track = _mask(_linear((-3.6, 11.6), (-1.5, 0.0), times),
                        set(range(n)) - {occluded})
        b = _pedestrian(b_track, colors[1])
        objs = [a, b]
    else:  # static
        a = _vehicle(_linear((0.8, 12.0), (0.0, 0.0), times), colors[0], types[0])
        b = _pedestrian(_linear((-4.4, 11.0), (0.0, 0.0), times), colors[1])
        objs = [a, b]

    for i in range(2, spec.object_count):
        objs.append(_vehicle(
            _linear((2.2, 20.0 + 3.0 * (i - 2)), (0.0, 0.0), times),
            colors[(i) % len(colors)], types[i % len(types)],
        ))

    objs.extend(_anchors(times))
    return objs, ego


# ---------------------------------------------------------------------------
# Projection and annotation assembly
# ---------------------------------------------------------------------------

def _assemble(spec: ScenarioSpec, objs: list[_WorldObject], ego_speed: float) -> Sequence:
    k = spec.intrinsics
    n = spec.n_frames

    for obj in objs:
        for i in range(n):
            p = obj.track[i]
            if p is None:
                continue
            xw, zw = p
            zc = zw - ego_speed * (i / k.fps)
            if zc <= 0:
                raise InvalidSpec(f"object behind the camera at frame {i}")
            px = k.cx + k.fx * xw / zc
            py = k.cy + k.fy * obj.y_center_m / zc
            obj.centroids[i] = (px, py)
            obj.depths[i] = zc
            if obj.fixed_bbox is not None:
                obj.bboxes[i] = obj.fixed_bbox
            else:
                hw = 0.5 * obj.width_m * k.fx / zc
                hh = 0.5 * obj.height_m * k.fy / zc
                obj.bboxes[i] = (px - hw, py - hh, px + hw, py + hh)

    _assign_names(objs)

    frames = []
    for i in range(n):
        observations = []
        for obj in objs:
            if i not in obj.centroids:
                continue
            flow = None
            if i + 1 in obj.centroids:
                nxt, cur = obj.centroids[i + 1], obj.centroids[i]
                flow = (nxt[0] - cur[0], nxt[1] - cur[1])
            x0, y0, x1, y1 = obj.bboxes[i]
            cx, cy = obj.centroids[i]
            if not (x0 <= cx <= x1 and y0 <= cy <= y1):
                # Only a fixed bbox can lose its centroid, as ego motion
                # carries the object through the image.
                raise InvalidSpec(
                    f"{obj.name}: ego motion carries the centroid out of its "
                    f"fixed bbox at frame {i}; use fewer frames")
            observations.append(ObjectObservation(
                category=obj.category,
                centroid_px=obj.centroids[i],
                bbox=obj.bboxes[i],
                depth_m=obj.depths[i],
                gt_instance=obj.name,
                flow_px=flow,
                attributes=dict(obj.attributes) if obj.attributes else None,
            ))
        frames.append(FrameObservation(i, tuple(observations)))
    return Sequence(spec.intrinsics, tuple(frames))


def _assign_names(objs: list[_WorldObject]) -> None:
    """Names by ``tracking.ordinal_ids``, the rule the tracker numbers its
    tracks by."""
    firsts = [min(o.centroids) for o in objs]
    names = ordinal_ids([(o.category, f, *o.centroids[f]) for o, f in zip(objs, firsts)])
    for o, name in zip(objs, names):
        o.name = name


# ---------------------------------------------------------------------------
# Ground-truth facts from the generating kinematics
# ---------------------------------------------------------------------------

def _interp_world(obj: _WorldObject) -> list[tuple[float, float]]:
    vis = obj.visible()
    out = []
    for i in range(vis[0], vis[-1] + 1):
        if obj.track[i] is not None:
            out.append(obj.track[i])
        else:
            lo = max(v for v in vis if v < i)
            hi = min(v for v in vis if v > i)
            f = (i - lo) / (hi - lo)
            a, b = obj.track[lo], obj.track[hi]
            out.append((a[0] + f * (b[0] - a[0]), a[1] + f * (b[1] - a[1])))
    return out


def _gold_atomic(spec: ScenarioSpec, objs: list[_WorldObject],
                 cfg: CompilerConfig) -> frozenset[Literal]:
    k = spec.intrinsics
    n = spec.n_frames
    width = cfg.image_width if cfg.image_width is not None else 2.0 * k.cx
    facts: set[Literal] = set()

    def emit(pred, *args):
        facts.add(Literal(pred, tuple(Const(a) for a in args)))

    for o in objs:
        emit(o.category, o.name)
        vis = o.visible()
        if vis[0] > 0:
            emit("Appears", o.name)
        if vis[-1] < n - 1:
            emit("Disappears", o.name)

        world = _interp_world(o)
        if len(world) >= 2:
            pts = np.asarray(world)
            speeds = np.sqrt((np.diff(pts, axis=0) ** 2).sum(axis=1)) * k.fps
            if float(np.sqrt(((pts[-1] - pts[0]) ** 2).sum())) > cfg.eps_move:
                emit("Moves", o.name)
            delta = float(speeds[-1] - speeds[0])
            if delta > cfg.eps_speed:
                emit("SpeedUp", o.name)
            elif -delta > cfg.eps_speed:
                emit("SpeedDown", o.name)

        mean_x = float(np.mean([o.centroids[i][0] for i in vis]))
        if mean_x < width * cfg.left_frac:
            emit("AtLeft", o.name)
        elif mean_x > width * cfg.right_frac:
            emit("AtRight", o.name)
        else:
            emit("AtCenter", o.name)

        if float(np.mean([o.depths[i] for i in vis])) < cfg.close_depth:
            emit("CloseToCamera", o.name)

        if o.attributes:
            if "color" in o.attributes:
                emit("ColOfRel", o.name, o.attributes["color"])
            if "type" in o.attributes:
                emit("TypeOfRel", o.name, o.attributes["type"])

    for i, a in enumerate(objs):
        for b in objs[i + 1:]:
            common = sorted(set(a.visible()) & set(b.visible()))
            if len(common) < 2:
                continue
            d = [float(np.hypot(a.track[p][0] - b.track[p][0],
                                a.track[p][1] - b.track[p][1])) for p in common]
            steps = len(d) - 1
            dec = sum(1 for u, v in zip(d, d[1:]) if v < u)
            inc = sum(1 for u, v in zip(d, d[1:]) if v > u)
            if dec / steps >= cfg.trend_frac and d[0] - d[-1] > cfg.eps_move:
                for x, y in ((a, b), (b, a)):
                    emit("DistanceDecreases", x.name, y.name)
                    if d[-1] < cfg.eps_contact:
                        emit("DistanceDecreasesToZero", x.name, y.name)
            if inc / steps >= cfg.trend_frac and d[-1] - d[0] > cfg.eps_move:
                for x, y in ((a, b), (b, a)):
                    emit("DistanceIncreases", x.name, y.name)

    for a in objs:
        if a.category in STATIC_CATEGORIES:
            continue
        for s in objs:
            if s.category not in SURFACE_CATEGORIES:
                continue
            common = sorted(set(a.visible()) & set(s.visible()))
            if not common:
                continue
            hits = 0
            for p in common:
                bx = a.bboxes[p]
                bottom = ((bx[0] + bx[2]) / 2.0, bx[3])
                sb = s.bboxes[p]
                if sb[0] <= bottom[0] <= sb[2] and sb[1] <= bottom[1] <= sb[3]:
                    hits += 1
            if hits / len(common) > 0.5:
                emit("On", a.name, s.name)

    return frozenset(facts)


def _gold_derived(atomic: frozenset[Literal]) -> frozenset[Literal]:
    """Hand-evaluated closure of the nine derived rules."""
    def has(pred, *args):
        return Literal(pred, tuple(Const(a) for a in args)) in atomic

    names = sorted({a.name for f in atomic for a in f.args})
    out: set[Literal] = set()

    def emit(pred, *args):
        out.add(Literal(pred, tuple(Const(a) for a in args)))

    for x in names:
        if not has("Moves", x):
            emit("Stopped", x)
        if has("Pedestrian", x) and has("Moves", x):
            emit("Walk", x)
        if has("Pedestrian", x) and not has("Moves", x):
            emit("Stand", x)
        if has("Vehicle", x) and has("SpeedUp", x):
            emit("Accelerate", x)
        if has("Vehicle", x) and not has("SpeedUp", x) and not has("SpeedDown", x):
            emit("ConstantSpeed", x)
        if has("Pedestrian", x) and has("SpeedUp", x):
            emit("IncreasePace", x)
        if has("Pedestrian", x) and not has("SpeedUp", x) and not has("SpeedDown", x):
            emit("FixedPace", x)
    for x in names:
        for y in names:
            if has("DistanceDecreases", x, y):
                emit("GettingCloser", x, y)
                if has("DistanceDecreasesToZero", x, y):
                    emit("Collide", x, y)
    return frozenset(out)


# ---------------------------------------------------------------------------
# Question synthesis
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class _Desc:
    """Structured descriptor used to both render a phrase and evaluate gold."""
    category: str | None = None
    color: str | None = None
    vtype: str | None = None
    position: str | None = None

    def phrase(self, article: str = "the") -> str:
        words = [article]
        if self.color:
            words.append(self.color.lower())
        if self.vtype:
            words.append(self.vtype.lower())
        elif self.category:
            words.append(self.category.lower())
        if self.position:
            place = {"AtLeft": "on the left", "AtCenter": "at the center",
                     "AtRight": "on the right"}[self.position]
            words.append(place)
        return " ".join(words)

    def matches(self, name: str, facts) -> bool:
        def has(pred, *args):
            return Literal(pred, tuple(Const(a) for a in args)) in facts
        if self.vtype and not has("TypeOfRel", name, self.vtype):
            return False
        if self.color and not has("ColOfRel", name, self.color):
            return False
        if self.category and not has(self.category, name):
            return False
        if self.position and not has(self.position, name):
            return False
        return True


def _desc_for(obj: _WorldObject, position: str | None = None) -> _Desc:
    attrs = obj.attributes or {}
    if obj.category == "Vehicle":
        return _Desc(color=attrs.get("color"), vtype=attrs.get("type"),
                     position=position)
    return _Desc(category=obj.category, color=attrs.get("color"), position=position)


def _gold_unary(desc: _Desc, pred: str, names, facts) -> bool:
    return any(desc.matches(x, facts)
               and Literal(pred, (Const(x),)) in facts for x in names)


def _gold_binary(d1: _Desc, d2: _Desc, pred: str, names, facts) -> bool:
    return any(
        d1.matches(x, facts) and d2.matches(y, facts)
        and Literal(pred, (Const(x), Const(y))) in facts
        for x in names for y in names
    )


def _make_questions(spec: ScenarioSpec, objs: list[_WorldObject],
                    atomic: frozenset[Literal], derived: frozenset[Literal],
                    rng: random.Random) -> list[QAItem]:
    facts = atomic | derived
    names = sorted({a.name for f in atomic for a in f.args})
    primary, secondary = objs[0], objs[1]

    def position_of(obj) -> str | None:
        for p in ("AtLeft", "AtCenter", "AtRight"):
            if Literal(p, (Const(obj.name),)) in atomic:
                return p
        return None

    d1 = _desc_for(primary, position_of(primary) if rng.random() < 0.5 else None)
    d2 = _desc_for(secondary)
    road = _Desc(category="Road")

    used_colors = {o.attributes["color"] for o in objs if o.attributes}
    absent_color = next(c for c in _COLORS if c not in used_colors)
    absent_type = rng.choice(_TYPES)

    qa: list[QAItem] = []

    def ask(category, text, gold):
        qa.append(QAItem(text, category, gold, 0))

    p1 = d1.phrase()
    p2 = d2.phrase()
    exists_desc = _desc_for(primary)
    ask("U1", f"Is there {exists_desc.phrase('a')}?",
        any(exists_desc.matches(x, facts) for x in names))
    ask("U1", f"Is there a {absent_color.lower()} {absent_type.lower()}?", False)

    ask("U2", f"Is {p1} moving?", _gold_unary(d1, "Moves", names, facts))
    ask("U2", f"Is {p1} stopped?", _gold_unary(d1, "Stopped", names, facts))
    if primary.category == "Vehicle":
        ask("U2", f"Does {p1} move at a constant speed?",
            _gold_unary(d1, "ConstantSpeed", names, facts))
    else:
        ask("U2", f"Is {p1} walking at a fixed pace?",
            _gold_unary(d1, "FixedPace", names, facts))

    ask("U3", f"Is {p1} speeding up?", _gold_unary(d1, "SpeedUp", names, facts))
    ask("U3", f"Is {p1} slowing down?", _gold_unary(d1, "SpeedDown", names, facts))

    ask("U4", f"Did {p2} appear in this window?",
        _gold_unary(d2, "Appears", names, facts))
    ask("U4", f"Did {p2} disappear in this window?",
        _gold_unary(d2, "Disappears", names, facts))

    ask("B1", f"Is {p1} on the road?", _gold_binary(d1, road, "On", names, facts))
    ask("B1", f"Is {p1} close to the camera?",
        _gold_unary(d1, "CloseToCamera", names, facts))

    ask("B2", f"Is {p1} getting closer to {p2}?",
        _gold_binary(d1, d2, "GettingCloser", names, facts))
    ask("B2", f"Is {p1} moving away from {p2}?",
        _gold_binary(d1, d2, "DistanceIncreases", names, facts))
    return qa


# ---------------------------------------------------------------------------
# Entry points
# ---------------------------------------------------------------------------

def generate_scenario(spec: ScenarioSpec,
                      cfg: CompilerConfig = CompilerConfig()) -> Scenario:
    """Deterministically generate one annotated window with gold facts and
    grammar-parseable QA items."""
    rng = random.Random(spec.seed)
    objs, ego_speed = _build_world(spec, rng)
    sequence = _assemble(spec, objs, ego_speed)
    atomic = _gold_atomic(spec, objs, cfg)
    derived = _gold_derived(atomic)
    qa = _make_questions(spec, objs, atomic, derived, rng)
    return Scenario(spec, sequence, atomic, derived, qa)


def write_scenario(sc: Scenario, outdir) -> None:
    """annotation.json, qa.json, and gold_facts.txt under ``outdir``."""
    import os

    os.makedirs(outdir, exist_ok=True)
    save_annotation(sc.sequence, os.path.join(outdir, "annotation.json"))
    with open(os.path.join(outdir, "qa.json"), "w", encoding="utf-8") as fh:
        json.dump(
            {
                "kind": sc.spec.kind,
                "seed": sc.spec.seed,
                "items": [asdict(q) for q in sc.qa],
            },
            fh, indent=1, sort_keys=True,
        )
        fh.write("\n")
    lines = sorted(str(f) for f in sc.gold_atomic)
    lines += [f"derived: {f}" for f in sorted(str(d) for d in sc.gold_derived)]
    with open(os.path.join(outdir, "gold_facts.txt"), "w", encoding="utf-8") as fh:
        fh.write("\n".join(lines) + "\n")


def standard_suite(seed: int = 0, per_kind: int = 2) -> list[ScenarioSpec]:
    """The evaluation suite: every kind, ``per_kind`` seeds each."""
    return [ScenarioSpec(kind, seed + 101 * i + j)
            for i, kind in enumerate(KINDS) for j in range(per_kind)]
