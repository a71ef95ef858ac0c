"""Scene annotations and sliding windows.

The annotation file is a JSON document per sequence:

    {"intrinsics": {"fx", "fy", "cx", "cy", "fps"},
     "frames": [{"index": int,
                 "objects": [{"category": str, "gt_instance"?: str,
                              "centroid_px": [x, y], "bbox": [x0, y0, x1, y1],
                              "depth_m": number, "flow_px"?: [dx, dy],
                              "attributes"?: {name: str}}]}]}

Every coordinate is a number within float range (true and false are not
numbers), the bbox contains the centroid and has an area within float
range, and the depth is positive.  A missing field, or one of the wrong
type, fails at ingest with its name, and an entry that is not the object
or array its place needs with its position (``frames[1] must be an
object, got 7``).  Frame indices are consecutive, and a ``gt_instance``
labels at most one object of a frame.  Pixels and meters only.

A window is frames ``start..start+n-1`` of one sequence plus the chain of
frame-pair transforms that pins every frame to the shared temporary origin.
"""

from __future__ import annotations

import json
import math
import reprlib
import sys
from dataclasses import dataclass, field
from functools import cached_property
from typing import NamedTuple

import numpy as np

from .geometry import (
    CameraIntrinsics,
    InsufficientAnchors,
    Transform2,
    back_project,
    estimate_origins,
    to_bev,
)

DEFAULT_WINDOW = 10

# Unlabelled static objects pair with the nearest neighbour within this (m).
NN_GATE_M = 1.0

# Categories whose instances anchor the temporary origin.
STATIC_CATEGORIES = frozenset({
    "Road", "LaneMarking", "TrafficSign", "Sidewalk", "Fence",
    "Pole", "Wall", "Building", "Vegetation",
})

# Surfaces that can carry other objects for On(x, y).
SURFACE_CATEGORIES = frozenset({"Road", "Sidewalk", "LaneMarking"})

_MAX = sys.float_info.max


class _ObservationFields(NamedTuple):
    category: str
    centroid_px: tuple[float, float]
    bbox: tuple[float, float, float, float]
    depth_m: float
    gt_instance: str | None = None
    flow_px: tuple[float, float] | None = None
    attributes: dict | None = None


class ObjectObservation(_ObservationFields):
    """One annotated object in one frame: a named tuple whose constructor
    checks its fields.  ``_make`` and ``_replace`` construct through it too."""

    __slots__ = ()

    def __new__(cls, category, centroid_px, bbox, depth_m, gt_instance=None,
                flow_px=None, attributes=None):
        # One test accepts a well-formed observation; _rejection says why
        # any other fails.  The comparisons hold only for numbers within
        # float range: an integer beyond it is compared exactly.  The area
        # is the one ``box_arrays`` computes, in floats.
        try:
            cx, cy = centroid_px
            x0, y0, x1, y1 = bbox
            fx, fy = (0.0, 0.0) if flow_px is None else flow_px
            if attributes:
                "".join(attributes.values())  # TypeError unless all are strings
            valid = (-_MAX <= x0 <= cx <= x1 <= _MAX and -_MAX <= y0 <= cy <= y1 <= _MAX
                     and (float(x1) - float(x0)) * (float(y1) - float(y0)) <= _MAX
                     and 0.0 < depth_m <= _MAX and -_MAX <= fx <= _MAX and -_MAX <= fy <= _MAX
                     and bool not in {type(depth_m), type(cx), type(cy), type(x0), type(y0),
                                      type(x1), type(y1), type(fx), type(fy)})
        except (TypeError, ValueError, AttributeError):
            valid = False
        if not (valid and isinstance(category, str)
                and (gt_instance is None or isinstance(gt_instance, str))
                and (attributes is None or isinstance(attributes, dict))):
            raise ValueError(_rejection(category, centroid_px, bbox, depth_m,
                                        gt_instance, flow_px, attributes))
        return tuple.__new__(cls, (category, centroid_px, bbox, depth_m, gt_instance,
                                   flow_px, attributes))

    @classmethod
    def _make(cls, iterable):
        return cls(*iterable)

    def _replace(self, **changes):
        return type(self)(**{**self._asdict(), **changes})


def _numbers(value, n: int) -> bool:
    """Whether ``value`` is a sequence of ``n`` numbers; a bool is not one."""
    try:
        if len(value) != n or bool in map(type, value):
            return False
        for v in value:
            if not isinstance(v, int):  # an int may lie beyond float range
                math.isfinite(v)  # TypeError on a non-number
    except TypeError:
        return False
    return True


def _rejection(category, centroid_px, bbox, depth_m, gt_instance, flow_px,
               attributes) -> str:
    """Why these fields make no observation: the first field not of its
    type, else the first of the value checks that fails."""
    if not isinstance(category, str):
        return f"category must be a string, got {category!r}"
    if not _numbers(centroid_px, 2):
        return f"centroid_px must be 2 numbers, got {centroid_px!r}"
    if not _numbers(bbox, 4):
        return f"bbox must be 4 numbers, got {bbox!r}"
    if not _numbers((depth_m,), 1):
        return f"depth_m must be a number, got {depth_m!r}"
    if gt_instance is not None and not isinstance(gt_instance, str):
        return f"gt_instance must be a string, got {gt_instance!r}"
    if flow_px is not None and not _numbers(flow_px, 2):
        return f"flow_px must be 2 numbers, got {flow_px!r}"
    if attributes is not None and not isinstance(attributes, dict):
        return f"attributes must be a mapping, got {attributes!r}"
    for key, value in (attributes or {}).items():
        if not isinstance(value, str):
            return f"attributes[{key!r}] must be a string, got {value!r}"
    for name, value in (("depth_m", depth_m), ("centroid_px", centroid_px), ("bbox", bbox),
                        ("flow_px", flow_px)):
        if any(not isinstance(v, float) and not -_MAX <= v <= _MAX
               for v in ((value,) if name == "depth_m" else value or ())):
            return f"{name} must be within float range, got {reprlib.repr(value)}"
    numbers = (depth_m, *centroid_px, *bbox, *(flow_px or ()))
    if not all(map(math.isfinite, numbers)):
        return f"depth, centroid, bbox and flow must be finite, got {numbers}"
    if depth_m <= 0:
        return f"depth must be positive, got {depth_m}"
    (cx, cy), (x0, y0, x1, y1) = centroid_px, bbox
    if not (x0 <= cx <= x1 and y0 <= cy <= y1):
        return "bbox must contain the centroid"
    return f"bbox area must be finite, got {bbox!r}"


@dataclass(frozen=True)
class FrameObservation:
    frame_index: int
    objects: tuple[ObjectObservation, ...]


@dataclass(frozen=True, eq=False)
class BoxArrays:
    """Boxes of a list of observations, column i for observation i."""

    # (5, 2, n): x0, y0, x1, y1 and area of each bbox (row 0) and of the
    # bbox carried along its flow (row 1)
    boxes: np.ndarray
    categories: np.ndarray  # (n,) category names


def box_arrays(objects) -> BoxArrays:
    """The boxes of ``objects``.  An object without ``flow_px`` is carried by
    zero flow, so its carried box is its bbox."""
    bbox = np.array([o.bbox for o in objects], dtype=float).reshape(-1, 4).T
    dx, dy = np.array([o.flow_px or (0.0, 0.0) for o in objects], dtype=float).reshape(-1, 2).T
    boxes = np.stack([bbox, bbox + np.array([dx, dy, dx, dy])], axis=1)
    x0, y0, x1, y1 = boxes
    return BoxArrays(np.concatenate([boxes, ((x1 - x0) * (y1 - y0))[None]]),
                     np.array([o.category for o in objects], dtype=str))


@dataclass(frozen=True)
class Sequence:
    intrinsics: CameraIntrinsics
    frames: tuple[FrameObservation, ...]

    def __post_init__(self):
        for a, b in zip(self.frames, self.frames[1:]):
            if b.frame_index != a.frame_index + 1:
                raise ValueError(f"frame indices must be consecutive: "
                                 f"{b.frame_index} follows {a.frame_index}")
        for f in self.frames:
            labels = [o.gt_instance for o in f.objects if o.gt_instance]
            if len(set(labels)) != len(labels):
                twice = next(x for i, x in enumerate(labels) if x in labels[:i])
                raise ValueError(f"frame {f.frame_index} has gt_instance {twice!r} twice")

    @cached_property
    def bev(self) -> list[dict[int, tuple[float, float]]]:
        """Per frame, ``bev_of`` of each object keyed by the object's ``id``,
        computed once per sequence."""
        k = self.intrinsics
        return [{id(o): bev_of(o, k) for o in f.objects} for f in self.frames]


@dataclass(frozen=True)
class SceneWindow:
    """Frames ``start..start+n-1`` of ``sequence``, with the chain of
    frame-pair transforms that pins every frame to frame ``start``."""

    sequence: Sequence = field(repr=False)
    start: int
    origin_chain: tuple[Transform2, ...]

    def __post_init__(self):
        if not 0 <= self.start <= len(self.sequence.frames) - self.n:
            raise ValueError(f"window of {self.n} frames from {self.start} is outside "
                             f"the sequence's {len(self.sequence.frames)} frames")

    @property
    def n(self) -> int:
        return len(self.origin_chain) + 1

    @property
    def frames(self) -> tuple[FrameObservation, ...]:
        return self.sequence.frames[self.start:self.start + self.n]

    @property
    def intrinsics(self) -> CameraIntrinsics:
        return self.sequence.intrinsics

    @property
    def window_id(self) -> int:
        return self.start

    def cumulative(self) -> tuple[Transform2, ...]:
        """Transform mapping each frame's coordinates into frame 0's."""
        cums = [Transform2.identity()]
        for link in self.origin_chain:
            cums.append(cums[-1].compose(link))
        return tuple(cums)


def bev_of(obs: ObjectObservation, k: CameraIntrinsics) -> tuple[float, float]:
    return to_bev(back_project(obs.centroid_px, obs.depth_m, k))


# ---------------------------------------------------------------------------
# Origin chain construction
# ---------------------------------------------------------------------------

def _static_correspondences(prev_static, curr_static):
    """Pair static-object BEV positions across a frame pair, given each
    frame's static objects with their BEV points.  Returns the previous
    frame's paired points and, in the same order, their current-frame
    partners.

    Ground-truth instance labels pair directly; the rest pair to the nearest
    unclaimed neighbor within NN_GATE_M.
    """
    prev_pts: list[tuple[float, float]] = []
    curr_pts: list[tuple[float, float]] = []
    used_curr: set[int] = set()

    by_id = {o.gt_instance: j for j, (o, _) in enumerate(curr_static) if o.gt_instance}
    remaining_prev = []
    for o, p in prev_static:
        j = by_id.get(o.gt_instance) if o.gt_instance else None
        if j is not None and curr_static[j][0].category == o.category:
            prev_pts.append(p)
            curr_pts.append(curr_static[j][1])
            used_curr.add(j)
        else:
            remaining_prev.append((o, p))

    for o, p in remaining_prev:
        best, best_d = None, NN_GATE_M
        for j, (c, q) in enumerate(curr_static):
            if j in used_curr or c.category != o.category:
                continue
            d = math.dist(p, q)
            if d <= best_d:
                best, best_d = j, d
        if best is not None:
            used_curr.add(best)
            prev_pts.append(p)
            curr_pts.append(curr_static[best][1])

    return prev_pts, curr_pts


def _origin_chain(seq: Sequence) -> list[Transform2]:
    """One transform per consecutive frame pair of ``seq``, estimated from
    static-object correspondences in one ``estimate_origins`` call.  The
    first pair that fails raises: one without two correspondences, or one
    that ``estimate_origins`` rejects."""
    anchors = []
    frames = seq.frames
    statics = [[(o, bev[id(o)]) for o in f.objects if o.category in STATIC_CATEGORIES]
               for f, bev in zip(frames, seq.bev)]
    for prev, curr, prev_static, curr_static in zip(frames, frames[1:], statics, statics[1:]):
        prev_pts, curr_pts = _static_correspondences(prev_static, curr_static)
        if len(prev_pts) < 2:
            estimate_origins(anchors)  # an earlier pair's failure comes first
            raise InsufficientAnchors(
                f"frames {prev.frame_index}-{curr.frame_index}: "
                f"{len(prev_pts)} static correspondences, need 2"
            )
        anchors.append((prev_pts, curr_pts))
    return estimate_origins(anchors)


def windows(seq: Sequence, n: int | None = None) -> list[SceneWindow]:
    """All sliding windows of length n, advancing one frame at a time.

    ``n`` defaults to DEFAULT_WINDOW frames, or the whole sequence when it is
    shorter.  Each frame pair's transform is estimated once and shared by
    every window that holds the pair.  Each window is a view of ``seq``, so
    that work done once per sequence is shared too.
    """
    if not seq.frames:
        raise ValueError("sequence has no frames")
    if n is None:
        n = min(len(seq.frames), DEFAULT_WINDOW)
    elif n < 1:
        raise ValueError(f"window length must be at least 1, got {n}")
    if len(seq.frames) < n:
        raise ValueError(f"sequence has {len(seq.frames)} frames, window needs {n}")
    chain = _origin_chain(seq) if n > 1 else []
    return [SceneWindow(seq, i, tuple(chain[i:i + n - 1]))
            for i in range(len(seq.frames) - n + 1)]


# ---------------------------------------------------------------------------
# JSON ingest / export
# ---------------------------------------------------------------------------

def _obs_from_dict(d: dict) -> ObjectObservation:
    # JSON arrays become tuples and an integer depth within float range a
    # float; any other value reaches the checks as read, so that they name a
    # malformed field.
    centroid, bbox, depth, flow = d["centroid_px"], d["bbox"], d["depth_m"], d.get("flow_px")
    return ObjectObservation(
        d["category"],
        tuple(centroid) if type(centroid) is list else centroid,
        tuple(bbox) if type(bbox) is list else bbox,
        float(depth) if type(depth) is int and -_MAX <= depth <= _MAX else depth,
        d.get("gt_instance"),
        tuple(flow) if type(flow) is list else flow,
        d.get("attributes"),
    )


def _frame_from_dict(f: dict) -> FrameObservation:
    index = f["index"]
    if type(index) is not int:
        raise ValueError(f"index must be an integer, got {index!r}")
    return FrameObservation(index, tuple(map(_obs_from_dict, f["objects"])))


def _obs_to_dict(o: ObjectObservation) -> dict:
    d = {
        "category": o.category,
        "centroid_px": list(o.centroid_px),
        "bbox": list(o.bbox),
        "depth_m": o.depth_m,
    }
    if o.gt_instance is not None:
        d["gt_instance"] = o.gt_instance
    if o.flow_px is not None:
        d["flow_px"] = list(o.flow_px)
    if o.attributes is not None:
        d["attributes"] = dict(o.attributes)
    return d


def _intrinsic(k: dict, name: str) -> float:
    value = k[name]
    if type(value) not in (int, float):
        raise ValueError(f"intrinsics {name} must be a number, got {value!r}")
    return float(value)


def _entries(doc):
    """Each container ``sequence_from_dict`` reads, with its place and the
    type it must have, in the order it reads them."""
    yield doc, dict, "the annotation"
    yield doc.get("intrinsics"), dict, "intrinsics"
    frames = doc.get("frames")
    yield frames, (list, tuple), "frames"
    for i, f in enumerate(frames):
        yield f, dict, f"frames[{i}]"
        objects = f.get("objects")
        yield objects, (list, tuple), f"frames[{i}].objects"
        for j, o in enumerate(objects):
            yield o, dict, f"frames[{i}].objects[{j}]"


def _misshapen(doc) -> str | None:
    """Which entry of ``doc`` is not the JSON object or array its place
    needs, the first ``sequence_from_dict`` reads; None if none is."""
    for value, kind, where in _entries(doc):
        if not isinstance(value, kind):
            what = "an object" if kind is dict else "an array"
            return f"{where} must be {what}, got {reprlib.repr(value)}"
    return None


def sequence_from_dict(doc: dict) -> Sequence:
    try:
        k = doc["intrinsics"]
        intr = CameraIntrinsics(*(_intrinsic(k, name)
                                  for name in ("fx", "fy", "cx", "cy", "fps")))
        frames = tuple(map(_frame_from_dict, doc["frames"]))
    except KeyError as e:
        raise ValueError(f"missing field {e}") from None
    except TypeError:
        # Only a container of the wrong type raises TypeError here, so an
        # accepted document never walks its entries twice.
        where = _misshapen(doc)
        if where is None:
            raise
        raise ValueError(where) from None
    return Sequence(intr, frames)


def sequence_to_dict(seq: Sequence) -> dict:
    return {
        "intrinsics": {
            "fx": seq.intrinsics.fx, "fy": seq.intrinsics.fy,
            "cx": seq.intrinsics.cx, "cy": seq.intrinsics.cy,
            "fps": seq.intrinsics.fps,
        },
        "frames": [
            {"index": f.frame_index, "objects": [_obs_to_dict(o) for o in f.objects]}
            for f in seq.frames
        ],
    }


def load_annotation(path) -> Sequence:
    with open(path, "r", encoding="utf-8") as fh:
        return sequence_from_dict(json.load(fh))


def save_annotation(seq: Sequence, path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(sequence_to_dict(seq), fh, indent=1, sort_keys=True)
        fh.write("\n")
