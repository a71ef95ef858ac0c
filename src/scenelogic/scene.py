"""Scene annotations and sliding windows.

The annotation file is a JSON document per sequence:

    {"intrinsics": {"fx", "fy", "cx", "cy", "fps"},
     "frames": [{"index": int,
                 "objects": [{"category", "gt_instance"?, "centroid_px",
                              "bbox", "depth_m", "flow_px"?, "attributes"?}]}]}

Pixels and meters only.  A window is N consecutive frames plus the chain of
frame-pair transforms that pins every frame to the shared temporary origin.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field

import numpy as np

from .geometry import (
    CameraIntrinsics,
    InsufficientAnchors,
    Transform2,
    back_project,
    estimate_origin,
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


@dataclass(frozen=True)
class ObjectObservation:
    category: str
    centroid_px: tuple[float, float]
    bbox: tuple[float, float, float, float]
    depth_m: float
    gt_instance: str | None = None
    flow_px: tuple[float, float] | None = None
    attributes: dict | None = None

    def __post_init__(self):
        numbers = (self.depth_m, *self.centroid_px, *self.bbox, *(self.flow_px or ()))
        if not all(map(math.isfinite, numbers)):
            raise ValueError(f"depth, centroid, bbox and flow must be finite, got {numbers}")
        if self.depth_m <= 0:
            raise ValueError(f"depth must be positive, got {self.depth_m}")
        x0, y0, x1, y1 = self.bbox
        cx, cy = self.centroid_px
        if not (x0 <= cx <= x1 and y0 <= cy <= y1):
            raise ValueError("bbox must contain the centroid")


@dataclass(frozen=True)
class FrameObservation:
    frame_index: int
    objects: tuple[ObjectObservation, ...]

    def bev(self, k: CameraIntrinsics) -> dict[int, tuple[float, float]]:
        """``bev_of`` of each object, keyed by the object's ``id``, computed
        once per intrinsics."""
        cache = self.__dict__.setdefault("_bev", {})
        points = cache.get(k)
        if points is None:
            points = cache[k] = {id(o): bev_of(o, k) for o in self.objects}
        return points


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
                raise ValueError("frame indices must be consecutive")


@dataclass(frozen=True)
class SceneWindow:
    frames: tuple[FrameObservation, ...]
    intrinsics: CameraIntrinsics
    window_id: int
    origin_chain: tuple[Transform2, ...]
    # The sequence the window was cut from and the position of its first
    # frame there.  A window made without one is a sequence of its own frames.
    sequence: Sequence | None = field(default=None, compare=False, repr=False)
    start: int = field(default=0, compare=False, repr=False)

    def __post_init__(self):
        if not self.frames:
            raise ValueError("sequence has no frames")
        if len(self.origin_chain) != len(self.frames) - 1:
            raise ValueError("origin chain must have one transform per frame pair")
        if self.sequence is None:
            object.__setattr__(self, "sequence", Sequence(self.intrinsics, self.frames))
        elif self.sequence.frames[self.start:self.start + len(self.frames)] != self.frames:
            raise ValueError(f"window frames must be the sequence's frames from {self.start}")

    @property
    def n(self) -> int:
        return len(self.frames)

    def cumulative(self) -> tuple[Transform2, ...]:
        """Transform mapping each frame's coordinates into frame 0's."""
        cache = self.__dict__.get("_cumulative")
        if cache is None:
            cums = [Transform2.identity()]
            for link in self.origin_chain:
                cums.append(cums[-1].compose(link))
            cache = tuple(cums)
            self.__dict__["_cumulative"] = cache
        return cache


def bev_of(obs: ObjectObservation, k: CameraIntrinsics) -> tuple[float, float]:
    return to_bev(back_project(obs.centroid_px, obs.depth_m, k))


# ---------------------------------------------------------------------------
# Origin chain construction
# ---------------------------------------------------------------------------

def _static_correspondences(prev: FrameObservation, curr: FrameObservation,
                            k: CameraIntrinsics):
    """Pair static-object BEV positions across a frame pair.

    Ground-truth instance labels pair directly; the rest pair to the nearest
    unclaimed neighbor within NN_GATE_M.
    """
    prev_static = [o for o in prev.objects if o.category in STATIC_CATEGORIES]
    curr_static = [o for o in curr.objects if o.category in STATIC_CATEGORIES]
    prev_pts = [prev.bev(k)[id(o)] for o in prev_static]
    curr_pts = [curr.bev(k)[id(o)] for o in curr_static]

    pairs: list[tuple[tuple[float, float], tuple[float, float]]] = []
    used_curr: set[int] = set()

    by_id = {o.gt_instance: j for j, o in enumerate(curr_static) if o.gt_instance}
    remaining_prev = []
    for i, o in enumerate(prev_static):
        j = by_id.get(o.gt_instance) if o.gt_instance else None
        if j is not None and curr_static[j].category == o.category:
            pairs.append((prev_pts[i], curr_pts[j]))
            used_curr.add(j)
        else:
            remaining_prev.append(i)

    for i in remaining_prev:
        best, best_d = None, NN_GATE_M
        for j in range(len(curr_static)):
            if j in used_curr or curr_static[j].category != prev_static[i].category:
                continue
            d = math.dist(prev_pts[i], curr_pts[j])
            if d <= best_d:
                best, best_d = j, d
        if best is not None:
            used_curr.add(best)
            pairs.append((prev_pts[i], curr_pts[best]))

    return pairs


def _origin_chain(frames, intrinsics: CameraIntrinsics) -> list[Transform2]:
    """One transform per consecutive frame pair, estimated from static-object
    correspondences; the first pair without two of them raises."""
    chain = []
    for prev, curr in zip(frames, frames[1:]):
        pairs = _static_correspondences(prev, curr, intrinsics)
        if len(pairs) < 2:
            raise InsufficientAnchors(
                f"frames {prev.frame_index}-{curr.frame_index}: "
                f"{len(pairs)} static correspondences, need 2"
            )
        prev_pts = [p for p, _ in pairs]
        curr_pts = [c for _, c in pairs]
        chain.append(estimate_origin(prev_pts, curr_pts))
    return chain


def build_window(frames, intrinsics: CameraIntrinsics, window_id: int = 0) -> SceneWindow:
    """Assemble a SceneWindow, estimating the frame-pair origin transforms
    from static-object correspondences.  The window is a sequence of its
    own frames."""
    frames = tuple(frames)
    chain = _origin_chain(frames, intrinsics)
    return SceneWindow(frames, intrinsics, window_id, tuple(chain))


def windows(seq: Sequence, n: int | None = None) -> list[SceneWindow]:
    """All sliding windows of length n, advancing one frame at a time.

    ``n`` defaults to DEFAULT_WINDOW frames, or the whole sequence when it is
    shorter.  Each frame pair's transform is estimated once and shared by
    every window that holds the pair.  Each window knows ``seq`` and its
    start in it, so that work done once per sequence is shared too.
    """
    if n is None:
        n = min(len(seq.frames), DEFAULT_WINDOW)
    elif n < 1:
        raise ValueError(f"window length must be at least 1, got {n}")
    if len(seq.frames) < n:
        raise ValueError(f"sequence has {len(seq.frames)} frames, window needs {n}")
    chain = _origin_chain(seq.frames, seq.intrinsics) if n > 1 else []
    return [
        SceneWindow(seq.frames[i:i + n], seq.intrinsics, i, tuple(chain[i:i + n - 1]),
                    seq, i)
        for i in range(len(seq.frames) - n + 1)
    ]


# ---------------------------------------------------------------------------
# JSON ingest / export
# ---------------------------------------------------------------------------

def _obs_from_dict(d: dict) -> ObjectObservation:
    return ObjectObservation(
        category=d["category"],
        centroid_px=tuple(d["centroid_px"]),
        bbox=tuple(d["bbox"]),
        depth_m=float(d["depth_m"]),
        gt_instance=d.get("gt_instance"),
        flow_px=tuple(d["flow_px"]) if d.get("flow_px") is not None else None,
        attributes=d.get("attributes"),
    )


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


def sequence_from_dict(doc: dict) -> Sequence:
    k = doc["intrinsics"]
    intr = CameraIntrinsics(float(k["fx"]), float(k["fy"]),
                            float(k["cx"]), float(k["cy"]), float(k["fps"]))
    frames = tuple(
        FrameObservation(int(f["index"]),
                         tuple(_obs_from_dict(o) for o in f["objects"]))
        for f in doc["frames"]
    )
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
