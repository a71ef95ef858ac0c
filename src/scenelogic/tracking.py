"""Instance tracking by weighted bipartite matching.

Edge weights blend two box overlaps: the raw IoU and the IoU after carrying
the earlier box along its optical flow.  Short occlusions are bridged with
hypothetical observations extrapolated at constant velocity.  Inferred
tracking runs over a window's whole sequence; each window gets the
sequence's tracks cut to its frames.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from numbers import Real

import numpy as np

from .scene import (
    BoxArrays,
    ObjectObservation,
    SceneWindow,
    Sequence,
    box_arrays,
)


class CategoryMismatch(ValueError):
    pass


class MissingGroundTruthIds(ValueError):
    pass


@dataclass(frozen=True)
class TrackerConfig:
    alpha: float = 0.5  # weight on the flow-carried IoU factor
    w_min: float = 0.1  # edges below this weight are not matchable
    max_gap: int = 2  # occlusion frames bridged by hypothetical vertices

    def __post_init__(self):
        # A bool is an int to isinstance, but no weight or frame count.
        for name in ("alpha", "w_min"):
            value = getattr(self, name)
            if isinstance(value, bool) or not isinstance(value, Real):
                raise ValueError(f"{name} must be a number, got {value!r}")
        if not 0 <= self.alpha <= 1:
            raise ValueError(f"alpha must be in [0, 1], got {self.alpha}")
        # A weight floor of 0 would match pairs across categories.
        if not 0 < self.w_min <= 1:
            raise ValueError(f"w_min must be in (0, 1], got {self.w_min}")
        if isinstance(self.max_gap, bool) or not isinstance(self.max_gap, int) \
                or self.max_gap < 0:
            raise ValueError(f"max_gap must be an integer >= 0, got {self.max_gap!r}")


def _iou(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Intersection over union of every box in ``a`` (5, ..., n) with every
    box in ``b`` (5, m), as a (..., n, m) array.  Axis 0 of both holds x0,
    y0, x1, y1 and the box area."""
    ax0, ay0, ax1, ay1, a_area = a[..., None]
    bx0, by0, bx1, by1, b_area = b
    iw = np.maximum(np.minimum(ax1, bx1) - np.maximum(ax0, bx0), 0.0)
    ih = np.maximum(np.minimum(ay1, by1) - np.maximum(ay0, by0), 0.0)
    inter = iw * ih
    return np.divide(inter, a_area + b_area - inter, out=np.zeros_like(inter),
                     where=inter > 0)


def _weights(left: BoxArrays, right: BoxArrays, alpha: float) -> np.ndarray:
    """Blend of flow-carried and raw IoU for every left-right pair, zero
    across categories."""
    raw, flow = _iou(left.boxes, right.boxes[:, 0])
    w = alpha * flow + (1.0 - alpha) * raw
    return np.where(left.categories[:, None] == right.categories, w, 0.0)


def _shift(bbox, d):
    return (bbox[0] + d[0], bbox[1] + d[1], bbox[2] + d[0], bbox[3] + d[1])


@dataclass(frozen=True)
class MatchResult:
    assignments: tuple[tuple[int, int, float], ...]
    unmatched_left: tuple[int, ...]
    unmatched_right: tuple[int, ...]


def match_frames(weights: np.ndarray, w_min: float) -> MatchResult:
    """Maximum-weight assignment of the rows of ``weights`` (n_left,
    n_right) to its columns; pairs weighing less than ``w_min`` stay
    unmatched."""
    # Imported here: scipy.optimize takes longer to import than the rest of
    # the package, and only inferred tracking needs it.
    from scipy.optimize import linear_sum_assignment

    nl, nr = weights.shape
    rows, cols = linear_sum_assignment(weights, maximize=True)
    assignments = tuple(
        (i, j, w) for i, j, w in zip(rows.tolist(), cols.tolist(),
                                     weights[rows, cols].tolist())
        if w >= w_min)
    matched_l = {i for i, _, _ in assignments}
    matched_r = {j for _, j, _ in assignments}
    return MatchResult(
        assignments,
        tuple(i for i in range(nl) if i not in matched_l),
        tuple(j for j in range(nr) if j not in matched_r),
    )


# ---------------------------------------------------------------------------
# Trajectories
# ---------------------------------------------------------------------------

@dataclass
class Trajectory:
    """One instance's observations within a window, keyed by window-relative
    frame position.  Occlusion gaps appear as missing keys."""

    instance_id: str
    category: str
    observations: dict[int, ObjectObservation]
    attributes: dict = field(default_factory=dict)

    @property
    def first_frame(self) -> int:
        return min(self.observations)

    @property
    def last_frame(self) -> int:
        return max(self.observations)

    def frames_sorted(self) -> list[tuple[int, ObjectObservation]]:
        return sorted(self.observations.items())


@dataclass(frozen=True)
class PresenceFlags:
    appears: bool
    disappears: bool
    first_frame: int
    last_frame: int


def presence(t: Trajectory, n: int) -> PresenceFlags:
    first, last = t.first_frame, t.last_frame
    return PresenceFlags(first > 0, last < n - 1, first, last)


def _consolidate_attributes(observations) -> dict:
    """Each attribute's most frequent value, the one seen first winning a
    tie (``max`` keeps the first of equal keys, and dicts keep insertion
    order)."""
    votes: dict[str, dict] = {}
    for _, obs in sorted(observations.items()):
        for key, value in (obs.attributes or {}).items():
            counts = votes.setdefault(key, {})
            counts[value] = counts.get(value, 0) + 1
    return {key: max(counts, key=counts.get) for key, counts in votes.items()}


def _assign_ids(tracks: list[Trajectory]) -> list[Trajectory]:
    """Deterministic instance ids: category plus ordinal by first appearance,
    leftmost centroid breaking ties, then the order of ``tracks``."""
    def sort_key(t: Trajectory):
        first = t.first_frame
        obs = t.observations[first]
        return (first, obs.centroid_px[0], obs.centroid_px[1])

    by_cat: dict[str, list[Trajectory]] = {}
    for t in tracks:
        by_cat.setdefault(t.category, []).append(t)
    out = []
    for cat in sorted(by_cat):
        for i, t in enumerate(sorted(by_cat[cat], key=sort_key)):
            t.instance_id = f"{cat.lower()}{i + 1:02d}"
            out.append(t)
    out.sort(key=lambda t: t.instance_id)
    return out


def _link_oracle(w: SceneWindow) -> list[Trajectory]:
    groups: dict[str, dict[int, ObjectObservation]] = {}
    categories: dict[str, str] = {}
    for pos, frame in enumerate(w.frames):
        for obs in frame.objects:
            if not obs.gt_instance:
                raise MissingGroundTruthIds(
                    f"frame {frame.frame_index} has an object without gt_instance"
                )
            groups.setdefault(obs.gt_instance, {})[pos] = obs
            prev = categories.setdefault(obs.gt_instance, obs.category)
            if prev != obs.category:
                raise CategoryMismatch(
                    f"{obs.gt_instance}: {prev} vs {obs.category} across frames"
                )
    tracks = [
        Trajectory(gid, categories[gid], obs_map, _consolidate_attributes(obs_map))
        for gid, obs_map in groups.items()
    ]
    tracks.sort(key=lambda t: t.instance_id)
    return tracks


class _LiveTrack:
    __slots__ = ("observations", "category", "repr_obs", "misses", "depth_step")

    def __init__(self, pos: int, obs: ObjectObservation):
        self.observations = {pos: obs}
        self.category = obs.category
        self.repr_obs = obs
        self.misses = 0
        self.depth_step = 0.0

    def step_estimate(self) -> tuple[float, float]:
        if self.repr_obs.flow_px is not None:
            return self.repr_obs.flow_px
        keys = sorted(self.observations)
        if len(keys) >= 2:
            a = self.observations[keys[-2]].centroid_px
            b = self.observations[keys[-1]].centroid_px
            return (b[0] - a[0], b[1] - a[1])
        return (0.0, 0.0)

    def record(self, pos: int, obs: ObjectObservation):
        prev_depth = self.repr_obs.depth_m
        self.observations[pos] = obs
        self.depth_step = obs.depth_m - prev_depth
        self.repr_obs = obs
        self.misses = 0

    def ghost(self):
        """Hypothetical observation continuing the track at constant velocity."""
        d = self.step_estimate()
        self.misses += 1
        self.repr_obs = replace(
            self.repr_obs,
            centroid_px=(self.repr_obs.centroid_px[0] + d[0],
                         self.repr_obs.centroid_px[1] + d[1]),
            bbox=_shift(self.repr_obs.bbox, d),
            depth_m=max(1e-3, self.repr_obs.depth_m + self.depth_step),
        )


def _match_live(live: list[_LiveTrack], rows: list[int | None], real: np.ndarray,
                boxes: BoxArrays, cfg: TrackerConfig) -> MatchResult:
    """Match the live tracks to the frame whose objects' boxes are ``boxes``.
    ``rows[i]`` is live track i's row in ``real``, the previous frame's
    weights, or None for a ghost, whose row is computed here.  Every entry
    is ``_weights``'s elementwise kernel, so the matrix equals the one built
    from the live tracks' boxes."""
    ghosts = [i for i, r in enumerate(rows) if r is None]
    if ghosts:
        weights = np.empty((len(rows), real.shape[1]))
        observed = [i for i, r in enumerate(rows) if r is not None]
        weights[observed] = real[[rows[i] for i in observed]]
        weights[ghosts] = _weights(box_arrays([live[i].repr_obs for i in ghosts]),
                                   boxes, cfg.alpha)
    else:
        weights = real[rows]
    return match_frames(weights, cfg.w_min)


def _link_inferred(frames, cfg: TrackerConfig) -> list[Trajectory]:
    """Track over ``frames``, with observations keyed by position in them
    and no attributes."""
    live = [_LiveTrack(0, obs) for obs in frames[0].objects]
    # Each live track's row in the previous frame's objects; None for a ghost.
    rows: list[int | None] = list(range(len(live)))
    # Every track in birth order: by frame, then by index within the frame.
    born = list(live)
    boxes = box_arrays(frames[0].objects)

    for pos in range(1, len(frames)):
        objects = frames[pos].objects
        prev_boxes, boxes = boxes, box_arrays(objects)
        real = _weights(prev_boxes, boxes, cfg.alpha)
        result = _match_live(live, rows, real, boxes, cfg)
        for i, j, _ in result.assignments:
            live[i].record(pos, objects[j])
        survivors = []
        for i in result.unmatched_left:
            t = live[i]
            if t.misses + 1 <= cfg.max_gap and pos < len(frames) - 1:
                t.ghost()
                survivors.append(t)
        new = [_LiveTrack(pos, objects[j]) for j in result.unmatched_right]
        born += new
        live = [live[i] for i, _, _ in result.assignments] + survivors + new
        rows = ([j for _, j, _ in result.assignments] + [None] * len(survivors)
                + list(result.unmatched_right))

    return _assign_ids([Trajectory("", t.category, t.observations) for t in born])


def _sequence_tracks(seq: Sequence, cfg: TrackerConfig) -> list[Trajectory]:
    """The inferred tracks of the whole sequence, linked once per ``cfg`` and
    cached on the sequence."""
    cache = seq.__dict__.setdefault("_tracks", {})
    tracks = cache.get(cfg)
    if tracks is None:
        tracks = cache[cfg] = _link_inferred(seq.frames, cfg)
    return tracks


def _cut_observations(t: Trajectory, start: int, stop: int) -> dict:
    """``t``'s observations in frames ``start..stop-1``, keyed from 0."""
    return {pos - start: obs for pos, obs in t.observations.items() if start <= pos < stop}


def _cut(w: SceneWindow, cfg: TrackerConfig) -> list[Trajectory]:
    """The sequence tracks cut to the window's frames, with positions
    rebased to the window and attributes voted over the window's own
    observations.  The cut is recorded on the window for ``cut_source``."""
    start, stop = w.start, w.start + w.n
    seq_tracks = _sequence_tracks(w.sequence, cfg)
    tracks, rows = [], []
    for row, t in enumerate(seq_tracks):
        observations = _cut_observations(t, start, stop)
        if observations:
            tracks.append(Trajectory(t.instance_id, t.category, observations,
                                     _consolidate_attributes(observations)))
            rows.append(row)
    w.__dict__.setdefault("_cuts", {})[cfg] = (tracks, seq_tracks, rows)
    return tracks


def cut_source(w: SceneWindow, tracks: list[Trajectory]):
    """``(sequence tracks, rows)`` when ``tracks`` is a list ``link_window``
    cut for ``w`` in inferred mode and each of its tracks still holds the
    observations it was cut with; ``rows[i]`` is track i's index among the
    sequence tracks.  None for any other list."""
    start, stop = w.start, w.start + w.n
    for cut, seq_tracks, rows in w.__dict__.get("_cuts", {}).values():
        if cut is tracks and len(tracks) == len(rows) and all(
                t.observations == _cut_observations(seq_tracks[row], start, stop)
                for t, row in zip(tracks, rows)):
            return seq_tracks, rows
    return None


def link_window(w: SceneWindow, mode: str = "inferred",
                cfg: TrackerConfig = TrackerConfig()) -> list[Trajectory]:
    """Group the window's observations into instance trajectories.

    ``oracle`` trusts gt_instance labels; ``inferred`` chains frame-pair
    matchings, bridging up to ``cfg.max_gap`` occluded frames per track.
    Inferred tracking runs once over the window's whole sequence and gives
    ids once, so an object keeps its id from window to window; the window
    gets those tracks cut to its frames.
    """
    if mode == "oracle":
        return _link_oracle(w)
    if mode == "inferred":
        return _cut(w, cfg)
    raise ValueError(f"unknown tracking mode {mode!r}")
