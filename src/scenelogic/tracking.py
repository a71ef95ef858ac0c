"""Instance tracking by weighted bipartite matching.

Edge weights blend two box overlaps: the raw IoU and the IoU after carrying
the earlier box along its optical flow.  Short occlusions are bridged with
hypothetical observations extrapolated at constant velocity.  Either mode
links or groups a whole sequence once (``link_sequence``); a window gets
those tracks cut to its frames, with attributes voted over the cut
(``cut_track``), and a labelling fault fails only the windows that hold it.

Once per sequence, inferred linking builds one box table of all of its
observations (bbox, flow-carried bbox, area and an integer category code, so
a frame is a column slice) and weighs every consecutive frame pair with the
one IoU kernel, frames padded to the widest and stacked in batches of at
most ``PAIR_BATCH_ENTRIES`` weights.  Per frame pair it only gathers the
live tracks' rows, weighs ghost rows through the same kernel, solves the
assignment and records the matches.  Each track's observations are split
once into runs of equal attribute dicts, kept with the tracks
(``index_tracks``) for ``link_window`` and ``compile_windows``, so a vote
over a cut counts the runs the cut spans.
"""

from __future__ import annotations

import os
from bisect import bisect_left, bisect_right
from dataclasses import dataclass, field
from importlib.machinery import EXTENSION_SUFFIXES, ExtensionFileLoader, FileFinder
from importlib.util import module_from_spec
from itertools import accumulate
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
    box in ``b`` (5, ..., m), as a (..., n, m) array, the leading axes
    broadcast.  Axis 0 of both holds x0, y0, x1, y1 and the box area."""
    ax0, ay0, ax1, ay1, a_area = a[..., None]
    bx0, by0, bx1, by1, b_area = b[..., None, :]
    iw = np.maximum(np.minimum(ax1, bx1) - np.maximum(ax0, bx0), 0.0)
    ih = np.maximum(np.minimum(ay1, by1) - np.maximum(ay0, by0), 0.0)
    inter = iw * ih
    return np.divide(inter, a_area + b_area - inter, out=np.zeros_like(inter),
                     where=inter > 0)


def _weights(left: BoxArrays, right: BoxArrays, alpha: float) -> np.ndarray:
    """Blend of flow-carried and raw IoU for every left-right pair, zero
    across categories: (n, m) for boxes of n and m observations, and
    (b, n, m) for b stacked pairs of frames.  Each entry is elementwise
    arithmetic on its two boxes alone, so it does not depend on the shape
    of the call."""
    raw, flow = _iou(left.boxes, right.boxes[:, 0])
    w = alpha * flow + (1.0 - alpha) * raw
    return np.where(left.categories[..., None] == right.categories[..., None, :], w, 0.0)


# The most weights one batched ``_weights`` call computes.  Frame pairs are
# padded to the widest frame of their sequence, w objects, and weighed
# PAIR_BATCH_ENTRIES // w² pairs a call, or one pair alone where w² exceeds
# it: a sequence of 8-object frames takes one call for up to 64 pairs, and
# a pair of 66-object frames is weighed alone.  The bound keeps the
# kernel's temporaries, a few float arrays of twice this many entries,
# small however wide and long the sequence is.
PAIR_BATCH_ENTRIES = 4096


def _pair_weights(table: BoxArrays, offsets: list[int], alpha: float) -> list[np.ndarray]:
    """The weights of each consecutive frame pair, frame f being columns
    ``offsets[f]:offsets[f + 1]`` of ``table``: for pair f, an (n_f,
    n_{f+1}) view equal to ``_weights`` of the two frames' boxes."""
    widths = [b - a for a, b in zip(offsets, offsets[1:])]
    width = max(widths, default=0)
    # Frame f's column c, padded with the table's last column: padded
    # entries are computed and never read.
    cols = np.minimum(np.add.outer(offsets[:-1], np.arange(width)), len(table.categories) - 1)
    boxes, codes = table.boxes[..., cols], table.categories[cols]
    batch = PAIR_BATCH_ENTRIES // max(width * width, 1) or 1
    out = []
    for b in range(0, len(widths) - 1, batch):
        e = min(b + batch, len(widths) - 1)
        w = _weights(BoxArrays(boxes[..., b:e, :], codes[b:e]),
                     BoxArrays(boxes[..., b + 1:e + 1, :], codes[b + 1:e + 1]), alpha)
        out += [w[k, :widths[f], :widths[f + 1]] for k, f in enumerate(range(b, e))]
    return out


def _shift(bbox, d):
    return (bbox[0] + d[0], bbox[1] + d[1], bbox[2] + d[0], bbox[3] + d[1])


@dataclass(frozen=True)
class MatchResult:
    assignments: tuple[tuple[int, int, float], ...]
    unmatched_left: tuple[int, ...]
    unmatched_right: tuple[int, ...]


def _load_solver():
    """scipy's compiled ``linear_sum_assignment`` (Crouse's shortest
    augmenting path), loaded from its extension file so that
    ``scipy.optimize``'s ``__init__``, which imports far more than this one
    routine, never runs.  Where the file lies is private to scipy, so when it
    is missing or will not load, ``scipy.optimize`` supplies the same
    routine."""
    import scipy

    spec = FileFinder(os.path.join(scipy.__path__[0], "optimize"),
                      (ExtensionFileLoader, EXTENSION_SUFFIXES)).find_spec(
                          "scipy.optimize._lsap")
    if spec is not None:
        try:
            module = module_from_spec(spec)
            spec.loader.exec_module(module)
            return module.linear_sum_assignment
        except (ImportError, AttributeError):
            pass
    from scipy.optimize import linear_sum_assignment
    return linear_sum_assignment


# The assignment solver: _load_solver's routine, loaded on the first match
# because only inferred tracking needs it.
_solve = None


def match_frames(weights: np.ndarray, w_min: float) -> MatchResult:
    """Maximum-weight assignment of the rows of ``weights`` (n_left,
    n_right) to its columns; pairs weighing less than ``w_min`` stay
    unmatched."""
    global _solve
    if _solve is None:
        _solve = _load_solver()
    nl, nr = weights.shape
    rows, cols = _solve(weights, maximize=True)
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
    """One instance's observations, keyed by frame position: in its window
    (``link_window``) or in its whole sequence (``link_sequence``).
    Occlusion gaps appear as missing keys."""

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


def attribute_runs(observations) -> tuple[list[int], list[tuple]]:
    """The runs of equal attributes along ``observations``: each run's end
    (one past its last index) and its attribute items in key order.  No
    attributes and ``{}`` are one run of no items."""
    ends, runs = [], []
    for i, obs in enumerate(observations, 1):
        items = tuple(obs.attributes.items()) if obs.attributes else ()
        if runs and items == runs[-1]:
            ends[-1] = i
        else:
            ends.append(i)
            runs.append(items)
    return ends, runs


def vote_attributes(runs: tuple[list[int], list[tuple]], lo: int, hi: int) -> dict:
    """Each attribute's most frequent value over observations ``lo:hi`` of
    ``attribute_runs``, the one seen first winning a tie (``max`` keeps the
    first of equal keys, and dicts keep insertion order); keys in the order
    first seen.  A run counts once per observation of it in the range."""
    ends, items = runs
    votes: dict[str, dict] = {}
    r = bisect_right(ends, lo)
    while lo < hi:
        end = min(ends[r], hi)
        for key, value in items[r]:
            counts = votes.setdefault(key, {})
            counts[value] = counts.get(value, 0) + end - lo
        lo, r = end, r + 1
    return {key: max(counts, key=counts.get) for key, counts in votes.items()}


def ordinal_ids(keys: list[tuple]) -> list[str]:
    """Ids of the tracker's tracks and the generator's objects keyed
    ``(category, first frame, centroid x, y)``: the category in lower case
    and a two-digit ordinal in it by key, the order of ``keys`` breaking ties."""
    ids = [""] * len(keys)
    counts: dict[str, int] = {}
    for i in sorted(range(len(keys)), key=keys.__getitem__):
        cat = keys[i][0]
        counts[cat] = counts.get(cat, 0) + 1
        ids[i] = f"{cat.lower()}{counts[cat]:02d}"
    return ids


def _assign_ids(tracks: list[Trajectory]) -> list[Trajectory]:
    """``tracks`` with their ``ordinal_ids``, ordered by id."""
    keys = [(t.category, t.first_frame, *t.observations[t.first_frame].centroid_px)
            for t in tracks]
    for t, tid in zip(tracks, ordinal_ids(keys)):
        t.instance_id = tid
    return sorted(tracks, key=lambda t: t.instance_id)


def _group_oracle(frames) -> tuple[list[Trajectory], list[tuple]]:
    """The observations of ``frames`` grouped by ``gt_instance``, one track
    per run of frames in which a label keeps its category, sorted by id,
    with no attributes; and
    the labelling faults in frame and object order, as ``(position, since,
    error, message)``: an object without a label, or a label whose category
    changes since its previous observation."""
    tracks, current, faults = [], {}, []
    for pos, frame in enumerate(frames):
        for obs in frame.objects:
            gid = obs.gt_instance
            if not gid:
                faults.append((pos, pos, MissingGroundTruthIds,
                               f"frame {frame.frame_index} has an object without gt_instance"))
                continue
            t = current.get(gid)
            if t is None or t.category != obs.category:
                if t is not None:
                    faults.append((pos, next(reversed(t.observations)), CategoryMismatch,
                                   f"{gid}: {t.category} vs {obs.category} across frames"))
                t = current[gid] = Trajectory(gid, obs.category, {})
                tracks.append(t)
            t.observations[pos] = obs
    tracks.sort(key=lambda t: t.instance_id)
    return tracks, faults


def check_labels(faults, w: SceneWindow) -> None:
    """Raise the first labelling fault in ``w``'s frames: the error that
    grouping those frames alone meets first."""
    for pos, since, error, message in faults:
        if w.start <= since and pos < w.start + w.n:
            raise error(message)


class _LiveTrack:
    __slots__ = ("observations", "category", "repr_obs", "misses")

    def __init__(self, pos: int, obs: ObjectObservation):
        self.observations = {pos: obs}
        self.category = obs.category
        self.repr_obs = obs
        self.misses = 0

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
        self.observations[pos] = obs
        self.repr_obs = obs
        self.misses = 0

    def ghost(self):
        """Hypothetical observation continuing the track at constant image
        velocity.  It keeps the last real depth: matching reads only box,
        flow and category."""
        d = self.step_estimate()
        self.misses += 1
        self.repr_obs = self.repr_obs._replace(
            centroid_px=(self.repr_obs.centroid_px[0] + d[0],
                         self.repr_obs.centroid_px[1] + d[1]),
            bbox=_shift(self.repr_obs.bbox, d),
        )


def _match_live(live: list[_LiveTrack], rows: list[int | None], real: np.ndarray,
                table: BoxArrays, columns: slice, codes: dict, cfg: TrackerConfig) -> MatchResult:
    """Match the live tracks to the frame whose objects are ``columns`` of
    ``table``.  ``rows[i]`` is live track i's row in ``real``, the frame
    pair's weights, or None for a ghost, whose row is computed here.  Every
    entry is ``_weights``'s elementwise kernel, so the matrix equals the one
    built from the live tracks' boxes."""
    ghosts = [i for i, r in enumerate(rows) if r is None]
    if ghosts:
        weights = np.empty((len(rows), real.shape[1]))
        observed = [i for i, r in enumerate(rows) if r is not None]
        weights[observed] = real[[rows[i] for i in observed]]
        weights[ghosts] = _weights(box_arrays([live[i].repr_obs for i in ghosts], codes),
                                   BoxArrays(table.boxes[..., columns],
                                             table.categories[columns]), cfg.alpha)
    else:
        weights = real[rows]
    return match_frames(weights, cfg.w_min)


def _link_inferred(frames, cfg: TrackerConfig) -> list[Trajectory]:
    """Track over ``frames``, with observations keyed by position in them
    and no attributes."""
    codes: dict[str, int] = {}
    table = box_arrays([obs for frame in frames for obs in frame.objects], codes)
    offsets = list(accumulate((len(frame.objects) for frame in frames), initial=0))
    pair_weights = _pair_weights(table, offsets, cfg.alpha)
    live = [_LiveTrack(0, obs) for obs in frames[0].objects]
    # Each live track's row in the previous frame's objects; None for a ghost.
    rows: list[int | None] = list(range(len(live)))
    # Every track in birth order: by frame, then by index within the frame.
    born = list(live)

    for pos in range(1, len(frames)):
        objects = frames[pos].objects
        result = _match_live(live, rows, pair_weights[pos - 1], table,
                             slice(offsets[pos], offsets[pos + 1]), codes, cfg)
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


def index_tracks(tracks: list[Trajectory], faults: list) -> tuple:
    """The record ``compile_windows`` reads: ``tracks``, ``faults``, each
    track's sorted positions, and its ``attribute_runs`` along them."""
    keys = [sorted(t.observations) for t in tracks]
    return tracks, faults, keys, [attribute_runs([t.observations[p] for p in ks])
                                  for t, ks in zip(tracks, keys)]


def link_sequence(seq: Sequence, mode: str = "inferred",
                  cfg: TrackerConfig = TrackerConfig()) -> tuple:
    """The sequence's tracks, keyed by frame position, with attributes voted
    over all of their observations, and its labelling faults, as
    ``index_tracks`` records them: built once per mode and ``cfg`` and
    cached on the sequence."""
    if mode not in ("oracle", "inferred"):
        raise ValueError(f"unknown tracking mode {mode!r}")
    cache = seq.__dict__.setdefault("_tracks", {})
    key = mode if mode == "oracle" else cfg
    if key not in cache:
        grouped = (_group_oracle(seq.frames) if mode == "oracle"
                   else (_link_inferred(seq.frames, cfg), []))
        tracks, _, keys, runs = cache[key] = index_tracks(*grouped)
        for t, ks, r in zip(tracks, keys, runs):
            t.attributes = vote_attributes(r, 0, len(ks))
    return cache[key]


def cut_track(t: Trajectory, keys: list[int], runs: tuple, lo: int, hi: int,
              start: int) -> Trajectory:
    """``t`` cut to its observations at ``keys[lo:hi]`` of its sorted
    positions, rebased to ``start``, with attributes voted over the cut from
    ``runs``, its ``attribute_runs`` along ``keys``: a cut of all of them
    keeps ``t``'s."""
    observations = {p - start: t.observations[p] for p in keys[lo:hi]}
    attributes = dict(t.attributes) if hi - lo == len(keys) else vote_attributes(runs, lo, hi)
    return Trajectory(t.instance_id, t.category, observations, attributes)


def link_window(w: SceneWindow, mode: str = "inferred",
                cfg: TrackerConfig = TrackerConfig()) -> list[Trajectory]:
    """Group the window's observations into instance trajectories.

    ``oracle`` trusts gt_instance labels; ``inferred`` chains frame-pair
    matchings, bridging up to ``cfg.max_gap`` occluded frames per track.
    Either runs once over the window's whole sequence and gives ids once,
    so an object keeps its id from window to window; the window gets those
    tracks cut to its frames.
    """
    tracks, faults, keys, runs = link_sequence(w.sequence, mode, cfg)
    check_labels(faults, w)
    cut = []
    for t, ks, r in zip(tracks, keys, runs):
        lo, hi = bisect_left(ks, w.start), bisect_left(ks, w.start + w.n)
        if lo < hi:
            cut.append(cut_track(t, ks, r, lo, hi, w.start))
    return cut
