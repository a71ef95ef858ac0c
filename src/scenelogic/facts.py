"""Ground-fact compilation: evaluate every atomic predicate over a window's
trajectories and geometry.

Motion facts read a track's points in the window's origin: each is its
frame's BEV point (``Sequence.bev``) mapped by that frame's cumulative
``Transform2``."""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import chain
from numbers import Real

import numpy as np

from .fol import Const, Literal
from .geometry import distance
from .inference import FactSet
from .logicpad import RuleSet, is_constant_name
from .scene import STATIC_CATEGORIES, SURFACE_CATEGORIES, SceneWindow, Sequence, bev_of
from .tracking import Trajectory, cut_source, presence


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
        values = {k: v for k, v in vars(self).items() if v is not None or k != "image_width"}
        for k, v in values.items():
            # A bool is an int to isinstance, but no threshold.
            if isinstance(v, bool) or not isinstance(v, Real):
                raise ValueError(f"{k} must be a number, got {v!r}")
        if not all(map(math.isfinite, values.values())):
            raise ValueError(f"compiler thresholds must be finite, got {values}")
        if min(self.eps_move, self.eps_speed, self.eps_contact, self.close_depth) <= 0:
            raise ValueError("eps_move, eps_speed, eps_contact and close_depth must be positive")
        if not 0 < self.trend_frac <= 1:
            raise ValueError(f"trend_frac must be in (0, 1], got {self.trend_frac}")
        if not 0 <= self.left_frac < self.right_frac <= 1:
            raise ValueError("left_frac and right_frac must satisfy 0 <= left_frac < "
                             f"right_frac <= 1, got {self.left_frac} and {self.right_frac}")
        if self.image_width is not None and self.image_width <= 0:
            raise ValueError(f"image_width must be positive, got {self.image_width}")


@dataclass
class WindowFacts:
    window_id: int
    facts: FactSet
    provenance: dict  # Literal -> numeric evidence
    window: SceneWindow | None = None
    tracks: list[Trajectory] | None = None


def _window_frames(w: SceneWindow):
    """Each frame's BEV points (``Sequence.bev``) and the cumulative
    ``Transform2`` that maps its coordinates into the window's (frame
    0's)."""
    return list(zip(w.sequence.bev[w.start:w.start + w.n], w.cumulative()))


def _own_point(frame, obs, k) -> tuple[float, float]:
    """``obs``'s BEV point in its own frame's coordinates, read from the
    sequence's ``bev``; an observation that is not one of its frame's
    objects is back-projected."""
    return frame[0].get(id(obs)) or bev_of(obs, k)


def _pair_table(points: list[dict], n: int):
    """Distance trends of every track pair over ``n`` frames, from which any
    run of frames reads its own (``_trends``).

    ``points[t]`` maps track t's frame positions to BEV points in their own
    frame's coordinates (rigid camera motion cannot change a distance), so a
    pair's distance in a frame is the same whichever frames are read.  The
    pairs are ``ia < ib``.  Their common frames, in pair-then-frame order,
    are the table's entries: each entry's distance, and the running counts
    of the steps between consecutive entries of a pair that decrease and
    increase the distance.  ``upto[p, f]`` counts the entries up to pair p's
    frame f, so a run of frames finds its entries of each pair by index.
    """
    rows = np.repeat(np.arange(len(points)), [len(keyed) for keyed in points])
    cols = np.fromiter(chain.from_iterable(points), int)
    seen = np.zeros((len(points), n), dtype=bool)
    seen[rows, cols] = True
    # x and z of each point at its flat (track, frame) index.
    values = chain.from_iterable(chain.from_iterable(keyed.values() for keyed in points))
    xz = np.zeros((2, len(points) * n))
    xz[:, rows * n + cols] = np.fromiter(values, float).reshape(-1, 2).T
    ia, ib = np.triu_indices(len(points), 1)
    both = seen[ia] & seen[ib]
    pair, frame = np.nonzero(both)
    dx, dz = (np.take(xz, ia[pair] * n + frame, axis=1)
              - np.take(xz, ib[pair] * n + frame, axis=1))
    d = np.hypot(dx, dz)
    step = pair[1:] == pair[:-1]
    dec, inc = np.zeros((2, len(d)), dtype=int)
    np.cumsum(step & (d[1:] < d[:-1]), out=dec[1:])
    np.cumsum(step & (d[1:] > d[:-1]), out=inc[1:])
    upto = np.cumsum(both).reshape(both.shape)
    return ia, ib, both, upto, d, dec, inc


def _trends(table, start: int, stop: int):
    """The pairs with two or more common frames in ``start..stop-1``, as
    table rows ``ia < ib``, with the number of steps between consecutive
    common frames there, how many of them decrease and increase the
    distance, and the first and last distances."""
    ia, ib, both, upto, d, dec, inc = table
    first = upto[:, start] - both[:, start]
    last = upto[:, stop - 1] - 1
    p = np.flatnonzero(last > first)
    first, last = first[p], last[p]
    return (ia[p].tolist(), ib[p].tolist(), last - first, dec[last] - dec[first],
            inc[last] - inc[first], d[first], d[last])


def _sequence_table(seq: Sequence, tracks: list[Trajectory]):
    """``_pair_table`` of a sequence's tracks, built once per track list and
    cached on the sequence.  The entry holds ``tracks``, so the ``id`` that
    keys it stays unique."""
    cache = seq.__dict__.setdefault("_pair_tables", {})
    entry = cache.get(id(tracks))
    if entry is None:
        bev = seq.bev
        points = [{pos: bev[pos][id(obs)] for pos, obs in t.observations.items()}
                  for t in tracks]
        entry = cache[id(tracks)] = (tracks, _pair_table(points, len(seq.frames)))
    return entry[1]


def _window_trends(w: SceneWindow, tracks: list[Trajectory], frames):
    """``_trends`` of the window's track pairs, and the tracks by the table
    rows the pairs name.  A cut that ``link_window`` returned reads its
    sequence's table; any other track list gets a table of its own over
    the window's frames, from its observations' own points (``frames``
    as ``_window_frames`` gives them)."""
    source = cut_source(w, tracks)
    if source is None:
        k = w.intrinsics
        own = [{pos: _own_point(frames[pos], obs, k) for pos, obs in t.observations.items()}
               for t in tracks]
        return _trends(_pair_table(own, w.n), 0, w.n), tracks
    seq_tracks, rows = source
    table = _sequence_table(w.sequence, seq_tracks)
    return _trends(table, w.start, w.start + w.n), dict(zip(rows, tracks))


def _motion(t: Trajectory, keys: list[int], frames, k) -> tuple[float, float]:
    """``t``'s net displacement and the change from its first step's speed
    to its last's, as ``kinematics`` gives them over the track's window
    points with each interior gap filled by linear interpolation between
    the observed positions around it.  Those read only the points at
    positions first, first+1, last-1 and last, so only the observations
    they need are mapped.  ``keys`` are t's positions, sorted, two or
    more."""
    first, last = keys[0], keys[-1]
    mapped = {p: frames[p][1].transform(_own_point(frames[p], t.observations[p], k))
              for p in {first, keys[1], keys[-2], last}}
    b = _interpolated(mapped, first + 1, first, keys[1])
    c = _interpolated(mapped, last - 1, keys[-2], last)
    a, d = mapped[first], mapped[last]
    return distance(a, d), distance(c, d) * k.fps - distance(a, b) * k.fps


def _interpolated(mapped: dict, p: int, lo: int, hi: int) -> tuple[float, float]:
    """The point at position ``p``: its own if observed, else linearly
    interpolated between the observed positions ``lo < p < hi``."""
    if p in mapped:
        return mapped[p]
    f = (p - lo) / (hi - lo)
    a, b = mapped[lo], mapped[hi]
    return (a[0] + f * (b[0] - a[0]), a[1] + f * (b[1] - a[1]))


def _means(tracks: list[Trajectory], keys: list[list[int]]) -> list[tuple[float, float]]:
    """Each track's mean centroid x and mean depth over its observations in
    position order.  Tracks with equal observation counts share one
    ``np.mean(..., axis=1)``: each row of a 2-D mean is summed exactly as
    np.mean sums that row alone."""
    by_count: dict[int, list[int]] = {}
    for i, keys_t in enumerate(keys):
        by_count.setdefault(len(keys_t), []).append(i)
    out: list = [None] * len(tracks)
    for members in by_count.values():
        rows = []
        for i in members:
            observed = [tracks[i].observations[p] for p in keys[i]]
            rows.append([o.centroid_px[0] for o in observed])
            rows.append([o.depth_m for o in observed])
        means = np.mean(rows, axis=1).tolist()
        for j, i in enumerate(members):
            out[i] = (means[2 * j], means[2 * j + 1])
    return out


def _vocab_constant(rules: RuleSet, section: str, t: Trajectory, attribute: str) -> str:
    """The constant for ``t``'s ``attribute``: its vocabulary entry in
    ``section``, else the value itself, which must be a constant name."""
    value = str(t.attributes[attribute])
    constant = rules.vocabulary.get(section, {}).get(value.lower())
    if constant is None and not is_constant_name(value):
        raise ValueError(f"{t.instance_id}: {attribute} {value!r} is neither in the "
                         f"{section} vocabulary nor a constant name")
    return constant or value


def _bottom_mid(bbox) -> tuple[float, float]:
    return ((bbox[0] + bbox[2]) / 2.0, bbox[3])


def _contains(bbox, pt) -> bool:
    return bbox[0] <= pt[0] <= bbox[2] and bbox[1] <= pt[1] <= bbox[3]


def compile_window(w: SceneWindow, tracks: list[Trajectory], cfg: CompilerConfig,
                   rules: RuleSet) -> WindowFacts:
    """Evaluate the atomic predicate catalog over the window's trajectories.
    Track categories must be atomic predicates of ``rules``, and attribute
    values become constants through its vocabulary.  Each literal is built
    once per sequence and kept on it, so windows that state the same fact
    hold one object."""
    facts: list[Literal] = []
    provenance: dict = {}
    literals = w.sequence.__dict__.setdefault("_literals", {})

    def emit(pred: str, *args: str, **evidence):
        lit = literals.get((pred, args))
        if lit is None:
            lit = literals[pred, args] = Literal(pred, tuple(map(Const, args)))
        facts.append(lit)
        if evidence:
            provenance[lit] = evidence

    declared = {d.name for d in rules.atomic_predicates()}
    for t in tracks:
        if t.category not in declared:
            raise UndeclaredCategory(
                f"{t.instance_id}: category {t.category!r} is not a declared atomic predicate"
            )

    k = w.intrinsics
    width = cfg.image_width if cfg.image_width is not None else 2.0 * k.cx

    frames = _window_frames(w)
    keys_all = [sorted(t.observations) for t in tracks]
    for t, keys, (mean_x, mean_depth) in zip(tracks, keys_all, _means(tracks, keys_all)):
        name = t.instance_id
        emit(t.category, name)

        flags = presence(t, w.n)
        if flags.appears:
            emit("Appears", name, first_frame=flags.first_frame)
        if flags.disappears:
            emit("Disappears", name, last_frame=flags.last_frame)

        if len(keys) >= 2:
            displacement, delta = _motion(t, keys, frames, k)
            if displacement > cfg.eps_move:
                emit("Moves", name, displacement_m=displacement)
            if delta > cfg.eps_speed:
                emit("SpeedUp", name, velocity_delta=delta)
            elif -delta > cfg.eps_speed:
                emit("SpeedDown", name, velocity_delta=delta)

        if mean_x < width * cfg.left_frac:
            emit("AtLeft", name, mean_centroid_x=mean_x)
        elif mean_x > width * cfg.right_frac:
            emit("AtRight", name, mean_centroid_x=mean_x)
        else:
            emit("AtCenter", name, mean_centroid_x=mean_x)

        if mean_depth < cfg.close_depth:
            emit("CloseToCamera", name, mean_depth_m=mean_depth)

        if "color" in t.attributes:
            emit("ColOfRel", name, _vocab_constant(rules, "colors", t, "color"))
        if "type" in t.attributes:
            emit("TypeOfRel", name, _vocab_constant(rules, "types", t, "type"))

    # Pairwise relations over frames where both instances are observed.
    (ia, ib, steps, dec, inc, first, last), by_row = _window_trends(w, tracks, frames)
    decreases = (dec / steps >= cfg.trend_frac) & (first - last > cfg.eps_move)
    increases = (inc / steps >= cfg.trend_frac) & (last - first > cfg.eps_move)
    first, last = first.tolist(), last.tolist()
    for p in np.flatnonzero(decreases | increases).tolist():
        a, b = by_row[ia[p]], by_row[ib[p]]
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
    surfaces = [s for s in tracks if s.category in SURFACE_CATEGORIES]
    for a in tracks:
        if a.category in STATIC_CATEGORIES:
            continue
        feet = {p: _bottom_mid(o.bbox) for p, o in a.observations.items()}
        for s in surfaces:
            common = feet.keys() & s.observations.keys()
            if not common:
                continue
            hits = sum(_contains(s.observations[p].bbox, feet[p]) for p in common)
            if hits / len(common) > 0.5:
                emit("On", a.instance_id, s.instance_id,
                     containment_frac=hits / len(common))

    fact_set = FactSet(frozenset(facts))
    return WindowFacts(w.window_id, fact_set, provenance, window=w, tracks=list(tracks))

