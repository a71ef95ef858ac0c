"""Ground-fact compilation: evaluate every atomic predicate over windows'
trajectories and geometry.

``compile_windows`` is the one kernel.  It does each track's work once per
call and each window reads its values off by index: the cut and presence
by bisection over each track's sorted positions, mean centroid x and depth
per observation count, motion for every (track, window) at once, the pair
table of distance trends, and per-pair containment hits counted from prefix
sums.  Per window it cuts the tracks, votes their attributes and emits the
facts: the tracks' categories and ``COMPUTED``'s predicates alone.  Motion
maps each frame's BEV point (``Sequence.bev``) by the window's cumulative
transform with ``math``'s cosine and sine and IEEE elementwise arithmetic,
so every value equals the scalar computation's."""

from __future__ import annotations

import math
from bisect import bisect_left
from dataclasses import dataclass
from itertools import accumulate, chain
from numbers import Real

import numpy as np

from .fol import Const, Literal
from .inference import FactSet
from .logicpad import FUNC_REL_SUFFIX, RuleSet, is_constant_name
from .scene import STATIC_CATEGORIES, SURFACE_CATEGORIES, SceneWindow, bev_of
from .tracking import Trajectory, cut_track

# Every predicate the compiler computes, with its arity.  Each track's
# category is a fact too, of an arity-1 predicate the rule file declares.
COMPUTED = {
    "Appears": 1, "Disappears": 1, "Moves": 1, "SpeedUp": 1, "SpeedDown": 1,
    "AtLeft": 1, "AtRight": 1, "AtCenter": 1, "CloseToCamera": 1,
    "ColOfRel": 2, "TypeOfRel": 2, "DistanceDecreases": 2,
    "DistanceDecreasesToZero": 2, "DistanceIncreases": 2, "On": 2,
}


def check_catalog(rules: RuleSet) -> None:
    """Raise unless ``rules`` declares each computed predicate atomic with its
    arity (``ColOfRel`` and ``TypeOfRel`` through the functions ``ColOf`` and
    ``TypeOf``), and the compiler computes each atomic predicate of two or
    more arguments that ``rules`` declares: one of arity 1 is a category."""
    for pred, arity in COMPUTED.items():
        d = rules.decl(pred)
        if d is None or (d.source, d.arity) != ("atomic", arity):
            found = f"{d.source} {pred}/{d.arity}" if d else "no declaration"
            if pred.endswith(FUNC_REL_SUFFIX):
                found += f" (function {pred.removesuffix(FUNC_REL_SUFFIX)})"
            raise ValueError(f"the compiler computes atomic {pred}/{arity}; "
                             f"the rule file has {found}")
    for d in rules.atomic_predicates():
        if d.arity >= 2 and d.name not in COMPUTED:
            raise ValueError(f"atomic predicate {d.name}/{d.arity} is not one the "
                             "compiler computes")


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


def _pair_table(rows: np.ndarray, cols: np.ndarray, xz: np.ndarray, n_tracks: int, n: int):
    """Distance trends of every track pair over ``n`` frames, from which any
    run of frames reads its own (``_trends``).

    Observation i is track ``rows[i]``'s at frame ``cols[i]``, with BEV point
    ``xz[:, i]`` in its own frame (rigid camera motion cannot change a
    distance).  The common frames of each pair ``ia < ib``, in pair-then-
    frame order, are the table's entries: each entry's distance, and running
    counts of the steps between a pair's consecutive entries that decrease
    and increase it.  ``upto[p, f]`` counts the entries up to pair p's frame
    f, so a run of frames finds its entries of each pair by index.
    """
    seen = np.zeros((n_tracks, n), dtype=bool)
    seen[rows, cols] = True
    # x and z of each point at its flat (track, frame) index.
    flat = np.zeros((2, n_tracks * n))
    flat[:, rows * n + cols] = xz
    ia, ib = (np.arange(n_tracks)[:, None] < np.arange(n_tracks)).nonzero()
    both = seen[ia] & seen[ib]
    pair, frame = both.nonzero()
    dx, dz = (np.take(flat, ia[pair] * n + frame, axis=1)
              - np.take(flat, ib[pair] * n + frame, axis=1))
    d = np.hypot(dx, dz)
    step = pair[1:] == pair[:-1]
    dec, inc = np.zeros((2, len(d)), dtype=int)
    (step & (d[1:] < d[:-1])).cumsum(out=dec[1:])
    (step & (d[1:] > d[:-1])).cumsum(out=inc[1:])
    upto = both.cumsum().reshape(both.shape)
    return ia, ib, both, upto, d, dec, inc


def _trends(table, starts: np.ndarray, n: int):
    """For each run of frames ``starts[j]..starts[j]+n-1``, by run and then
    by pair, the pairs with two or more common frames in it: the run, the
    table rows ``ia < ib``, the number of steps between consecutive common
    frames, how many of them decrease and increase the distance, and the
    first and last distances."""
    ia, ib, both, upto, d, dec, inc = table
    first = (upto[:, starts] - both[:, starts]).T
    last = upto[:, starts + n - 1].T - 1
    run, p = np.nonzero(last > first)
    first, last = first[run, p], last[run, p]
    return (run, ia[p], ib[p], last - first, dec[last] - dec[first],
            inc[last] - inc[first], d[first], d[last])


def _means(values: np.ndarray, first: np.ndarray, count: np.ndarray) -> np.ndarray:
    """``values[:, first[e]:first[e] + count[e]].mean(axis=1)`` for each
    entry e, as columns: one mean per count, each row summed as ``np.mean``
    sums that row alone."""
    out = np.empty((len(values), len(first)))
    rows = np.arange(len(values))[:, None, None]
    for c in set(count.tolist()):
        sel = (count == c).nonzero()[0]
        # Indices only, no slice, keep the gather C-ordered, so each row is
        # reduced contiguously; np.mean is that sum divided by the count.
        out[:, sel] = values[rows, first[sel, None] + np.arange(c)].sum(axis=2) / c
    return out


_SIGNS = np.array([-1.0, 1.0])[:, None, None]


# Infinite or huge points give inf and nan as Python's float arithmetic
# does, with no warning.
@np.errstate(over="ignore", invalid="ignore")
def _motion(xz: np.ndarray, rel: np.ndarray, tf: np.ndarray, fps: float):
    """Each entry's net displacement and change from its first step's speed
    to its last's, as ``kinematics`` gives them over a track's window points
    with each interior gap interpolated between the observed points around
    it.  Those read only positions first, first+1, last-1 and last, so an
    entry brings its first, second, second-to-last and last observations:
    ``xz`` (2, 4, m) their own-frame points, ``rel`` (4, m) their window
    positions and ``tf`` (4, 4, m) the window's cumulative cosine, sine and
    translation there."""
    # (c x - s z + tx, s x + c z + tz), each difference a sum with the
    # negated term, as IEEE defines it.
    points = tf[:2] * xz[0] + tf[1::-1] * xz[1] * _SIGNS + tf[2:]
    # Positions first+1 and last-1, where not observed, are interpolated.
    for i, lo, hi, at in ((1, 0, 1, rel[0] + 1), (2, 2, 3, rel[3] - 1)):
        gap = (rel[i] != at).nonzero()[0]
        if len(gap):
            f = (at - rel[lo])[gap] / (rel[hi] - rel[lo])[gap]
            a, b = points[:, lo, gap], points[:, hi, gap]
            points[:, i, gap] = a + f * (b - a)
    # first to last, last-1 to last and first to first+1.
    d = points[:, [3, 3, 1]] - points[:, [0, 2, 0]]
    distance = np.sqrt((d * d).sum(axis=0))
    return distance[0], distance[1] * fps - distance[2] * fps


def _cumulative(wins: list[SceneWindow]) -> np.ndarray:
    """(windows * n, 4): the cosine, sine and translation of each window's
    ``cumulative`` transforms, window by window."""
    return np.array([(math.cos(t.rotation_rad), math.sin(t.rotation_rad), *t.translation_m)
                     for w in wins for t in w.cumulative()])


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


def compile_windows(tracks: list[Trajectory], wins: list[SceneWindow], cfg: CompilerConfig,
                    rules: RuleSet, base: int = 0):
    """Each window's ``WindowFacts``, in order, for ``tracks`` keyed by frame
    position, position p being frame ``base + p`` of the windows' sequence
    (windows of one sequence and length).  Categories must be atomic
    predicates of ``rules``, attribute values become constants through its
    vocabulary, and a window fails on its own tracks when it is reached.
    A window's tracks are ``tracks``' own objects where it holds all of a
    track from position 0, as ``compile_window`` gives back the tracks it
    is given, and copies cut to its frames elsewhere (``cut_track``).
    Literals are interned on the sequence, so windows that state the same
    fact hold one object."""
    seq, n = wins[0].sequence, wins[0].n
    k = seq.intrinsics
    width = cfg.image_width if cfg.image_width is not None else 2.0 * k.cx
    declared = {d.name for d in rules.atomic_predicates()}
    literals = seq.__dict__.setdefault("_literals", {})

    # Observation i, in track-then-position order: its track, position, own
    # BEV point (from Sequence.bev, or back-projected for an observation
    # that is not one of its frame's objects), centroid x and depth.
    keys = [sorted(t.observations) for t in tracks]
    observed = [t.observations[p] for t, ks in zip(tracks, keys) for p in ks]
    pos = np.fromiter(chain.from_iterable(keys), int, len(observed))
    row = np.repeat(np.arange(len(tracks)), list(map(len, keys)))
    bev = seq.bev
    xz = np.fromiter(chain.from_iterable([bev[base + p].get(id(o)) or bev_of(o, k)
                                          for p, o in zip(pos.tolist(), observed)]),
                     float, 2 * len(observed)).reshape(-1, 2).T
    x_depth = np.array([[o.centroid_px[0] for o in observed], [o.depth_m for o in observed]],
                       dtype=float).reshape(2, -1)
    starts = [w.start - base for w in wins]

    # Entry (j, r, lo, c, g): track r seen in window j at c of its sorted
    # positions from lo, observations g..g+c-1.  Motion reads an entry of
    # two or more at its first, second, second-to-last and last (ends).
    offsets = list(accumulate(map(len, keys), initial=0))
    spans = [(j, r, lo, hi - lo, offsets[r] + lo) for j, start in enumerate(starts)
             for r, ks in enumerate(keys)
             if (lo := bisect_left(ks, start)) < (hi := bisect_left(ks, start + n))]
    runs, _, _, count, g = np.array(spans, dtype=int).reshape(-1, 5).T
    moving = (count >= 2).nonzero()[0]
    at, g0, g1 = runs[moving], g[moving], (g + count - 1)[moving]
    ends = np.array([g0, g0 + 1, g1 - 1, g1])
    rel = pos[ends] - np.array(starts)[at]
    motion = np.zeros((2, len(spans)))
    tf = _cumulative(wins)[at * n + rel].transpose(2, 0, 1)
    motion[:, moving] = _motion(xz[:, ends], rel, tf, k.fps)
    entries = [[] for _ in wins]
    for (j, r, lo, c, _), *values in zip(spans, *_means(x_depth, g, count).tolist(),
                                         *motion.tolist()):
        entries[j].append((r, lo, lo + c, keys[r][lo] - starts[j],
                           keys[r][lo + c - 1] - starts[j], *values))

    # Pairwise relations over frames where both instances are observed.
    (pair_runs, ia, ib, steps, dec, inc, d_first, d_last) = _trends(
        _pair_table(row, pos, xz, len(tracks), max(pos.max(initial=0), starts[-1] + n) + 1),
        np.array(starts), n)
    closing = (dec / steps >= cfg.trend_frac) & (d_first - d_last > cfg.eps_move)
    opening = (inc / steps >= cfg.trend_frac) & (d_last - d_first > cfg.eps_move)
    keep = (closing | opening).nonzero()[0]
    trends = [[] for _ in wins]
    for j, *trend in zip(*np.array([pair_runs, ia, ib, closing, opening])[:, keep].tolist(),
                         *np.array([d_first, d_last])[:, keep].tolist()):
        trends[j].append(trend)

    # Support relations: a dynamic object is On a surface in a window when
    # its bottom middle lies in the surface's box in most of their common
    # frames there, counted from prefix sums over all of them.
    supports = [[] for _ in wins]
    surfaces = [j for j, s in enumerate(tracks) if s.category in SURFACE_CATEGORIES]
    for a, t in enumerate(tracks):
        if t.category in STATIC_CATEGORIES:
            continue
        feet = {p: _bottom_mid(o.bbox) for p, o in t.observations.items()}
        for s in surfaces:
            box = tracks[s].observations
            common = sorted(feet.keys() & box.keys())
            hits = list(accumulate([_contains(box[p].bbox, feet[p]) for p in common], initial=0))
            for j, start in enumerate(starts):
                lo, hi = bisect_left(common, start), bisect_left(common, start + n)
                if hi > lo and (frac := (hits[hi] - hits[lo]) / (hi - lo)) > 0.5:
                    supports[j].append((a, s, frac))

    # A track's category fact is interned as it is; every other fact is
    # emitted, and must be of a predicate of the table, with its arity.
    def intern(pred: str, *args: str) -> Literal:
        lit = literals[pred, args] = Literal(pred, tuple(map(Const, args)))
        return lit

    for j, (w, start) in enumerate(zip(wins, starts)):
        facts: list[Literal] = []
        provenance: dict = {}

        def emit(pred: str, *args: str, **evidence):
            lit = literals.get((pred, args))
            if lit is None:
                if COMPUTED.get(pred) != len(args):
                    raise ValueError(f"the compiler computes no {pred}/{len(args)}")
                lit = intern(pred, *args)
            facts.append(lit)
            if evidence:
                provenance[lit] = evidence

        cut = {r: tracks[r] if hi - lo == len(keys[r]) and not start
               else cut_track(tracks[r], keys[r], lo, hi, start) for r, lo, hi, *_ in entries[j]}
        for t in cut.values():
            if t.category not in declared:
                raise UndeclaredCategory(
                    f"{t.instance_id}: category {t.category!r} is not a declared atomic predicate"
                )

        for r, _, _, first, last, mean_x, mean_depth, displacement, delta in entries[j]:
            t = cut[r]
            name = t.instance_id
            facts.append(literals.get((t.category, (name,))) or intern(t.category, name))
            if first > 0:
                emit("Appears", name, first_frame=first)
            if last < n - 1:
                emit("Disappears", name, last_frame=last)

            if last > first:
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

        for a, b, closes, opens, initial, final in trends[j]:
            a, b = cut[a].instance_id, cut[b].instance_id
            if closes:
                for x, y in ((a, b), (b, a)):
                    emit("DistanceDecreases", x, y, initial_m=initial, final_m=final)
                    if final < cfg.eps_contact:
                        emit("DistanceDecreasesToZero", x, y, final_m=final)
            if opens:
                for x, y in ((a, b), (b, a)):
                    emit("DistanceIncreases", x, y, initial_m=initial, final_m=final)

        for a, s, frac in supports[j]:
            emit("On", cut[a].instance_id, cut[s].instance_id, containment_frac=frac)

        yield WindowFacts(w.window_id, FactSet(frozenset(facts)), provenance, window=w,
                          tracks=list(cut.values()))


def compile_window(w: SceneWindow, tracks: list[Trajectory], cfg: CompilerConfig,
                   rules: RuleSet) -> WindowFacts:
    """``compile_windows`` on one window of its own tracks, keyed by window
    position."""
    return next(compile_windows(tracks, [w], cfg, rules, base=w.start))
