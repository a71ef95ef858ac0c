"""Test oracles for the inference engine: independent, slow mechanisms that
the compiled engine in ``scenelogic.inference`` is checked against.

- ``naive_saturate``: stratified forward chaining that re-matches every rule
  on every round through ``unify``/``apply``; same facts and same trace steps
  as ``saturate``, by a different route.
- ``brute_force_models``: the stratified model by exhaustive grounding.
- ``brute_force_answer``: a query's truth and bindings by grounding its
  variables and testing each conjunct.
- ``resolve_by_refutation``: ground queries answered by resolution
  refutation over the clausal form.
- ``scan_answer_trace``, ``scan_support_facts`` and ``sort_facts``: an
  answer's trace, a C2 payload's facts and a fact set's order, computed by
  scanning and sorting the whole trace or fact set on every call instead of
  reading the per-window indexes.
- ``link_inferred_per_window`` and ``track_points_per_observation``:
  inferred tracking and the BEV points ``compile_window`` reads, computed
  for one window's frames from scratch (every weight matrix built from the
  live tracks' boxes, every point back-projected and mapped on its own)
  instead of read from the per-frame caches.  ``cut_tracks`` cuts tracks
  to a run of frames, with attributes by ``vote_per_observation``, the
  reference for the vote over runs of equal attributes; run over a whole
  sequence and cut, the per-window tracker is the reference for the
  once-per-sequence tracker.
- ``track_kinematics_per_observation`` and ``track_facts_per_observation``:
  each track's kinematics and unary facts from every observation's window
  point, the interior gaps filled densely and the means taken one
  ``np.mean`` per list, instead of from the few points that
  ``compile_window`` reads.
- ``distance_trends_per_window``: the distance trends of a window's track
  pairs computed from that window's points alone, instead of read from a
  per-sequence pair table.
- ``estimate_origin_per_pair``: one frame pair's rigid transform from its
  own small numpy arrays, the reference for the stacked
  ``geometry.estimate_origins``.
- ``parse_rule_by_formula`` and ``parse_query_by_formula``: rule and query
  text parsed into general ``And``/``Or``/``Not``/``Implies`` formula trees
  under a quantifier prefix, which are then checked for Horn shape and
  flattened; the reference for ``logicpad``'s Datalog parser.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import product

import numpy as np

from scenelogic.facts import CompilerConfig
from scenelogic.fol import Const, Literal, Substitution, Term, Var, apply, is_var_name, unify
from scenelogic.geometry import (
    DegenerateConfiguration,
    InsufficientAnchors,
    Kinematics,
    Transform2,
    _wrap_angle,
    kinematics,
)
from scenelogic.inference import (
    Answer,
    FactSet,
    ProofTrace,
    Query,
    TraceStep,
)
from scenelogic.logicpad import (
    FUNC_REL_SUFFIX,
    ParseError,
    RuleDecl,
    RuleSet,
    _tokenize,
    _Token,
)
from scenelogic.scene import BoxArrays, SceneWindow, bev_of, box_arrays
from scenelogic.tracking import (
    TrackerConfig,
    Trajectory,
    _assign_ids,
    _LiveTrack,
    _weights,
    match_frames,
    presence,
)


class OracleTooLarge(RuntimeError):
    pass


class NonGroundQuery(ValueError):
    """Resolution mode accepts ground queries only."""


def _rule_vars(rule: RuleDecl) -> list[Var]:
    out: list[Var] = []
    for lit in (*rule.body, rule.head):
        for a in lit.args:
            if isinstance(a, Var) and a not in out:
                out.append(a)
    return out


def _active_domain(base: FactSet, rules: RuleSet) -> tuple[Const, ...]:
    consts = set(base.constants)
    for r in rules.rules:
        for lit in (r.head, *r.body):
            consts.update(a for a in lit.args if isinstance(a, Const))
    return tuple(sorted(consts, key=lambda c: c.name))


def _index(facts) -> dict:
    """pred -> first argument (None: every fact of pred) -> facts, sorted by
    predicate and then by the printed arguments."""
    idx: dict = {}
    for f in sorted(facts, key=lambda f: (f.pred, tuple(str(a) for a in f.args))):
        by_first = idx.setdefault(f.pred, {})
        by_first.setdefault(None, []).append(f)
        if f.args:
            by_first.setdefault(f.args[0], []).append(f)
    return idx


# ---------------------------------------------------------------------------
# Naive forward chaining
# ---------------------------------------------------------------------------

def _match_body(rule: RuleDecl, facts: set, index: dict,
                domain: tuple[Const, ...]):
    """Yield (substitution, positive premises) for every grounding of the rule
    body satisfied by ``facts`` (``index`` is their ``_index``).  Variables
    not bound by a positive atom are enumerated over the constant domain."""
    positive = [l for l in rule.body if not l.negated and l.pred != "="]
    negative = [l for l in rule.body if l.negated and l.pred != "="]
    equalities = [l for l in rule.body if l.pred == "="]

    def finish(sub: Substitution, premises: tuple[Literal, ...]):
        bound = set(sub)
        free = [v for v in _rule_vars(rule) if v not in bound]
        for combo in product(domain, repeat=len(free)):
            full = dict(sub)
            full.update(zip(free, combo))
            ok = True
            for eq in equalities:
                a, b = (apply(full, t) for t in eq.args)
                if (a == b) == eq.negated:
                    ok = False
                    break
            if ok and all(apply(full, n).atom not in facts for n in negative):
                yield full, premises

    def walk(i: int, sub: Substitution, premises: tuple[Literal, ...]):
        if i == len(positive):
            yield from finish(sub, premises)
            return
        atom = apply(sub, positive[i])
        first = atom.args[0] if atom.args and isinstance(atom.args[0], Const) else None
        for fact in index.get(atom.pred, {}).get(first, ()):
            s2 = unify(atom, fact, dict(sub))
            if s2 is not None:
                yield from walk(i + 1, s2, premises + (fact,))

    yield from walk(0, {}, ())


def naive_saturate(base: FactSet, rules: RuleSet) -> FactSet:
    """Least fixpoint by naive evaluation: every round re-matches every rule
    of the stratum against all facts known at the round's start."""
    known = set(base.facts)
    steps: list[TraceStep] = []
    current = frozenset(known)
    current_index = _index(current)
    domain = _active_domain(base, rules)

    for stratum_rules in rules.rules_by_stratum():
        while True:
            fresh: list[TraceStep] = []
            for rule in stratum_rules:
                for sub, premises in _match_body(rule, current, current_index, domain):
                    head = apply(sub, rule.head)
                    if head not in known:
                        known.add(head)
                        fresh.append(TraceStep(head, rule.name, premises))
            if not fresh:
                break
            steps.extend(fresh)
            current = frozenset(known)
            current_index = _index(current)

    return FactSet(frozenset(known), trace=ProofTrace(tuple(steps)))


# ---------------------------------------------------------------------------
# Exhaustive grounding
# ---------------------------------------------------------------------------

def brute_force_models(base: FactSet, rules: RuleSet,
                       max_atoms: int = 10_000) -> FactSet:
    """Stratified semantics by exhaustive grounding."""
    domain = _active_domain(base, rules)
    n = len(domain)
    total = sum(n ** (d.arity) for d in rules.declarations)
    if total > max_atoms:
        raise OracleTooLarge(f"{total} ground atoms exceed the {max_atoms} bound")

    facts = set(base.facts)
    for stratum_rules in rules.rules_by_stratum():
        while True:
            added = False
            for rule in stratum_rules:
                rvars = _rule_vars(rule)
                for combo in product(domain, repeat=len(rvars)):
                    sub = dict(zip(rvars, combo))
                    ok = True
                    for lit in rule.body:
                        if lit.pred == "=":
                            a, b = (apply(sub, t) for t in lit.args)
                            if (a == b) == lit.negated:
                                ok = False
                                break
                        elif lit.negated:
                            if apply(sub, lit.atom) in facts:
                                ok = False
                                break
                        elif apply(sub, lit) not in facts:
                            ok = False
                            break
                    if ok:
                        head = apply(sub, rule.head)
                        if head not in facts:
                            facts.add(head)
                            added = True
            if not added:
                break
    return FactSet(frozenset(facts))


def brute_force_answer(model: FactSet, q: Query) -> Answer:
    """Answer ``q`` over a saturated ``model`` by grounding over the
    constants of the model and the query.  Each variable of a positive
    conjunct takes every constant; a negated conjunct holds when no
    grounding of the variables it leaves open is a fact; an equality
    compares its terms as they stand after grounding, so a variable that no
    positive conjunct binds equals only itself."""
    named = {a for c in q.conjuncts for a in c.args if isinstance(a, Const)}
    domain = sorted(set(model.constants) | named, key=lambda c: c.name)
    positive = [c for c in q.conjuncts if not c.negated and c.pred != "="]
    bound = [v for v in q.variables() if any(v in c.args for c in positive)]

    def holds(c: Literal, sub: Substitution) -> bool:
        g = apply(sub, c)
        if c.pred == "=":
            return (g.args[0] == g.args[1]) != c.negated
        if not c.negated:
            return g in model.facts
        open_vars = sorted({a for a in g.args if isinstance(a, Var)}, key=lambda v: v.name)
        return not any(apply(dict(zip(open_vars, combo)), g.atom) in model.facts
                       for combo in product(domain, repeat=len(open_vars)))

    bindings = [sub for sub in (dict(zip(bound, combo))
                                for combo in product(domain, repeat=len(bound)))
                if all(holds(c, sub) for c in q.conjuncts)]
    bindings.sort(key=lambda sub: [sub[v].name for v in bound])
    return Answer(bool(bindings), tuple(bindings))


# ---------------------------------------------------------------------------
# Resolution refutation
# ---------------------------------------------------------------------------

def _propositional_refute(clauses: list[frozenset], goal: Literal,
                          max_clauses: int = 50_000) -> bool:
    """Ground resolution with the negated goal as set of support."""
    neg_goal = frozenset([goal.negate()])
    usable = [c for c in clauses]
    sos = [neg_goal]
    seen = set(map(frozenset, usable)) | {neg_goal}
    while sos:
        given = sos.pop(0)
        if not given:
            return True
        for other in usable + [given]:
            for lit in given:
                if lit.negate() in other:
                    resolvent = (given - {lit}) | (other - {lit.negate()})
                    if any(l.negate() in resolvent for l in resolvent):
                        continue
                    fr = frozenset(resolvent)
                    if fr in seen:
                        continue
                    if not fr:
                        return True
                    seen.add(fr)
                    sos.append(fr)
                    if len(seen) > max_clauses:
                        raise OracleTooLarge("resolution clause budget exhausted")
        usable.append(given)
    return False


def horn_clause(rule: RuleDecl) -> frozenset | None:
    """The rule's clause: its head and the negation of each body literal,
    without duplicates; None when the clause is a tautology."""
    lits = frozenset([rule.head, *(b.negate() for b in rule.body)])
    return None if any(l.negate() in lits for l in lits) else lits


def _ground_rule_clauses(rules: RuleSet, stratum_rules: list[RuleDecl],
                         domain: tuple[Const, ...]) -> list[frozenset]:
    grounded: list[frozenset] = []
    for rule in stratum_rules:
        clause = horn_clause(rule)
        if clause is None:
            continue
        cvars = sorted({v for l in clause for a in l.args
                        for v in ([a] if isinstance(a, Var) else [])},
                       key=lambda v: v.name)
        for combo in product(domain, repeat=len(cvars)):
            sub = dict(zip(cvars, combo))
            lits = set()
            tautology = False
            for lit in clause:
                g = apply(sub, lit)
                if g.negate() in lits:
                    tautology = True
                    break
                lits.add(g)
            if not tautology:
                grounded.append(frozenset(lits))
    return grounded


def resolve_by_refutation(base: FactSet, rules: RuleSet, q: Query) -> Answer:
    """Answer a ground query by refutation over the clausal form, stratum by
    stratum, without consulting the forward-chained fixpoint."""
    if not q.is_ground():
        raise NonGroundQuery("resolution mode requires a ground query")

    domain = _active_domain(base, rules)

    # Only predicates the query can reach through rule bodies matter.
    needed = {c.pred for c in q.conjuncts if c.pred != "="}
    changed = True
    while changed:
        changed = False
        for r in rules.rules:
            if r.head.pred in needed:
                for b in r.body:
                    if b.pred != "=" and b.pred not in needed:
                        needed.add(b.pred)
                        changed = True

    # Evaluate strata bottom-up.  Literals already decided below (or fixed by
    # the base) simplify out of each stratum's ground clauses, leaving a Horn
    # set; every remaining atom is then settled by refutation.
    strata_preds: dict[int, list] = {}
    for d in rules.declarations:
        if d.name in needed:
            strata_preds.setdefault(rules.strata.get(d.name, 0), []).append(d)

    proven: set[Literal] = set(base.facts)
    rule_groups: dict[int, list[RuleDecl]] = {}
    for r in rules.rules:
        if r.head.pred in needed:
            rule_groups.setdefault(rules.strata.get(r.head.pred, 0), []).append(r)

    for level in range(rules.max_stratum() + 1):
        clauses: list[frozenset] = []
        for raw in _ground_rule_clauses(rules, rule_groups.get(level, []), domain):
            satisfied = False
            open_lits = set()
            for l in raw:
                atom = l.atom
                decided = rules.strata.get(l.pred, 0) < level or atom in base.facts
                if decided:
                    if (atom in proven) != l.negated:
                        satisfied = True
                        break
                else:
                    open_lits.add(l)
            if satisfied:
                continue
            if not open_lits:
                raise RuntimeError("ground rules contradict the base facts")
            clauses.append(frozenset(open_lits))
        for fact in base.sorted():
            if rules.strata.get(fact.pred, 0) == level:
                clauses.append(frozenset([fact]))

        for d in sorted(strata_preds.get(level, []), key=lambda d: d.name):
            for combo in product(domain, repeat=d.arity):
                atom = Literal(d.name, combo)
                if atom not in proven and _propositional_refute(clauses, atom):
                    proven.add(atom)

    truth = True
    for c in q.conjuncts:
        if c.pred == "=":
            a, b = c.args
            holds = (a == b)
        else:
            holds = c.atom in proven
        if holds == c.negated:
            truth = False
            break
    return Answer(truth, ({},) if truth else ())


# ---------------------------------------------------------------------------
# Answer traces and context facts by whole-set scans
# ---------------------------------------------------------------------------

def fact_order(f: Literal):
    return (f.pred, tuple(str(a) for a in f.args))


def sort_facts(fs: FactSet) -> list[Literal]:
    """Stands in for ``FactSet.sorted``: sorts every fact on every call."""
    return sorted(fs.facts, key=fact_order)


def scan_answer_trace(q: Query, bindings, sat: FactSet) -> ProofTrace:
    """The saturation trace restricted to the steps supporting the answer,
    through a derived -> step map built over the whole trace."""
    if sat.trace is None or not bindings:
        return ProofTrace()
    by_fact = {s.derived: s for s in sat.trace.steps}
    needed: set[Literal] = set()

    def pull(fact: Literal):
        if fact in needed:
            return
        needed.add(fact)
        step = by_fact.get(fact)
        if step:
            for p in step.premises:
                pull(p)

    for sub in bindings:
        for c in q.conjuncts:
            if not c.negated and c.pred != "=":
                pull(apply(sub, c))
    return ProofTrace(tuple(s for s in sat.trace.steps if s.derived in needed))


def scan_support_facts(q: Query, a: Answer, base: FactSet) -> list[Literal]:
    """The base facts a C2 payload lists, by scanning every base fact for a
    refuted query."""
    support: set[Literal] = set()
    if a.truth:
        for step in a.trace.steps:
            for p in step.premises:
                if p in base:
                    support.add(p)
        for sub in a.bindings:
            for c in q.conjuncts:
                if not c.negated and c.pred != "=":
                    ground = apply(sub, c)
                    if ground in base:
                        support.add(ground)
    else:
        named = {t for c in q.conjuncts for t in c.args if isinstance(t, Const)}
        for f in sort_facts(base):
            if named and any(arg in named for arg in f.args):
                support.add(f)
    return sorted(support, key=fact_order)


# ---------------------------------------------------------------------------
# Per-window tracking, points and distance trends
# ---------------------------------------------------------------------------

def link_inferred_per_window(w: SceneWindow, cfg: TrackerConfig = TrackerConfig(),
                             visits: list | None = None) -> list[Trajectory]:
    """Inferred tracking of one window with nothing reused from another.

    When ``visits`` is a list, each frame-pair visit appends ``(prev, curr,
    live, ghost)``: the two frames, the ids of the live tracks'
    observations in row order, and whether any of them is a ghost."""
    live = [_LiveTrack(0, obs) for obs in w.frames[0].objects]
    live_boxes = box_arrays(w.frames[0].objects)
    done: list[_LiveTrack] = []

    for pos in range(1, w.n):
        frame = w.frames[pos]
        objects = frame.objects
        if visits is not None:
            visits.append((w.frames[pos - 1], frame, tuple(id(t.repr_obs) for t in live),
                           any(t.misses for t in live)))
        result = match_frames(_weights(live_boxes, box_arrays(objects), cfg.alpha), cfg.w_min)
        for i, j, _ in result.assignments:
            live[i].record(pos, objects[j])
        survivors = []
        for i in result.unmatched_left:
            t = live[i]
            if t.misses + 1 > cfg.max_gap or pos == w.n - 1:
                done.append(t)
            else:
                t.ghost()
                survivors.append(t)
        live = [live[i] for i, _, _ in result.assignments] + survivors
        for j in result.unmatched_right:
            live.append(_LiveTrack(pos, objects[j]))
        pool = box_arrays(objects + tuple(t.repr_obs for t in survivors))
        take = ([j for _, j, _ in result.assignments]
                + list(range(len(objects), len(objects) + len(survivors)))
                + list(result.unmatched_right))
        live_boxes = BoxArrays(pool.boxes[..., take], pool.categories[take])
    done.extend(live)

    tracks = [
        Trajectory("", t.category, t.observations,
                   vote_per_observation(t.observations))
        for t in done
    ]
    return _assign_ids(tracks)


def track_points_per_observation(w: SceneWindow, tracks: list[Trajectory]):
    """Each track's BEV points by window position, in its own frame and in
    the window's, one ``bev_of`` and one ``Transform2.transform`` per
    observation."""
    own = [{pos: bev_of(obs, w.intrinsics) for pos, obs in t.observations.items()}
           for t in tracks]
    cums = w.cumulative()
    return own, [{pos: cums[pos].transform(p) for pos, p in pts.items()} for pts in own]


def dense_positions(keyed: dict[int, tuple[float, float]]) -> list[tuple[float, float]]:
    """The points from the first key to the last, each interior gap filled
    by linear interpolation between the keys around it."""
    keys = sorted(keyed)
    dense = []
    for p in range(keys[0], keys[-1] + 1):
        if p in keyed:
            dense.append(keyed[p])
        else:
            lo = max(k for k in keys if k < p)
            hi = min(k for k in keys if k > p)
            f = (p - lo) / (hi - lo)
            a, b = keyed[lo], keyed[hi]
            dense.append((a[0] + f * (b[0] - a[0]), a[1] + f * (b[1] - a[1])))
    return dense


def track_kinematics_per_observation(w: SceneWindow,
                                     tracks: list[Trajectory]) -> list[Kinematics | None]:
    """``kinematics`` of each track's dense window points; None for a track
    seen in one frame only."""
    _, window = track_points_per_observation(w, tracks)
    return [kinematics(dense_positions(keyed), w.intrinsics) if len(keyed) >= 2 else None
            for keyed in window]


def track_facts_per_observation(w: SceneWindow, tracks: list[Trajectory],
                                cfg: CompilerConfig) -> list[tuple[Literal, dict | None]]:
    """The one-argument facts ``compile_window`` emits for each track, with
    their evidence, in emission order."""
    width = cfg.image_width if cfg.image_width is not None else 2.0 * w.intrinsics.cx
    out = []

    def emit(pred, name, **evidence):
        out.append((Literal(pred, (Const(name),)), evidence or None))

    for t, kin in zip(tracks, track_kinematics_per_observation(w, tracks)):
        name = t.instance_id
        emit(t.category, name)
        flags = presence(t, w.n)
        if flags.appears:
            emit("Appears", name, first_frame=flags.first_frame)
        if flags.disappears:
            emit("Disappears", name, last_frame=flags.last_frame)
        if kin is not None:
            if kin.displacement_total > cfg.eps_move:
                emit("Moves", name, displacement_m=kin.displacement_total)
            delta = kin.velocity[-1] - kin.velocity[0]
            if delta > cfg.eps_speed:
                emit("SpeedUp", name, velocity_delta=delta)
            elif -delta > cfg.eps_speed:
                emit("SpeedDown", name, velocity_delta=delta)
        observed = [obs for _, obs in t.frames_sorted()]
        mean_x = float(np.mean([o.centroid_px[0] for o in observed]))
        mean_depth = float(np.mean([o.depth_m for o in observed]))
        if mean_x < width * cfg.left_frac:
            emit("AtLeft", name, mean_centroid_x=mean_x)
        elif mean_x > width * cfg.right_frac:
            emit("AtRight", name, mean_centroid_x=mean_x)
        else:
            emit("AtCenter", name, mean_centroid_x=mean_x)
        if mean_depth < cfg.close_depth:
            emit("CloseToCamera", name, mean_depth_m=mean_depth)
    return out


def vote_per_observation(observations: dict) -> dict:
    """Each attribute's most frequent value over ``observations`` (keyed by
    position), one vote per observation in position order, the one seen
    first winning a tie; keys in the order first seen."""
    votes: dict[str, dict] = {}
    for _, obs in sorted(observations.items()):
        for key, value in (obs.attributes or {}).items():
            counts = votes.setdefault(key, {})
            counts[value] = counts.get(value, 0) + 1
    return {key: max(counts, key=counts.get) for key, counts in votes.items()}


def cut_tracks(tracks: list[Trajectory], start: int, n: int) -> list[Trajectory]:
    """``tracks`` restricted to positions ``start..start+n-1`` and rebased
    to 0, attributes voted over the observations kept; tracks with none
    left are dropped, the rest sorted by id."""
    out = []
    for t in tracks:
        observations = {pos - start: obs for pos, obs in sorted(t.observations.items())
                        if start <= pos < start + n}
        if observations:
            out.append(Trajectory(t.instance_id, t.category, observations,
                                  vote_per_observation(observations)))
    return sorted(out, key=lambda t: t.instance_id)


def distance_trends_per_window(bev: list[dict], n: int):
    """The distance series of every track pair over the frames where both
    are observed, each distance in that frame's own coordinates.

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


# ---------------------------------------------------------------------------
# Rule and query text through general formula trees
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class And:
    parts: tuple["Formula", ...]


@dataclass(frozen=True)
class Or:
    parts: tuple["Formula", ...]


@dataclass(frozen=True)
class Not:
    part: "Formula"


@dataclass(frozen=True)
class Implies:
    left: "Formula"
    right: "Formula"


Formula = Literal | And | Or | Not | Implies

FORALL = "forall"
EXISTS = "exists"


@dataclass(frozen=True)
class Statement:
    """A quantified formula.  ``quantifiers`` is an ordered prefix of
    (kind, variable) pairs with kind in {"forall", "exists"}."""

    quantifiers: tuple[tuple[str, Var], ...]
    body: Formula


class _FormulaParser:
    """Recursive descent over the token list.

    Precedence, loosest first: ``->`` (right associative), ``|``, ``&``,
    unary ``!``.
    """

    def __init__(self, text: str):
        self.text = text
        self.tokens = _tokenize(text)
        self.i = 0

    def peek(self) -> _Token:
        return self.tokens[self.i]

    def next(self) -> _Token:
        t = self.tokens[self.i]
        self.i += 1
        return t

    def expect(self, text: str) -> _Token:
        t = self.next()
        if t.text != text:
            raise ParseError(t.pos, f"expected {text!r}, found {t.text or 'end of input'!r}")
        return t

    def parse_statement(self) -> Statement:
        quantifiers: list[tuple[str, Var]] = []
        while self.peek().kind == "name" and self.peek().text in (FORALL, EXISTS):
            kind = self.next().text
            while True:
                t = self.next()
                if t.kind == "qvar":
                    quantifiers.append((kind, Var(t.text[1:])))
                elif t.kind == "name" and is_var_name(t.text):
                    quantifiers.append((kind, Var(t.text)))
                else:
                    raise ParseError(t.pos, f"expected a variable, found {t.text!r}")
                if self.peek().text == ",":
                    self.next()
                    continue
                break
            self.expect(":")
        body = self.parse_expr()
        end = self.next()
        if end.kind != "end":
            raise ParseError(end.pos, f"unexpected trailing input {end.text!r}")
        return Statement(tuple(quantifiers), body)

    def parse_expr(self) -> Formula:
        left = self.parse_or()
        if self.peek().kind == "arrow":
            self.next()
            right = self.parse_expr()
            return Implies(left, right)
        return left

    def parse_or(self) -> Formula:
        parts = [self.parse_and()]
        while self.peek().text == "|":
            self.next()
            parts.append(self.parse_and())
        return parts[0] if len(parts) == 1 else Or(tuple(parts))

    def parse_and(self) -> Formula:
        parts = [self.parse_unary()]
        while self.peek().text == "&":
            self.next()
            parts.append(self.parse_unary())
        return parts[0] if len(parts) == 1 else And(tuple(parts))

    def parse_unary(self) -> Formula:
        t = self.peek()
        if t.text == "!":
            self.next()
            inner = self.parse_unary()
            if isinstance(inner, Literal):
                return inner.negate()
            return Not(inner)
        if t.text == "(":
            self.next()
            inner = self.parse_expr()
            self.expect(")")
            # Parenthesized atom may still be the left side of an equality.
            if isinstance(inner, Literal) and self.peek().text == "=":
                raise ParseError(self.peek().pos, "equality must be written inside the parentheses")
            return inner
        return self.parse_atom()

    def parse_atom(self) -> Formula:
        if self.peek().kind in ("name", "qvar") and self._equality_follows(self.i + 1):
            left = self.parse_term()
            negated = self.next().text == "!"
            if negated:
                self.expect("=")
            return Literal("=", (left, self.parse_term()), negated)
        t = self.next()
        if t.kind != "name":
            raise ParseError(t.pos, f"expected a predicate, found {t.text or 'end of input'!r}")
        name = t.text
        self.expect("(")
        args = [self.parse_term()]
        while self.peek().text == ",":
            self.next()
            args.append(self.parse_term())
        self.expect(")")
        if self.peek().text == "=":
            self.next()
            value = self.parse_term()
            # Function equality normalizes to the function's relation form.
            return Literal(name + FUNC_REL_SUFFIX, tuple(args) + (value,))
        return Literal(name, tuple(args))

    def _equality_follows(self, i: int) -> bool:
        """Whether the tokens from ``i`` on start with ``=`` or ``!=``."""
        t = self.tokens[i]
        return t.text == "=" or (t.text == "!" and self.tokens[i + 1].text == "=")

    def parse_term(self) -> Term:
        t = self.next()
        if t.kind == "qvar":
            return Var(t.text[1:])
        if t.kind != "name":
            raise ParseError(t.pos, f"expected a term, found {t.text or 'end of input'!r}")
        if self.peek().text == "(":
            raise ParseError(t.pos, f"arguments are constants or variables; write the "
                                    f"function {t.text} as {t.text}(...) = value and "
                                    f"declare it under functions:")
        if is_var_name(t.text):
            return Var(t.text)
        return Const(t.text)


def flatten_conjunction(f: Formula, what: str) -> list[Literal]:
    """The literals of a conjunction of possibly negated literals; anything
    else is a ParseError saying ``what`` must be such a conjunction."""
    if isinstance(f, Literal):
        return [f]
    if isinstance(f, And):
        return [lit for p in f.parts for lit in flatten_conjunction(p, what)]
    if isinstance(f, Not) and isinstance(f.part, Literal):
        return [f.part.negate()]
    raise ParseError(0, f"{what} must be a conjunction of literals")


def _rule_shape(name: str, st: Statement) -> RuleDecl:
    for kind, _ in st.quantifiers:
        if kind != FORALL:
            raise ParseError(0, f"rule {name!r}: only universal quantifiers are allowed")
    body_f = st.body
    if not isinstance(body_f, Implies):
        raise ParseError(0, f"rule {name!r}: expected an implication")
    head = body_f.right
    if not isinstance(head, Literal) or head.negated:
        raise ParseError(0, f"rule {name!r}: head must be a single positive literal")

    body = tuple(flatten_conjunction(body_f.left, f"rule {name!r}: body"))
    return RuleDecl(name, head, body)


def parse_rule_by_formula(name: str, text: str) -> RuleDecl:
    """Rule text as a quantified formula tree, then checked for Horn shape."""
    return _rule_shape(name, _FormulaParser(text).parse_statement())


def parse_query_by_formula(text: str) -> tuple[Literal, ...]:
    """Query text as a formula tree, then flattened to its conjuncts."""
    st = _FormulaParser(text).parse_statement()
    if st.quantifiers:
        raise ParseError(0, "queries are implicitly existential; drop the quantifier")
    return tuple(flatten_conjunction(st.body, "a query"))


# ---------------------------------------------------------------------------
# Origin transforms, one frame pair at a time
# ---------------------------------------------------------------------------

def estimate_origin_per_pair(static_prev, static_curr) -> Transform2:
    """Least-squares rigid transform taking current-frame anchor positions
    onto the previous frame's, from this pair's arrays alone."""
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
