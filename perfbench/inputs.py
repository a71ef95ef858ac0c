"""Seeded workload inputs and the checks made apart from the pipeline.

Inputs come from the program's scenario generator, which also supplies the
gold answers and gold atomic facts; everything else a check compares against
is computed here.  See README.md for why each workload exists.
"""

from __future__ import annotations

import os
import random
from dataclasses import dataclass

from scenelogic.evaluation import process_sequence
from scenelogic.fol import Const, Literal
from scenelogic.scenarios import KINDS, ScenarioSpec, generate_scenario
from scenelogic.scene import save_annotation

# Static-camera kinds only: kinds with ego motion cannot make long sequences
# (the Sidewalk anchor's fixed bbox stops containing its centroid).
STREAM_KINDS = ("crossing", "approach", "collide", "appear", "disappear",
                "accelerate", "static")

# Per-workload sizes: scenarios per kind (suite, stream) or scenes (dense).
# Every workload has at least 40 sequences, so that each run has a tail.
COUNTS = {"suite": 10, "stream": 6, "dense": 40}
STREAM_FRAMES = (18, 22)  # n_frames drawn uniformly in this closed range
DENSE_OBJECTS = 60
WINDOW = 10

AGENT_CATEGORIES = ("Vehicle", "Pedestrian")

# The default rule file's nine derived rules, restated here as
# (head variables, positive body atoms, negated body atoms).  A variable no
# positive atom binds ranges over the window's agents (vehicles and
# pedestrians): the safe reading the rule file's Stopped rule is meant to have.
DERIVED_RULES = {
    "Stopped": (("x",), (), (("Moves", "x"),)),
    "Walk": (("x",), (("Pedestrian", "x"), ("Moves", "x")), ()),
    "Stand": (("x",), (("Pedestrian", "x"),), (("Moves", "x"),)),
    "Accelerate": (("x",), (("Vehicle", "x"), ("SpeedUp", "x")), ()),
    "ConstantSpeed": (("x",), (("Vehicle", "x"),), (("SpeedUp", "x"), ("SpeedDown", "x"))),
    "IncreasePace": (("x",), (("Pedestrian", "x"), ("SpeedUp", "x")), ()),
    "FixedPace": (("x",), (("Pedestrian", "x"),), (("SpeedUp", "x"), ("SpeedDown", "x"))),
    "GettingCloser": (("x", "y"), (("DistanceDecreases", "x", "y"),), ()),
    "Collide": (("x", "y"), (("DistanceDecreases", "x", "y"),
                             ("DistanceDecreasesToZero", "x", "y")), ()),
}
OPEN_QUERIES = tuple(f"{p}({', '.join(v)})" for p, (v, _, _) in DERIVED_RULES.items())
# The default Stopped rule is unsafe, so the program also binds colour and
# type constants and static objects; this query fails on every window.
KNOWN_FAULT_QUERY = "Stopped(x)"


@dataclass(frozen=True)
class Question:
    window_id: int
    text: str
    fol: bool
    gold: bool | None  # English questions carry the generator's gold answer


@dataclass(frozen=True)
class SequenceInput:
    path: str
    track_mode: str
    questions: tuple[Question, ...]
    gold_atomic: frozenset | None  # the generator's facts for window 0
    oracle_facts: dict | None  # window_id -> facts under oracle tracking


def _specs(workload: str, seed: int, count: int) -> list[ScenarioSpec]:
    rng = random.Random(seed)
    if workload == "suite":
        # As `scenelogic gen --kind all --count <count> --seed <base>`.
        base = 1000 * seed
        return [ScenarioSpec(k, base + j) for k in KINDS for j in range(count)]
    if workload == "stream":
        return [ScenarioSpec(k, rng.randrange(10**6), n_frames=rng.randint(*STREAM_FRAMES))
                for k in STREAM_KINDS for _ in range(count)]
    if workload == "dense":
        return [ScenarioSpec(KINDS[i % len(KINDS)], rng.randrange(10**6),
                             object_count=DENSE_OBJECTS)
                for i in range(count)]
    raise ValueError(f"unknown workload {workload!r}; choose one of {sorted(COUNTS)}")


def build_inputs(workload: str, seed: int, outdir: str, rules,
                 count: int | None = None) -> list[SequenceInput]:
    """Generate the workload's scenarios, write their annotation files under
    ``outdir`` and precompute what the checks compare against."""
    count = COUNTS[workload] if count is None else count
    os.makedirs(outdir, exist_ok=True)
    out = []
    for i, spec in enumerate(_specs(workload, seed, count)):
        sc = generate_scenario(spec)
        path = os.path.join(outdir, f"{i:03d}_{spec.kind}.json")
        save_annotation(sc.sequence, path)
        n_windows = len(sc.sequence.frames) - WINDOW + 1
        questions = []
        for wid in range(n_windows):
            if workload != "stream":
                # Generator gold covers window 0 of a ten-frame scene only.
                questions += [Question(wid, q.question, False, q.gold) for q in sc.qa]
            questions += [Question(wid, text, True, None) for text in OPEN_QUERIES]
        oracle = None
        if workload != "suite":
            oracle = {wid: wf.facts.facts for wid, (wf, _) in
                      process_sequence(sc.sequence, rules, "oracle", n=WINDOW).items()}
        out.append(SequenceInput(
            path=path,
            track_mode="oracle" if workload == "suite" else "inferred",
            questions=tuple(questions),
            gold_atomic=sc.gold_atomic if workload != "stream" else None,
            oracle_facts=oracle,
        ))
    return out


# ---------------------------------------------------------------------------
# Checks
# ---------------------------------------------------------------------------

def _rename(facts, names: dict) -> frozenset:
    return frozenset(
        Literal(f.pred, tuple(Const(names.get(str(a), str(a))) for a in f.args))
        for f in facts)


def check_window(inp: SequenceInput, window, tracks, facts) -> list[str]:
    """Problems with one window's tracks and compiled atomic facts."""
    problems = []
    if inp.gold_atomic is not None and window.window_id == 0 and facts != inp.gold_atomic:
        problems.append("atomic facts differ from the generator's gold facts")
    if inp.oracle_facts is None:
        return problems
    labels = {}
    for t in tracks:
        owners = {o.gt_instance for o in t.observations.values()}
        if len(owners) != 1:
            problems.append(f"track {t.instance_id} mixes instances {sorted(owners)}")
            return problems
        labels[t.instance_id] = owners.pop()
    truth = {o.gt_instance for f in window.frames for o in f.objects}
    if sorted(labels.values()) != sorted(truth):
        problems.append("tracks do not group observations one-to-one by gt_instance")
        return problems
    if _rename(facts, labels) != inp.oracle_facts[window.window_id]:
        problems.append("inferred facts differ from oracle facts after renaming")
    return problems


def expected_bindings(query: str, facts) -> set[tuple[str, ...]]:
    """Evaluate an open derived-predicate query's rule over atomic facts."""
    pred = query.split("(", 1)[0]
    head, positive, negative = DERIVED_RULES[pred]
    have = {(f.pred, *(str(a) for a in f.args)) for f in facts}
    agents = sorted({a for p, *args in have if p in AGENT_CATEGORIES for a in args})

    subs = [{}]
    for p, *vars_ in positive:
        subs = [{**s, **dict(zip(vars_, args))}
                for s in subs for q, *args in have
                if q == p and len(args) == len(vars_)
                and all(s.get(v, a) == a for v, a in zip(vars_, args))]
    for v in head:
        subs = [{**s, v: a} for s in subs for a in ([s[v]] if v in s else agents)]
    return {tuple(s[v] for v in head) for s in subs
            if not any((p, *(s[v] for v in vs)) in have for p, *vs in negative)}


def check_question(question: Question, truth: bool, bindings, retrieved: str,
                   facts) -> tuple[str, str] | None:
    """The problem with one answer as ``(kind, message)``, or None; ``kind``
    is "payload", "bindings" or "answer".  ``bindings`` are tuples of
    constant names in query-variable order; ``retrieved`` is the C2
    payload's retrieval block."""
    if not retrieved.startswith("FACTS\n") or "\nVERDICT\n" not in retrieved:
        return "payload", "payload lacks its FACTS and VERDICT sections"
    verdict = retrieved.split("\nVERDICT\n", 1)[1].split("\n", 1)[0]
    if verdict.startswith("Yes") != truth:
        return "payload", f"payload verdict {verdict!r} disagrees with the answer"
    if question.fol:
        want = expected_bindings(question.text, facts)
        if set(bindings) != want or truth != bool(want):
            extra = sorted(set(bindings) - want)
            missing = sorted(want - set(bindings))
            return "bindings", f"bindings: extra {extra}, missing {missing}"
    elif truth != question.gold:
        return "answer", f"answer {truth} != gold {question.gold}"
    return None


def is_known_fault(question: Question, kind: str, bindings, facts) -> bool:
    """The unsafe Stopped rule adds bindings but never loses one; any other
    problem with that query is a real failure."""
    return (question.text == KNOWN_FAULT_QUERY and kind == "bindings"
            and set(bindings) > expected_bindings(question.text, facts))
