"""The per-window answer and context indexes against whole-set scans.

A saturated fact set hands over the index its saturation kept, and caches a
derived-fact -> trace-step map and a constant -> base-facts index.  Answers,
answer traces, the support of a Yes and C2/C3 payloads must be the same as
when every question scans and sorts the whole trace and fact set
(``tests/oracles.py``).
"""

import random

import pytest

from scenelogic import ragcontext
from scenelogic.evaluation import process_sequence
from scenelogic.fol import Const, Literal
from scenelogic.inference import (
    Answer,
    FactSet,
    Query,
    _build_index,
    _merge_into,
    answer_query,
    saturate,
)
from scenelogic.questions import parse_fol_query, parse_question
from scenelogic.ragcontext import FACTS_ONLY, WITH_INFERENCE, build_context, template_table
from scenelogic.scenarios import KINDS, ScenarioSpec, generate_scenario

from oracles import scan_answer_trace, scan_support_facts, sort_facts
from test_saturation_differential import STREAM_KINDS, _chain, _closure_program

SEEDS = (5, 77)
OPEN_QUERIES = ("Stopped(x)", "Walk(x)", "Stand(x)", "Accelerate(x)", "ConstantSpeed(x)",
                "IncreasePace(x)", "FixedPace(x)", "GettingCloser(x, y)", "Collide(x, y)")


def _specs(workload: str, seed: int) -> list[ScenarioSpec]:
    """Smaller inputs made the way the benchmark's workloads make theirs."""
    rng = random.Random(seed)
    if workload == "suite":
        return [ScenarioSpec(k, 1000 * seed + j) for k in KINDS for j in range(2)]
    if workload == "stream":
        return [ScenarioSpec(k, rng.randrange(10**6), n_frames=rng.randint(18, 22))
                for k in STREAM_KINDS]
    return [ScenarioSpec(KINDS[i % len(KINDS)], rng.randrange(10**6), object_count=60)
            for i in range(3)]


def _questions(sc, sat: FactSet, workload: str) -> list[tuple[str, bool]]:
    """(text, is FOL): the benchmark's questions, plus ground and
    two-constant queries about the window's first agents."""
    out = [(q.question, False) for q in sc.qa] if workload != "stream" else []
    out += [(text, True) for text in OPEN_QUERIES]
    agents = sorted(str(f.args[0]) for f in sat.facts if f.pred in ("Vehicle", "Pedestrian"))
    for a, b in zip(agents[:3], agents[1:4]):
        out += [(f"Moves({a})", True), (f"Stopped({a})", True),
                (f"GettingCloser({a}, y)", True), (f"Collide({a}, {b})", True),
                (f"GettingCloser({b}, {a})", True)]
    return out


def _reference_payloads(q, ans, base, tbl, rules):
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(ragcontext, "_support_facts", scan_support_facts)
        mp.setattr(FactSet, "sorted", sort_facts)
        return (build_context(q, ans, base, tbl, rules, WITH_INFERENCE).to_json(),
                build_context(q, ans, base, tbl, rules, FACTS_ONLY).to_json())


@pytest.mark.parametrize("seed", SEEDS)
@pytest.mark.parametrize("workload", ["suite", "stream", "dense"])
def test_answers_and_payloads_match_whole_set_scans(rules, workload, seed):
    tbl = template_table(rules)
    track_mode = "oracle" if workload == "suite" else "inferred"
    n_questions = n_no = 0
    for spec in _specs(workload, seed):
        sc = generate_scenario(spec)
        asked = set()  # ids of the saturated sets an earlier window's questions read
        for wid, (wf, sat) in process_sequence(sc.sequence, rules, track_mode).items():
            # A window that shares an earlier window's saturated set finds
            # its index read; the first holder of a set gets it unread.
            if id(sat) not in asked:
                assert "_unmerged" in sat.__dict__  # the index is handed over, unread
                asked.add(id(sat))
            for text, fol in _questions(sc, sat, workload):
                q = parse_fol_query(text, rules) if fol else parse_question(text, rules)
                ans = answer_query(sat, rules, q)
                assert ans.trace == scan_answer_trace(q, ans.bindings, sat), (spec, wid, text)
                if ans.truth:
                    assert list(ans.support) == scan_support_facts(q, ans, wf.facts), \
                        (spec, wid, text)
                else:
                    assert ans.support == (), (spec, wid, text)
                payloads = (build_context(q, ans, wf.facts, tbl, rules, WITH_INFERENCE).to_json(),
                            build_context(q, ans, wf.facts, tbl, rules, FACTS_ONLY).to_json())
                ref = Answer(ans.truth, ans.bindings, scan_answer_trace(q, ans.bindings, sat))
                assert payloads == _reference_payloads(q, ref, wf.facts, tbl, rules), \
                    (spec, wid, text)
                n_questions += 1
                n_no += not ans.truth
            assert sat.index == _build_index(sat.facts), (spec, wid)
            assert sat.sorted() == sort_facts(sat)
    assert n_no and n_questions - n_no


def test_handed_over_index_equals_a_rebuilt_one(rules):
    sc = generate_scenario(ScenarioSpec("crossing", 5, object_count=20))
    for wf, sat in process_sequence(sc.sequence, rules, "inferred").values():
        unread = saturate(wf.facts, rules)
        assert "_unmerged" in unread.__dict__
        assert unread.index == _build_index(unread.facts)
        assert "_unmerged" not in unread.__dict__
        assert wf.facts.index == _build_index(wf.facts.facts)


def test_recursive_rounds_hand_over_an_exact_index():
    rs = _closure_program()
    for n in (1, 2, 5, 9):
        base = _chain(n)
        sat = saturate(base, rs)
        # Path facts merge between rounds; OneWay's last round never does.
        _, unmerged = sat.__dict__["_unmerged"]
        assert unmerged and {f.pred for f in unmerged} == {"OneWay"}
        assert sat.index == _build_index(sat.facts), n
        assert sat.sorted() == sort_facts(sat)
        assert base.index == _build_index(base.facts), n


def test_merge_inserts_into_copies_of_the_index_lists():
    rng = random.Random(18)
    names = [Const(f"n{i}") for i in range(12)]
    facts = list({Literal(rng.choice("PQ"), (rng.choice(names), rng.choice(names)))
                  for _ in range(150)})
    rng.shuffle(facts)
    old, new = facts[:90], facts[90:]
    index = _build_index(old)
    kept = {pred: {key: list(run) for key, run in by_first.items()}
            for pred, by_first in index.items()}
    copied = {pred: dict(by_first) for pred, by_first in index.items()}
    _merge_into(index, new)
    assert index == _build_index(facts)
    # The lists the index held before are untouched.
    assert copied == kept


def test_unsaturated_fact_set_builds_its_own_index():
    a, b = Const("a"), Const("b")
    facts = [Literal("Q", (b,)), Literal("P", (b, a)), Literal("P", (a, b)), Literal("R", ())]
    fs = FactSet.of(facts)
    assert "_unmerged" not in fs.__dict__
    assert fs.index == _build_index(fs.facts)
    assert fs.sorted() == sort_facts(fs) == list(fs)


def test_fact_naming_one_constant_twice_is_listed_once(rules):
    a, b = Const("vehicle01"), Const("pedestrian01")
    twice = Literal("DistanceDecreases", (a, a))
    base = FactSet.of([twice, Literal("Vehicle", (a,)), Literal("Pedestrian", (b,)),
                       Literal("DistanceDecreases", (a, b))])
    assert list(base.by_constant["vehicle01"].values()).count(twice) == 1
    q = Query((Literal("Collide", (a, b)),))
    no = Answer(False, ())
    assert not answer_query(saturate(base, rules), rules, q).truth
    support = ragcontext._support_facts(q, no, base)
    assert support.count(twice) == 1
    assert support == scan_support_facts(q, no, base)
