"""Metamorphic relations: transform an input and predict the output, with
no gold.

Shuffling the objects within each frame changes no observation, only the
order a frame lists them in, so the tracks (ids, categories, attributes and
observations by position), the atomic facts, the saturated sets and the C2
verdicts must stay as they are.  Inferred linking pads frames into batched
weight kernels and codes categories by first appearance, so this relation
guards the padded slots and the codes against order bugs.
"""

import random

import pytest

from scenelogic.evaluation import process_sequence
from scenelogic.inference import answer_query
from scenelogic.questions import parse_fol_query, parse_question
from scenelogic.ragcontext import WITH_INFERENCE, build_context, template_table
from scenelogic.scenarios import KINDS, ScenarioSpec, generate_scenario
from scenelogic.scene import sequence_from_dict, sequence_to_dict

OPEN_QUERIES = ("Stopped(x)", "Walk(x)", "Stand(x)", "Accelerate(x)", "ConstantSpeed(x)",
                "IncreasePace(x)", "FixedPace(x)", "GettingCloser(x, y)", "Collide(x, y)")


def _shuffled(seq, rng: random.Random):
    doc = sequence_to_dict(seq)
    for f in doc["frames"]:
        rng.shuffle(f["objects"])
    return sequence_from_dict(doc)


def _outputs(seq, questions, rules, tbl, mode: str, n: int):
    """Per window: tracks, atomic facts, saturated set and each question's
    answer and C2 verdict."""
    out = {}
    for wid, (wf, sat) in process_sequence(seq, rules, mode, n=n).items():
        verdicts = []
        for text, fol in questions:
            q = parse_fol_query(text, rules) if fol else parse_question(text, rules)
            ans = answer_query(sat, rules, q)
            payload = build_context(q, ans, wf.facts, tbl, rules, WITH_INFERENCE,
                                    question_text=text)
            verdict = payload.retrieved.split("VERDICT\n", 1)[1].split("\n", 1)[0]
            verdicts.append((text, ans.truth, ans.bindings, verdict))
        tracks = [(t.instance_id, t.category, list(t.attributes.items()),
                   sorted(t.observations.items())) for t in wf.tracks]
        out[wid] = (tracks, wf.facts.facts, sat.facts, verdicts)
    return out


@pytest.mark.parametrize("n", [5, 10])
@pytest.mark.parametrize("mode", ["oracle", "inferred"])
def test_shuffling_objects_within_frames_changes_nothing(rules, mode, n):
    """On the scenes of ``gen --kind all --count 2``."""
    tbl = template_table(rules)
    rng = random.Random(n)
    for kind in KINDS:
        for seed in range(2):
            sc = generate_scenario(ScenarioSpec(kind, seed))
            questions = ([(q.question, False) for q in sc.qa]
                         + [(text, True) for text in OPEN_QUERIES])
            want = _outputs(sc.sequence, questions, rules, tbl, mode, n)
            got = _outputs(_shuffled(sc.sequence, rng), questions, rules, tbl, mode, n)
            assert got == want, (kind, seed)
