"""Template-sentence export and context payload assembly."""

import re

import pytest

from scenelogic.fol import Const, Literal, Var
from scenelogic.inference import FactSet, Query, resolve
from scenelogic.ragcontext import (
    FACTS_ONLY,
    WITH_INFERENCE,
    MissingTemplate,
    TemplateTable,
    build_context,
    export_templates,
    template_table,
)

x = Var("x")


def lit(pred, *names):
    return Literal(pred, tuple(Const(n) for n in names))


def test_default_template_table_is_complete(rules):
    tbl = template_table(rules)
    assert len(tbl.templates) == len(rules.declarations)


def test_one_sentence_per_fact_in_deterministic_order(rules):
    tbl = template_table(rules)
    facts = FactSet.of([lit("Vehicle", "vehicle01"), lit("Moves", "vehicle01")])
    assert export_templates(facts, tbl) == \
        ["vehicle01 is moving.", "vehicle01 is a vehicle."]


def test_empty_factset_exports_nothing(rules):
    assert export_templates(FactSet.of([]), template_table(rules)) == []


def test_export_is_a_bijection(rules):
    tbl = template_table(rules)
    facts = FactSet.of([
        lit("Vehicle", "v01"), lit("Moves", "v01"), lit("AtCenter", "v01"),
        lit("ColOfRel", "v01", "White"), lit("On", "v01", "road01"),
        lit("Road", "road01"),
    ])
    sentences = export_templates(facts, tbl)
    assert len(sentences) == len(facts)
    assert len(set(sentences)) == len(sentences)


def test_missing_template_is_an_error(rules):
    tbl = TemplateTable({"Vehicle": "{0} is a vehicle."})
    with pytest.raises(MissingTemplate):
        export_templates(FactSet.of([lit("Moves", "v01")]), tbl)


def test_template_validation_checks_slots(rules):
    # Each template's fields, as str.format reads them, must be the bare
    # slots {0}..{arity - 1}.
    for pred, tpl, message in [
        ("On", "{0} is on something.", " uses slots ['0'], arity is 2"),
        ("Pedestrian", "{0} is a pedestrian. {x}", " uses slots ['0', 'x'], arity is 1"),
        ("Pedestrian", "{} is a pedestrian.", " uses slots [''], arity is 1"),
        ("Pedestrian", "{0.real} is a pedestrian.", " uses slots ['0.real'], arity is 1"),
        ("Pedestrian", "{{0}} is a pedestrian.", " uses slots [], arity is 1"),
        ("Pedestrian", "{0} is a } pedestrian.", ": Single '}' encountered in format string"),
    ]:
        bad = {**template_table(rules).templates, pred: tpl}
        with pytest.raises(ValueError, match=f"^template for {pred}{re.escape(message)}$"):
            TemplateTable(bad).validate(rules)


def test_template_validation_rejects_unknown_predicates(rules):
    extra = dict(template_table(rules).templates)
    extra["Explodes"] = "{0} explodes."
    with pytest.raises(ValueError):
        TemplateTable(extra).validate(rules)


# ---------------------------------------------------------------------------
# Context payloads
# ---------------------------------------------------------------------------

def _fig3():
    return FactSet.of([
        lit("Vehicle", "vehicle01"),
        lit("TypeOfRel", "vehicle01", "Car"),
        lit("ColOfRel", "vehicle01", "White"),
        lit("AtCenter", "vehicle01"),
        lit("Pedestrian", "pedestrian01"),
        lit("Moves", "pedestrian01"),
    ])


def _paper_query():
    return Query((
        Literal("TypeOfRel", (x, Const("Car"))),
        Literal("ColOfRel", (x, Const("White"))),
        Literal("AtCenter", (x,)),
        Literal("ConstantSpeed", (x,)),
    ))


def test_facts_only_payload_is_the_full_export(rules):
    tbl = template_table(rules)
    base = _fig3()
    q = _paper_query()
    a = resolve(base, rules, q)
    payload = build_context(q, a, base, tbl, rules, FACTS_ONLY)
    body = payload.retrieved.splitlines()
    assert body[0] == "FACTS"
    assert body[1:] == export_templates(base, tbl)
    assert "VERDICT" not in payload.retrieved


def test_with_inference_payload_carries_verdict_and_support(rules):
    tbl = template_table(rules)
    base = _fig3()
    q = _paper_query()
    a = resolve(base, rules, q)
    assert a.truth
    payload = build_context(q, a, base, tbl, rules, WITH_INFERENCE)
    text = payload.retrieved
    assert "VERDICT\nYes: vehicle01 satisfies the query." in text
    assert "SUPPORT" in text
    assert "ConstantSpeed(vehicle01) <- constant_speed" in text
    # Support facts are only those the proof used.
    assert "pedestrian01 is moving." not in text
    assert "the type of vehicle01 is Car." in text


def test_with_inference_sentences_subset_of_facts_only(rules):
    tbl = template_table(rules)
    base = _fig3()
    q = _paper_query()
    a = resolve(base, rules, q)
    full = set(export_templates(base, tbl))
    payload = build_context(q, a, base, tbl, rules, WITH_INFERENCE)
    lines = payload.retrieved.splitlines()
    fact_lines = lines[1:lines.index("")]
    assert set(fact_lines) <= full


def test_false_answer_keeps_only_queried_object_facts(rules):
    tbl = template_table(rules)
    base = _fig3()
    q = Query((Literal("GettingCloser", (Const("vehicle01"), x)),))
    a = resolve(base, rules, q)
    assert not a.truth
    payload = build_context(q, a, base, tbl, rules, WITH_INFERENCE)
    text = payload.retrieved
    assert "VERDICT\nNo." in text
    assert "vehicle01 is a vehicle." in text
    assert "pedestrian01" not in text
    assert "SUPPORT" not in text


def test_payload_bytes_are_reproducible(rules):
    tbl = template_table(rules)
    base = _fig3()
    q = _paper_query()
    a = resolve(base, rules, q)
    p1 = build_context(q, a, base, tbl, rules, WITH_INFERENCE)
    p2 = build_context(q, a, base, tbl, rules, WITH_INFERENCE)
    assert p1.retrieved.encode() == p2.retrieved.encode()
    assert p1.to_json() == p2.to_json()


def test_payload_json_round_trips(rules):
    import json

    tbl = template_table(rules)
    base = _fig3()
    q = _paper_query()
    a = resolve(base, rules, q)
    payload = build_context(q, a, base, tbl, rules, FACTS_ONLY,
                            question_text="Does the white car move?")
    doc = json.loads(payload.to_json())
    assert doc["question"] == "Does the white car move?"
    assert doc["mode"] == FACTS_ONLY
