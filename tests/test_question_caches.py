"""What the question path keeps between calls, and that keeping it changes
nothing.

A rule set keeps each parsed question and each checked, compiled query; a
fact set keeps each sentence it rendered, per template table; a trace step
keeps its text.  Answers, answer text and C2/C3 payloads from one reused
rule set and table must equal those from a fresh rule set, table and
saturated set per question.
"""

from importlib import resources

import pytest

from scenelogic.evaluation import process_sequence
from scenelogic.fol import Const, Literal, Var
from scenelogic.inference import FactSet, answer_query, saturate
from scenelogic.logicpad import ParseError, UnknownPredicate, default_ruleset, parse_rule_file
from scenelogic.questions import (
    NoPatternMatch,
    UnknownVocabulary,
    answer_to_text,
    parse_fol_query,
    parse_nl_question,
    parse_question,
)
from scenelogic.ragcontext import (
    FACTS_ONLY,
    WITH_INFERENCE,
    TemplateTable,
    build_context,
    export_templates,
    template_table,
)
from scenelogic.scenarios import KINDS, ScenarioSpec, generate_scenario

from test_answer_indexes import OPEN_QUERIES

x = Var("x")
DEFAULT = resources.files("scenelogic").joinpath("rules/default.yaml").read_text("utf-8")


def lit(pred, *names):
    return Literal(pred, tuple(Const(n) for n in names))


def test_a_text_parses_under_each_rule_sets_own_vocabulary(rules):
    assert "    white: White\n" in DEFAULT
    other = parse_rule_file(DEFAULT.replace("    white: White\n",
                                            "    white: Silver\n    crimson: Red\n"))
    text = "Is the white car moving?"
    assert Literal("ColOfRel", (x, Const("White"))) in parse_nl_question(text, rules).conjuncts
    assert Literal("ColOfRel", (x, Const("Silver"))) in parse_nl_question(text, other).conjuncts
    assert Literal("ColOfRel", (x, Const("White"))) in parse_question(text, rules).conjuncts

    crimson = "Is the crimson car moving?"
    assert Literal("ColOfRel", (x, Const("Red"))) in parse_nl_question(crimson, other).conjuncts
    with pytest.raises(UnknownVocabulary):
        parse_nl_question(crimson, rules)


@pytest.mark.parametrize("parse,text,error", [
    (parse_nl_question, "What color is the sky?", NoPatternMatch),
    (parse_nl_question, "Is the turquoise car moving?", UnknownVocabulary),
    (parse_question, "Is the walking car?", NoPatternMatch),
    (parse_fol_query, "Vehicle(x) &", ParseError),
    (parse_fol_query, "Flying(x)", UnknownPredicate),
    (parse_fol_query, "Vehicle(x, y)", UnknownPredicate),
], ids=["no-pattern", "unknown-word", "grammar-path", "fol-syntax", "fol-undeclared",
        "fol-arity"])
def test_a_failing_text_raises_on_every_call(rules, parse, text, error):
    for _ in range(3):
        with pytest.raises(error):
            parse(text, rules)


def test_the_translator_is_asked_on_every_call(rules):
    calls = []

    def translator(question: str) -> str:
        calls.append(question)
        return "Vehicle(x) & !Moves(x)"

    first = parse_question("Which vehicles are idle?", rules, translator)
    assert parse_question("Which vehicles are idle?", rules, translator) == first
    assert calls == ["Which vehicles are idle?"] * 2


def test_a_planned_query_is_checked_again_under_another_rule_set(rules):
    lacking = parse_rule_file("""
predicates:
  - {name: Pedestrian, arity: 1, source: atomic}
  - {name: Moves, arity: 2, source: atomic}
""")
    base = FactSet.of([lit("Pedestrian", "p01"), lit("Moves", "p01")])
    sat = saturate(base, rules)
    for text in ("Walk(x)", "Moves(x)"):
        q = parse_fol_query(text, rules)
        assert answer_query(sat, rules, q).truth
        with pytest.raises(UnknownPredicate):
            answer_query(sat, lacking, q)
        with pytest.raises(UnknownPredicate):
            answer_query(sat, lacking, q)


def test_template_tables_never_share_a_fact_sets_sentences(rules):
    base = FactSet.of([lit("Pedestrian", "p01"), lit("Moves", "p01")])
    sat = saturate(base, rules)
    plain = template_table(rules)
    loud = TemplateTable({**plain.templates, "Pedestrian": "{0} IS A PEDESTRIAN."})
    same = template_table(rules)
    q = parse_fol_query("Walk(x)", rules)
    a = answer_query(sat, rules, q)
    for tbl, sentence in ((plain, "p01 is a pedestrian."), (loud, "p01 IS A PEDESTRIAN."),
                          (same, "p01 is a pedestrian."), (plain, "p01 is a pedestrian.")):
        assert sentence in export_templates(base, tbl)
        assert sentence in build_context(q, a, base, tbl, rules).retrieved.splitlines()
        assert sentence in build_context(q, a, base, tbl, rules, FACTS_ONLY).retrieved


def _results(q, sat, base, rules, tbl) -> tuple:
    a = answer_query(sat, rules, q)
    return (a, answer_to_text(a, q),
            build_context(q, a, base, tbl, rules, WITH_INFERENCE).to_json(),
            build_context(q, a, base, tbl, rules, FACTS_ONLY).to_json())


@pytest.mark.parametrize("track_mode", ["oracle", "inferred"])
def test_reused_rules_and_table_answer_as_fresh_ones(track_mode):
    warm = default_ruleset()
    warm_tbl = template_table(warm)
    for kind in KINDS:
        for seed in (0, 1):
            sc = generate_scenario(ScenarioSpec(kind, seed))
            per = process_sequence(sc.sequence, warm, track_mode)
            asked = [(item.window_id, item.question, False) for item in sc.qa]
            asked += [(wid, text, True) for wid in per for text in OPEN_QUERIES]
            for wid, text, fol in asked:
                wf, sat = per[wid]
                parse = parse_fol_query if fol else parse_question
                # The second pass reads every cache the first one filled.
                warm_results = [_results(parse(text, warm), sat, wf.facts, warm, warm_tbl)
                                for _ in range(2)]
                cold = default_ruleset()
                base = FactSet.of(wf.facts.facts)
                cold_results = _results(parse(text, cold), saturate(base, cold), base,
                                        cold, template_table(cold))
                assert warm_results == [cold_results] * 2, (kind, seed, wid, text)
