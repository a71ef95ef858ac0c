"""Question grammar, FOL query parsing, and answer formatting."""

import re

import pytest

from scenelogic.fol import Const, Literal, Var
from scenelogic.inference import Answer, FactSet, ProofTrace, Query, TraceStep, resolve
from scenelogic.logicpad import ParseError, UnknownPredicate
from scenelogic.questions import (
    NoPatternMatch,
    UnknownVocabulary,
    _normalize,
    answer_to_text,
    match_question,
    parse_fol_query,
    parse_nl_question,
    parse_question,
    print_query,
)

x, y = Var("x"), Var("y")


def lit(pred, *args, neg=False):
    terms = tuple(a if isinstance(a, Var) else Const(a) for a in args)
    return Literal(pred, terms, neg)


def test_paper_sentence_produces_exact_logic(rules):
    q = parse_nl_question("Does the white car at the center move at a constant speed?", rules)
    assert q.conjuncts == (
        lit("TypeOfRel", x, "Car"),
        lit("ColOfRel", x, "White"),
        lit("AtCenter", x),
        lit("ConstantSpeed", x),
    )
    assert print_query(q, rules) == \
        "(TypeOf(x) = Car) & (ColOf(x) = White) & AtCenter(x) & ConstantSpeed(x)"


def test_bare_category_question(rules):
    q = parse_nl_question("Is there a pedestrian?", rules)
    assert q.conjuncts == (lit("Pedestrian", x),)


def test_binary_distance_question(rules):
    q = parse_nl_question(
        "Is the black SUV getting closer to the pedestrian on the left?", rules)
    assert q.conjuncts == (
        lit("TypeOfRel", x, "SUV"),
        lit("ColOfRel", x, "Black"),
        lit("Pedestrian", y),
        lit("AtLeft", y),
        lit("GettingCloser", x, y),
    )


def test_surface_question(rules):
    q = parse_nl_question("Is the white car on the road?", rules)
    assert q.conjuncts[-1] == lit("On", x, y)
    assert lit("Road", y) in q.conjuncts


def test_descriptor_with_position_inside_on_question(rules):
    q = parse_nl_question("Is the blue pedestrian on the left on the road?", rules)
    assert lit("AtLeft", x) in q.conjuncts
    assert lit("Road", y) in q.conjuncts


def test_position_assertion_question(rules):
    q = parse_nl_question("Is the white car on the left?", rules)
    assert q.conjuncts[-1] == lit("AtLeft", x)


def test_category_labels(rules):
    cases = {
        "Is there a white car?": "U1",
        "Is the white car stopped?": "U2",
        "Is the white car slowing down?": "U3",
        "Did the white car disappear in this window?": "U4",
        "Is the white car close to the camera?": "B1",
        "Is the white car moving away from the red bus?": "B2",
    }
    for text, expected in cases.items():
        assert match_question(text, rules).category == expected, text


def test_unknown_color_is_reported(rules):
    with pytest.raises(UnknownVocabulary) as e:
        parse_nl_question("Is the turquoise car moving?", rules)
    assert e.value.word == "turquoise"


def test_unmatched_sentence_raises_no_pattern(rules):
    with pytest.raises(NoPatternMatch):
        parse_nl_question("What color is the sky?", rules)


def test_grammar_is_deterministic(rules):
    text = "Is the silver van getting closer to the green pedestrian?"
    assert parse_nl_question(text, rules) == parse_nl_question(text, rules)


@pytest.mark.parametrize("ending", [" ?", " ?!", "? ", " . ", "?! "])
def test_space_around_the_end_punctuation_is_trimmed(rules, ending):
    text = "Is the pedestrian walking"
    assert parse_nl_question(text + ending, rules) == parse_nl_question(text + "?", rules)


def test_generated_questions_parse_as_before(rules):
    """Every question ``gen --kind all`` writes normalizes as it did when
    whitespace was collapsed before the end punctuation was stripped, and
    keeps its family; with a space before its "?" it parses the same."""
    from scenelogic.scenarios import KINDS, ScenarioSpec, generate_scenario

    def old_normalize(text):
        return re.sub(r"\s+", " ", re.sub(r"[?.!,]+$", "", text.strip().lower()))

    n = 0
    for kind in KINDS:
        for seed in (0, 1):
            for item in generate_scenario(ScenarioSpec(kind, seed)).qa:
                assert _normalize(item.question) == old_normalize(item.question)
                parsed = match_question(item.question, rules)
                spaced = match_question(item.question.rstrip("?") + " ?", rules)
                assert (spaced.query, spaced.category) == (parsed.query, item.category)
                n += 1
    assert n > 0


# ---------------------------------------------------------------------------
# FOL query parsing
# ---------------------------------------------------------------------------

def test_single_conjunct_query(rules):
    q = parse_fol_query("GettingCloser(vehicle01, y)", rules)
    assert q.conjuncts == (lit("GettingCloser", "vehicle01", y),)


def test_negated_conjunct_query(rules):
    q = parse_fol_query("Vehicle(x) & !Moves(x)", rules)
    assert q.conjuncts == (lit("Vehicle", x), lit("Moves", x, neg=True))


def test_undeclared_predicate_rejected(rules):
    with pytest.raises(UnknownPredicate):
        parse_fol_query("Flying(x)", rules)


def test_quantifier_rejected_in_queries(rules):
    with pytest.raises(ParseError):
        parse_fol_query("forall x: Vehicle(x)", rules)


def test_print_parse_round_trip(rules):
    sentences = [
        "Does the white car at the center move at a constant speed?",
        "Is there a red bus?",
        "Is the black suv getting closer to the pedestrian on the left?",
        "Is the silver truck on the road?",
        "Did the gray van appear in this window?",
        "Is the green pedestrian walking at a fixed pace?",
    ]
    for text in sentences:
        q = parse_nl_question(text, rules)
        assert parse_fol_query(print_query(q, rules), rules) == q


# ---------------------------------------------------------------------------
# Answers as text
# ---------------------------------------------------------------------------

def test_affirmative_answer_names_witness(rules):
    q = Query((lit("Vehicle", x),))
    a = Answer(True, ({x: Const("vehicle01")},))
    assert answer_to_text(a, q) == "Yes: vehicle01 satisfies the query."


def test_negative_answer(rules):
    q = Query((lit("Vehicle", x),))
    assert answer_to_text(Answer(False, ()), q) == "No."


def test_two_witnesses_listed_in_binding_order(rules):
    q = Query((lit("Vehicle", x),))
    a = Answer(True, ({x: Const("vehicle01")}, {x: Const("vehicle02")}))
    assert answer_to_text(a, q) == "Yes: vehicle01 and vehicle02 satisfy the query."


def test_evidence_line_cites_rule(rules):
    q = Query((lit("ConstantSpeed", x),))
    step = TraceStep(lit("ConstantSpeed", "vehicle01"), "constant_speed",
                     (lit("Vehicle", "vehicle01"),))
    a = Answer(True, ({x: Const("vehicle01")},), ProofTrace((step,)))
    text = answer_to_text(a, q)
    assert text.startswith("Yes: vehicle01 satisfies the query.")
    assert "constant_speed" in text


def test_ground_query_answers_plain_yes(rules):
    q = Query((lit("Moves", "vehicle01"),))
    assert answer_to_text(Answer(True, ({},)), q) == "Yes."


def test_a_variable_only_under_negation_is_no_witness(rules):
    base = FactSet.of([lit("Pedestrian", "pedestrian01"), lit("Vehicle", "vehicle01")])
    q = parse_fol_query("Pedestrian(pedestrian01) & !Collide(x, x)", rules)
    assert answer_to_text(resolve(base, rules, q), q) == "Yes."
    q = parse_fol_query("Vehicle(x) & !GettingCloser(x, y)", rules)
    assert answer_to_text(resolve(base, rules, q), q) == "Yes: vehicle01 satisfies the query."


# ---------------------------------------------------------------------------
# Translator port
# ---------------------------------------------------------------------------

def test_translator_port_used_on_grammar_miss(rules):
    calls = []

    def fake_translator(question: str) -> str:
        calls.append(question)
        return "Vehicle(x) & !Moves(x)\n"

    q = parse_question("Which vehicles are idle right now?", rules, fake_translator)
    assert calls == ["Which vehicles are idle right now?"]
    assert q.conjuncts == (lit("Vehicle", x), lit("Moves", x, neg=True))


def test_translator_output_must_be_well_formed(rules):
    with pytest.raises(UnknownPredicate):
        parse_question("Which vehicles are idle?", rules, lambda _q: "Idle(x)")


def test_no_translator_reraises(rules):
    with pytest.raises(NoPatternMatch):
        parse_question("Which vehicles are idle?", rules, None)
