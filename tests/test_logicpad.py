"""LogicPad parsing, the built-in rule file, and stratification."""

import pytest

from scenelogic.fol import And, Const, Implies, Literal, Var
from scenelogic.inference import FactSet, saturate
from scenelogic.logicpad import (
    ArityMismatch,
    NotStratifiable,
    ParseError,
    UnknownPredicate,
    format_statement,
    parse_fol_expr,
    parse_rule_file,
)
from scenelogic.questions import parse_fol_query

x, y = Var("x"), Var("y")

MINI = """
predicates:
  - {name: Moves, arity: 1, source: atomic}
  - {name: Pedestrian, arity: 1, source: atomic}
  - {name: SpeedUp, arity: 1, source: atomic}
  - {name: SpeedDown, arity: 1, source: atomic}
  - {name: Stopped, arity: 1, source: derived}
  - {name: FixedPace, arity: 1, source: derived}
rules:
  - {name: stopped, fol: "forall x: (!Moves(x)) -> Stopped(x)"}
  - {name: fixed_pace, fol: "forall x: (Pedestrian(x) & !SpeedUp(x) & !SpeedDown(x)) -> FixedPace(x)"}
"""


def test_parse_rule_file_shapes_rules():
    rs = parse_rule_file(MINI)
    stopped = rs.rules[0]
    assert stopped.head == Literal("Stopped", (x,))
    assert stopped.body == (Literal("Moves", (x,), negated=True),)
    fixed = rs.rules[1]
    assert fixed.head == Literal("FixedPace", (x,))
    assert [l.negated for l in fixed.body] == [False, True, True]


def test_empty_rules_section():
    rs = parse_rule_file("predicates:\n  - {name: Moves, arity: 1}\nrules: []\n")
    assert rs.rules == ()


def test_unknown_predicate_is_an_error():
    bad = MINI + '  - {name: oops, fol: "forall x: (Flies(x)) -> Stopped(x)"}\n'
    with pytest.raises(UnknownPredicate):
        parse_rule_file(bad)


def test_arity_mismatch_is_an_error():
    bad = MINI + '  - {name: oops, fol: "forall x, y: (Moves(x, y)) -> Stopped(x)"}\n'
    with pytest.raises(ArityMismatch):
        parse_rule_file(bad)


def test_negation_cycle_is_not_stratifiable():
    text = """
predicates:
  - {name: P, arity: 1, source: derived}
  - {name: Q, arity: 1, source: derived}
  - {name: Base, arity: 1, source: atomic}
rules:
  - {name: a, fol: "forall x: (Base(x) & !Q(x)) -> P(x)"}
  - {name: b, fol: "forall x: (Base(x) & !P(x)) -> Q(x)"}
"""
    with pytest.raises(NotStratifiable):
        parse_rule_file(text)


def test_duplicate_declaration_rejected():
    with pytest.raises(ParseError):
        parse_rule_file("predicates:\n  - {name: P, arity: 1}\n  - {name: P, arity: 2}\n")


# ---------------------------------------------------------------------------
# FOL expression parsing
# ---------------------------------------------------------------------------

def test_parse_collide_statement():
    st = parse_fol_expr(
        "forall x, y: (DistanceDecreases(x, y) & DistanceDecreasesToZero(x, y)) -> Collide(x, y)"
    )
    assert st.quantifiers == (("forall", x), ("forall", y))
    assert isinstance(st.body, Implies)
    assert isinstance(st.body.left, And)
    assert st.body.right == Literal("Collide", (x, y))


def test_parse_ground_atom():
    st = parse_fol_expr("Vehicle(vehicle01)")
    assert st.quantifiers == ()
    assert st.body == Literal("Vehicle", (Const("vehicle01"),))


def test_parse_error_at_end_of_input():
    with pytest.raises(ParseError):
        parse_fol_expr("forall x: Moves(x) ->")


def test_parse_error_reports_position():
    with pytest.raises(ParseError) as exc:
        parse_fol_expr("Moves(x) @ SpeedUp(x)")
    assert exc.value.position == 9


def test_function_equality_normalizes_to_relation():
    st = parse_fol_expr("TypeOf(x) = Car")
    assert st.body == Literal("TypeOfRel", (x, Const("Car")))


def test_function_nesting_rejected():
    for text in ("P(f(x))", "P(f(g(x)))", "P(a, f(x)) & Q(x)", "ColOf(x) = f(y)"):
        with pytest.raises(ParseError, match="declare it under functions:"):
            parse_fol_expr(text)


def test_question_mark_variables():
    st = parse_fol_expr("Moves(?item)")
    assert st.body == Literal("Moves", (Var("item"),))


@pytest.mark.parametrize("lit", [
    Literal("=", (x, y)), Literal("=", (x, y), negated=True),
    Literal("=", (x, Const("White"))), Literal("=", (Const("car1"), y), negated=True),
], ids=["eq", "neq", "eq-const", "neq-const"])
def test_term_equality_prints_and_parses_back(lit):
    assert parse_fol_expr(str(lit)).body == lit


def test_term_equality_reads_equals_and_not_equals():
    assert parse_fol_expr("(x = y)").body == Literal("=", (x, y))
    assert parse_fol_expr("(x != y)").body == Literal("=", (x, y), negated=True)
    assert parse_fol_expr("!(?a != White)").body == Literal("=", (Var("a"), Const("White")))
    st = parse_fol_expr("Vehicle(x) & Vehicle(y) & (x != y)")
    assert st.body.parts[2] == Literal("=", (x, y), negated=True)
    with pytest.raises(ParseError, match="expected '\\(', found '&'"):
        parse_fol_expr("Moves & Vehicle(x)")


def test_term_equality_in_a_rule_body():
    rs = parse_rule_file(
        "predicates:\n"
        "  - {name: Pedestrian, arity: 1}\n"
        "  - {name: Pair, arity: 2, source: derived}\n"
        "rules:\n"
        '  - {name: pair, fol: "forall x, y: (Pedestrian(x) & Pedestrian(y) & (x != y))'
        ' -> Pair(x, y)"}\n')
    assert rs.rules[0].body[2] == Literal("=", (x, y), negated=True)
    a, b = Const("a"), Const("b")
    sat = saturate(FactSet.of([Literal("Pedestrian", (a,)), Literal("Pedestrian", (b,))]), rs)
    assert {f for f in sat.facts if f.pred == "Pair"} == {
        Literal("Pair", (a, b)), Literal("Pair", (b, a))}


# ---------------------------------------------------------------------------
# Built-in rule file
# ---------------------------------------------------------------------------

def test_default_has_nine_derived_rules(rules):
    assert len(rules.rules) == 9
    assert {r.name for r in rules.rules} == {
        "stopped", "walk", "stand", "accelerate", "constant_speed",
        "increase_pace", "fixed_pace", "getting_closer", "collide",
    }


def test_default_declares_semantic_catalog(rules):
    atomic = {d.name for d in rules.atomic_predicates()}
    for name in ("Road", "LaneMarking", "TrafficSign", "Sidewalk", "Fence",
                 "Pole", "Wall", "Building", "Vegetation", "Vehicle",
                 "Pedestrian", "Other"):
        assert name in atomic
    assert "ColOfRel" in atomic and "TypeOfRel" in atomic


def test_default_stratification(rules):
    # Nothing derived feeds another rule body, so two strata exactly.
    for d in rules.atomic_predicates():
        assert rules.strata[d.name] == 0
    for d in rules.derived_predicates():
        assert rules.strata[d.name] == 1
    body_preds = {l.pred for r in rules.rules for l in r.body}
    assert not body_preds & {d.name for d in rules.derived_predicates()}


def test_default_arities_match_usage(rules):
    for r in rules.rules:
        for l in (r.head, *r.body):
            assert rules.arity(l.pred) == len(l.args)


def test_print_parse_round_trip_on_every_default_rule(rules):
    for r in rules.rules:
        printed = format_statement(r.statement, rules.functions)
        assert parse_fol_expr(printed) == r.statement


def test_vocabulary_keys_are_lower_cased_at_load_and_the_later_duplicate_wins():
    rs = parse_rule_file("vocabulary:\n  colors: {White: A, Teal: Teal, white: B}\n"
                         "  types: {SUV: SUV}\n")
    assert rs.vocabulary == {"colors": {"white": "B", "teal": "Teal"},
                             "types": {"suv": "SUV"}}


def test_rule_and_query_bodies_share_one_conjunction_check(rules):
    bad = MINI + '  - {name: oops, fol: "forall x: (Moves(x) | Pedestrian(x)) -> Stopped(x)"}\n'
    with pytest.raises(ParseError, match="rule 'oops': body must be a conjunction of literals"):
        parse_rule_file(bad)
    for text in ("Moves(x) | Appears(x)", "!(Moves(x) & Appears(x))"):
        with pytest.raises(ParseError, match="a query must be a conjunction of literals"):
            parse_fol_query(text, rules)


@pytest.mark.parametrize("row,message", [
    ('{name: oops, fol: "forall x: (Moves(x) & ) -> Stopped(x)"}',
     "rule 'oops': at position 22: expected a predicate, found ')'"),
    ('{name: oops, fol: "forall x: (Moves(f(x))) -> Stopped(x)"}',
     "rule 'oops': at position 17: arguments are constants or variables; write the "
     "function f as f(...) = value and declare it under functions:"),
    ("{name: oops}", "rule 'oops': missing key 'fol'"),
], ids=["syntax", "function-term", "missing-fol"])
def test_rule_errors_name_the_rule(row, message):
    with pytest.raises(ParseError) as exc:
        parse_rule_file(MINI + f"  - {row}\n")
    assert str(exc.value) == message


@pytest.mark.parametrize("text,message", [
    ("predicates:\n  - {name: Moves}\n", "predicate 'Moves': missing key 'arity'"),
    ("predicates:\n  - {arity: 1}\n", "predicates[0]: missing key 'name'"),
    ("predicates:\n  - {name: Moves, arity: 1, source: derivd}\n",
     "predicate 'Moves': source must be atomic or derived, not 'derivd'"),
    ("functions:\n  - {doc: colour}\n", "functions[0]: missing key 'name'"),
    ("predicates: [Moves]\n", "predicates[0]: must be a mapping, not 'Moves'"),
    ("predicates:\n  - {name: Moves, arity: one}\n",
     "predicate 'Moves': arity must be an integer, not 'one'"),
    ("predicates:\n  - {name: Moves, arity: 1.5}\n",
     "predicate 'Moves': arity must be an integer, not 1.5"),
    ("functions: [ColOf]\n", "functions[0]: must be a mapping, not 'ColOf'"),
    ('rules: ["forall x: Moves(x) -> Moves(x)"]\n',
     "rules[0]: must be a mapping, not 'forall x: Moves(x) -> Moves(x)'"),
    ("predicates: {Moves: 1}\n", "predicates: must be a list of mappings, not {'Moves': 1}"),
], ids=["missing-arity", "missing-name", "bad-source", "function-without-name",
        "bare-predicate", "word-arity", "fraction-arity", "bare-function", "bare-rule",
        "section-not-a-list"])
def test_declaration_errors_name_the_entry(text, message):
    with pytest.raises(ParseError) as exc:
        parse_rule_file(text)
    assert str(exc.value) == message


def test_default_carries_vocabulary_and_templates(rules):
    assert rules.vocabulary["colors"]["white"] == "White"
    assert rules.vocabulary["types"]["suv"] == "SUV"
    assert rules.templates["Moves"] == "{0} is moving."
