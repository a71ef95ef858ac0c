"""LogicPad parsing, the built-in rule file, and stratification."""

import ast
import re
from importlib import resources
from pathlib import Path

import pytest
import yaml
from hypothesis import given, settings
from hypothesis import strategies as st

from scenelogic.fol import Const, Literal, Var
from scenelogic.inference import FactSet, saturate
from scenelogic import logicpad
from scenelogic.logicpad import (
    ArityMismatch,
    NotStratifiable,
    ParseError,
    RuleSet,
    UnknownPredicate,
    parse_conjunction,
    parse_rule,
    parse_rule_file,
)
from scenelogic.questions import parse_fol_query

from oracles import parse_query_by_formula, parse_rule_by_formula

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
# Rule and query text
# ---------------------------------------------------------------------------

def test_parse_collide_statement():
    rule = parse_rule(
        "collide",
        "forall x, y: (DistanceDecreases(x, y) & DistanceDecreasesToZero(x, y)) -> Collide(x, y)")
    assert rule.name == "collide"
    assert rule.head == Literal("Collide", (x, y))
    assert rule.body == (Literal("DistanceDecreases", (x, y)),
                         Literal("DistanceDecreasesToZero", (x, y)))


def test_parse_ground_atom():
    assert parse_conjunction("Vehicle(vehicle01)") == (Literal("Vehicle", (Const("vehicle01"),)),)


def test_parse_error_at_end_of_input():
    with pytest.raises(ParseError):
        parse_rule("r", "forall x: Moves(x) ->")


def test_parse_error_reports_position():
    with pytest.raises(ParseError) as exc:
        parse_conjunction("Moves(x) @ SpeedUp(x)")
    assert exc.value.position == 9


def test_function_equality_normalizes_to_relation():
    assert parse_conjunction("TypeOf(x) = Car") == (Literal("TypeOfRel", (x, Const("Car"))),)


def test_function_nesting_rejected():
    for text in ("P(f(x))", "P(f(g(x)))", "P(a, f(x)) & Q(x)", "ColOf(x) = f(y)"):
        with pytest.raises(ParseError, match="declare it under functions:"):
            parse_conjunction(text)


def test_question_mark_variables():
    assert parse_conjunction("Moves(?item)") == (Literal("Moves", (Var("item"),)),)


@pytest.mark.parametrize("lit", [
    Literal("=", (x, y)), Literal("=", (x, y), negated=True),
    Literal("=", (x, Const("White"))), Literal("=", (Const("car1"), y), negated=True),
], ids=["eq", "neq", "eq-const", "neq-const"])
def test_term_equality_prints_and_parses_back(lit):
    assert parse_conjunction(str(lit)) == (lit,)


def test_term_equality_reads_equals_and_not_equals():
    assert parse_conjunction("(x = y)") == (Literal("=", (x, y)),)
    assert parse_conjunction("(x != y)") == (Literal("=", (x, y), negated=True),)
    assert parse_conjunction("!(?a != White)") == (Literal("=", (Var("a"), Const("White"))),)
    assert parse_conjunction("Vehicle(x) & Vehicle(y) & (x != y)")[2] == \
        Literal("=", (x, y), negated=True)
    with pytest.raises(ParseError, match="expected '\\(', found '&'"):
        parse_conjunction("Moves & Vehicle(x)")


def test_rules_and_queries_take_negation_and_parentheses_around_literals():
    rule = parse_rule("r", "((forall_ok(x) & !!(Moves(x)) & !(!Appears(x))) -> (Stopped(x)))")
    assert rule.body == (Literal("forall_ok", (x,)), Literal("Moves", (x,)),
                         Literal("Appears", (x,)))
    assert rule.head == Literal("Stopped", (x,))
    assert parse_conjunction("((Moves(x)) & (!Vehicle(x) & (x != car1)))") == (
        Literal("Moves", (x,)), Literal("Vehicle", (x,), True),
        Literal("=", (x, Const("car1")), True))


@pytest.mark.parametrize("text,message", [
    ("forall x: (Moves(x) | Vehicle(x)) -> Stopped(x)",
     "at position 20: '|' is not supported: rule bodies and queries are conjunctions"),
    ("exists x: Moves(x) -> Stopped(x)", "at position 0: only universal quantifiers are allowed"),
    ("forall x: exists y: Moves(x) -> Stopped(x)",
     "at position 10: only universal quantifiers are allowed"),
    ("forall x: !(Moves(x) & Vehicle(x)) -> Stopped(x)",
     "at position 10: '!' applies to one literal, not to a conjunction"),
    ("forall x: Moves(x) -> Vehicle(x) -> Stopped(x)",
     "at position 33: '->' appears once in a rule, between its body and its head"),
    ("forall x: (Moves(x) -> Vehicle(x)) & Pedestrian(x) -> Stopped(x)",
     "at position 35: unexpected trailing input '&'"),
    ("forall x: Moves(x) -> !Stopped(x)", "at position 22: the head must be one positive literal"),
    ("forall x: Moves(x) -> Stopped(x) & Vehicle(x)",
     "at position 33: the head must be one positive literal"),
    ("forall x: Moves(x) -> (Stopped(x) & Vehicle(x))",
     "at position 22: the head must be one positive literal"),
    ("forall x: Moves(x)", "at position 18: expected '->', found 'end of input'"),
    ("forall x, y: Moves(x) -> (x = y)",
     "at position 25: the head cannot be an equality: '=' compares terms and derives nothing"),
    ("forall x, y: Moves(x) -> x = y",
     "at position 25: the head cannot be an equality: '=' compares terms and derives nothing"),
    ("forall x, y: Moves(x) -> !(x != y)",
     "at position 25: the head cannot be an equality: '=' compares terms and derives nothing"),
], ids=["or", "exists", "inner-exists", "not-over-and", "second-arrow", "implication-in-body",
        "negated-head", "conjunction-after-head", "conjunction-head", "no-arrow",
        "equality-head", "bare-equality-head", "double-negated-equality-head"])
def test_rule_shape_errors_name_the_rule_at_the_token(text, message):
    with pytest.raises(ParseError) as exc:
        parse_rule("oops", text)
    assert str(exc.value) == f"rule 'oops': {message}"


@pytest.mark.parametrize("text,message", [
    ("forall x: Vehicle(x)", "at position 0: queries are implicitly existential; "
                             "drop the quantifier"),
    ("Vehicle(x) -> Moves(x)",
     "at position 11: '->' appears once in a rule, between its body and its head"),
    ("Vehicle(x) & (Moves(x) -> Stopped(x))",
     "at position 23: '->' appears once in a rule, between its body and its head"),
    ("(Moves(x)) = a", "at position 11: equality must be written inside the parentheses"),
], ids=["quantifier", "arrow", "arrow-in-parentheses", "equality-after-parentheses"])
def test_query_shape_errors_are_at_the_token(text, message):
    with pytest.raises(ParseError) as exc:
        parse_conjunction(text)
    assert str(exc.value) == message


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
        assert parse_rule(r.name, str(r)) == r
    pair = parse_rule("pair", "forall ?item, b: (Vehicle(?item) & ColOfRel(?item, b) & "
                              "(?item != b)) -> P(?item)")
    assert str(pair) == \
        "forall ?item, b: (Vehicle(?item) & ColOfRel(?item, b) & !(?item = b)) -> P(?item)"
    assert parse_rule("pair", str(pair)) == pair


def test_vocabulary_keys_are_lower_cased_at_load_and_the_later_duplicate_wins():
    rs = parse_rule_file("vocabulary:\n  colors: {White: A, Teal: Teal, white: B}\n"
                         "  types: {SUV: SUV}\n")
    assert rs.vocabulary == {"colors": {"white": "B", "teal": "Teal"},
                             "types": {"suv": "SUV"}}


def test_rule_and_query_bodies_share_one_conjunction_check(rules):
    bad = MINI + '  - {name: oops, fol: "forall x: (Moves(x) | Pedestrian(x)) -> Stopped(x)"}\n'
    disjunction = "'|' is not supported: rule bodies and queries are conjunctions"
    with pytest.raises(ParseError) as exc:
        parse_rule_file(bad)
    assert str(exc.value) == f"rule 'oops': at position 20: {disjunction}"
    for text, message in (("Moves(x) | Appears(x)", f"at position 9: {disjunction}"),
                          ("!(Moves(x) & Appears(x))",
                           "at position 0: '!' applies to one literal, not to a conjunction")):
        with pytest.raises(ParseError) as exc:
            parse_fol_query(text, rules)
        assert str(exc.value) == message


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


ABC = ("predicates:\n  - {name: A, arity: 1}\n  - {name: B, arity: 1}\n"
       "  - {name: C, arity: 1, source: derived}\nrules:\n")


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
    ("predicates:\n  - {name: P, arity: 1}\n  - {name: P, arity: 2}\n",
     "predicate 'P': duplicate declaration"),
    ("- Moves\n", "rule file: must be a YAML mapping, not ['Moves']"),
    ("a: b: c\n", 'line 1: invalid YAML: mapping values are not allowed here\n'
                  '  in "<unicode string>", line 1, column 5:\n    a: b: c\n        ^'),
    (ABC + '  - {name: r, fol: "forall x: A(x) -> C(x)"}\n'
           '  - {name: r, fol: "forall x: B(x) -> C(x)"}\n', "rule 'r': duplicate rule name"),
    (ABC + '  - {name: rule1, fol: "forall x: A(x) -> C(x)"}\n'
           '  - {fol: "forall x: B(x) -> C(x)"}\n', "rule 'rule1': duplicate rule name"),
    ("vocabulary: [a]\n", "vocabulary: must be a mapping, not ['a']"),
    ("vocabulary: {colors: [white]}\n", "vocabulary colors: must be a mapping, not ['white']"),
    ("templates: [x]\n", "templates: must be a mapping, not ['x']"),
    ("templates: {Moves: 5}\n", "template 'Moves': must be a string, not 5"),
], ids=["missing-arity", "missing-name", "bad-source", "function-without-name",
        "bare-predicate", "word-arity", "fraction-arity", "bare-function", "bare-rule",
        "section-not-a-list", "duplicate-predicate", "document-not-a-mapping", "invalid-yaml",
        "duplicate-rule", "default-name-taken", "vocabulary-not-a-mapping",
        "vocabulary-section-not-a-mapping", "templates-not-a-mapping", "template-not-a-string"])
def test_declaration_errors_name_the_entry(text, message):
    with pytest.raises(ParseError) as exc:
        parse_rule_file(text)
    assert str(exc.value) == message


@pytest.mark.parametrize("loader", ["CSafeLoader", "SafeLoader"])
@pytest.mark.parametrize("text,message", [
    ("predicates: [{name: 7, arity: 1}]\n",
     "predicates[0]: name must be a non-empty string, not 7"),
    ("predicates: [{name: '', arity: 1}]\n",
     "predicates[0]: name must be a non-empty string, not ''"),
    ("functions: [{name: 3}]\n", "functions[0]: name must be a non-empty string, not 3"),
    (ABC + "  - {name: '', fol: \"forall x: A(x) -> C(x)\"}\n",
     "rules[0]: name must be a non-empty string, not ''"),
    (ABC + "  - {name: [r], fol: \"forall x: A(x) -> C(x)\"}\n",
     "rules[0]: name must be a non-empty string, not ['r']"),
    (ABC + "  - name: !\n    fol: \"forall x: A(x) -> C(x)\"\n",
     "rules[0]: name must be a non-empty string, not None"),
    # The Python loader rejects a bare tag before a flow mapping's ':'.
    ('rules: [{name: !, fol: "forall x: A(x) -> C(x)"}]\n',
     "line 1: invalid YAML: while parsing a flow mapping"),
], ids=["number-predicate", "empty-predicate", "number-function", "empty-rule",
        "list-rule", "bare-tag-rule", "bare-tag-in-flow-rule"])
def test_entry_names_are_non_empty_strings(monkeypatch, loader, text, message):
    if not hasattr(yaml, loader):
        pytest.skip("PyYAML was built without libyaml")
    if loader == "SafeLoader":
        monkeypatch.setattr(logicpad, "_YAML_LOADER", yaml.SafeLoader)
    with pytest.raises(ParseError) as exc:
        parse_rule_file(text)
    assert str(exc.value).splitlines()[0] == message


def test_a_bare_tag_reads_as_the_python_loader_reads_it():
    text = "predicates:\n  - name: A\n    arity: 1\n    doc: !\n"
    assert parse_rule_file(text).declarations[0].doc is None


def _load_outcome(text: str):
    """A rule document's RuleSet with the fields its equality leaves out,
    or the error it raises."""
    try:
        rs = parse_rule_file(text)
    except Exception as e:
        return type(e).__name__, str(e)
    return rs, rs.strata, rs.vocabulary, rs.templates


def test_c_and_python_yaml_loaders_give_equal_rule_sets(monkeypatch):
    if not hasattr(yaml, "CSafeLoader"):
        pytest.skip("PyYAML was built without libyaml")
    assert issubclass(logicpad._YAML_LOADER, yaml.CSafeLoader)
    default = resources.files("scenelogic").joinpath("rules/default.yaml").read_text("utf-8")
    # Every string constant in the tests, and each one that reads as a rule
    # entry appended to MINI's rules.
    texts = [node.value for path in sorted(ROOT.glob("tests/*.py"))
             for node in ast.walk(ast.parse(path.read_text("utf-8")))
             if isinstance(node, ast.Constant) and isinstance(node.value, str)]
    documents = [default, *texts, *(MINI + f"  - {t}\n" for t in texts if t.startswith("{"))]
    by_c = [_load_outcome(d) for d in documents]
    monkeypatch.setattr(logicpad, "_YAML_LOADER", yaml.SafeLoader)
    assert [_load_outcome(d) for d in documents] == by_c
    # The scan reaches the default file, rule documents and rejected ones.
    loaded = [o for o in by_c if isinstance(o[0], RuleSet)]
    assert len(loaded[0][0].rules) == 9
    assert sum(len(o[0].rules) > 0 for o in loaded) >= 3
    assert sum(o[0] == "ParseError" for o in by_c) >= 1000


def test_default_carries_vocabulary_and_templates(rules):
    assert rules.vocabulary["colors"]["white"] == "White"
    assert rules.vocabulary["types"]["suv"] == "SUV"
    assert rules.templates["Moves"] == "{0} is moving."


# ---------------------------------------------------------------------------
# The parser against the formula-tree oracle
# ---------------------------------------------------------------------------

def _outcome(parse, *args):
    try:
        return "accepted", parse(*args)
    except ParseError:
        return "rejected", None


def _assert_parsers_agree(text: str) -> tuple[str, str]:
    """Rule and query parses of ``text`` equal the oracle's, except that a
    rule with an equality head, which the oracle accepts, is rejected."""
    rule, want = _outcome(parse_rule, "r", text), _outcome(parse_rule_by_formula, "r", text)
    if want[0] == "accepted" and want[1].head.pred == "=":
        want = ("rejected", None)
    assert rule == want, text
    query = _outcome(parse_conjunction, text)
    assert query == _outcome(parse_query_by_formula, text), text
    return rule[0], query[0]


ROOT = Path(__file__).resolve().parent.parent


def _repository_texts() -> list[str]:
    """Every string constant in the tests and demos, every ``fol:`` value
    inside one, every README code span, and every default rule."""
    texts = []
    for path in sorted([*ROOT.glob("tests/*.py"), *ROOT.glob("demos/*.py")]):
        for node in ast.walk(ast.parse(path.read_text("utf-8"))):
            if isinstance(node, ast.Constant) and isinstance(node.value, str):
                texts.append(node.value)
                texts += re.findall(r'fol: "([^"]*)"', node.value)
    texts += re.findall(r"`([^`\n]+)`", (ROOT / "README.md").read_text("utf-8"))
    default = resources.files("scenelogic").joinpath("rules/default.yaml").read_text("utf-8")
    texts += [row["fol"] for row in yaml.safe_load(default)["rules"]]
    return texts


def test_parser_agrees_with_the_formula_oracle_on_every_repository_text():
    texts = _repository_texts()
    outcomes = [_assert_parsers_agree(t) for t in texts]
    # 23 rule and 37 query texts are accepted today; most strings are neither.
    assert sum(rule == "accepted" for rule, _ in outcomes) >= 20
    assert sum(query == "accepted" for _, query in outcomes) >= 30


_TOKENS = ("P", "Q", "ColOf", "a", "b", "x", "y", "?v", "forall", "exists",
           "&", "|", "!", "->", "=", "!=", "(", ")", ",", ":")
_term = st.sampled_from(("x", "y", "?v", "a", "car1"))
_predicate = st.builds(lambda p, args: f"{p}({', '.join(args)})",
                       st.sampled_from(("P", "Q", "forall")),
                       st.lists(_term, min_size=1, max_size=2))
_function = st.builds(lambda t, v: f"ColOf({t}) = {v}", _term, _term)
_atom = st.one_of(
    _predicate,
    _function,
    st.builds(lambda t, op, u: f"({t} {op} {u})", _term, st.sampled_from(("=", "!=")), _term),
    st.builds(lambda t, op, u: f"{t} {op} {u}", _term, st.sampled_from(("=", "!=")), _term),
)


def _wrapped(inner):
    return st.one_of(st.builds(lambda n, f: "!" * n + f, st.integers(1, 2), inner),
                     st.builds(lambda f: f"({f})", inner))


_literal = st.recursive(_atom, _wrapped, max_leaves=3)
_formula = st.recursive(_literal, lambda inner: st.one_of(_wrapped(inner), st.builds(
    lambda f, op, g: f"{f} {op} {g}", inner, st.sampled_from(("&",) * 6 + ("|", "->")), inner),
), max_leaves=5)
_prefix = st.sampled_from(("", "forall x: ", "forall x, y: ", "forall ?v: forall y: ") * 3
                          + ("exists x: ", "forall x: exists y: ", "forall (x): "))
_rule_text = st.builds(lambda pre, n, body, head: pre + "(" * n + f"{body} -> {head}" + ")" * n,
                       _prefix, st.integers(0, 2), _formula,
                       st.one_of(_predicate, _function, _literal, _formula))
_structured = st.one_of(_formula, _rule_text)


def _edit(text: str, at: int, token: str, how: str) -> str:
    """Insert ``token`` before, replace or delete the token of ``text`` at
    position ``at`` modulo its length."""
    toks = re.findall(r"->|!=|\??\w+|\S", text)
    i = at % (len(toks) + 1)
    if how == "insert":
        toks.insert(i, token)
    elif i < len(toks):
        toks[i:i + 1] = [token] if how == "replace" else []
    return " ".join(toks)


_texts = st.one_of(
    _formula,
    _rule_text,
    st.builds(_edit, _structured, st.integers(0, 40), st.sampled_from(_TOKENS),
              st.sampled_from(("insert", "replace", "delete"))),
    st.lists(st.sampled_from(_TOKENS), max_size=12).map(" ".join),
)


@settings(max_examples=1000, deadline=None)
@given(_texts)
def test_parser_agrees_with_the_formula_oracle_on_generated_texts(text):
    _assert_parsers_agree(text)
