"""FOL core: interned terms, unification, substitution, and the clausal form
of a rule."""

import copy
import gc
import pickle
import sys
import weakref

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from scenelogic.fol import Const, Literal, Var, apply, unify
from scenelogic.logicpad import RuleDecl, parse_rule

from oracles import horn_clause

x, y = Var("x"), Var("y")
v01 = Const("vehicle01")
p01 = Const("pedestrian01")


def lit(pred, *args, neg=False):
    return Literal(pred, tuple(args), neg)


# ---------------------------------------------------------------------------
# Terms and literals as values
# ---------------------------------------------------------------------------

def test_equal_terms_are_one_object_and_a_constant_is_no_variable():
    assert Const("a") is Const("a") and Var("a") is Var("a")
    assert Const("a") != Var("a")
    table = {Const("a"): "constant", Var("a"): "variable"}
    assert len(table) == 2
    assert table[Const("a")] == "constant" and table[Var("a")] == "variable"


def test_copies_and_pickles_return_the_interned_term():
    for term in (Const("a"), Var("x"), Var("item")):
        assert pickle.loads(pickle.dumps(term)) is term
        assert copy.copy(term) is term
        assert copy.deepcopy(term) is term
    fact = lit("GettingCloser", v01, p01)
    assert pickle.loads(pickle.dumps(fact)).args[0] is v01
    assert copy.deepcopy(fact).args[1] is p01


def test_terms_are_immutable_and_print_as_before():
    for term in (v01, x):
        with pytest.raises(AttributeError):
            term.name = "other"
        with pytest.raises(AttributeError):
            term.extra = 1
        with pytest.raises(AttributeError):
            del term.name
    assert v01.name == "vehicle01"
    assert repr(v01) == "Const(name='vehicle01')" and repr(x) == "Var(name='x')"
    assert repr(lit("P", v01, x, neg=True)) == (
        "Literal(pred='P', args=(Const(name='vehicle01'), Var(name='x')), negated=True)")
    assert str(lit("P", v01, x, Var("item"), neg=True)) == "!P(vehicle01, x, ?item)"


def test_a_literal_is_a_tuple():
    fact = lit("Moves", v01)
    assert isinstance(fact, tuple) and len(fact) == 3
    assert fact == ("Moves", (v01,), False)
    assert Literal("Moves") == Literal("Moves", (), False)
    assert fact.negate().atom is not fact and fact.negate().atom == fact


def test_an_unreferenced_name_leaves_the_table():
    term = Const("named_only_here")
    gone = weakref.ref(term)
    assert Const._live.get("named_only_here") is term
    del term
    gc.collect()
    assert gone() is None
    assert "named_only_here" not in Const._live


def test_hashing_and_equality_run_no_python_frame():
    a, v = Const("a"), Var("v")
    fact, same, other = lit("P", a, v), lit("P", a, v), lit("P", v, a)
    calls = []

    def profile(frame, event, arg):
        if event == "call":
            calls.append(frame.f_code.co_name)

    sys.setprofile(profile)
    try:
        hash(a), hash(v), hash(fact)
        a == a, a != v, fact == same, fact != other
        {fact: 1}[same]
        {a: 1, v: 2}.get(v)
    finally:
        sys.setprofile(None)
    assert calls == []


# ---------------------------------------------------------------------------
# unify
# ---------------------------------------------------------------------------

def test_unify_binds_variable_to_constant():
    s = unify(lit("GettingCloser", v01, y), lit("GettingCloser", v01, p01))
    assert s == {y: p01}


def test_unify_identity_is_empty():
    assert unify(lit("Vehicle", x), lit("Vehicle", x)) == {}


def test_unify_predicate_mismatch_fails():
    assert unify(lit("Vehicle", v01), lit("Pedestrian", v01)) is None


def test_unify_sign_mismatch_fails():
    assert unify(lit("Moves", x), lit("Moves", v01, neg=True)) is None


# ---------------------------------------------------------------------------
# apply
# ---------------------------------------------------------------------------

def test_apply_grounds_literal():
    assert apply({x: v01}, lit("ConstantSpeed", x)) == lit("ConstantSpeed", v01)


def test_apply_empty_substitution():
    assert apply({}, lit("Moves", x)) == lit("Moves", x)


def test_apply_is_single_pass():
    # Replacements are simultaneous, never re-substituted.
    s = {x: y, y: Const("a")}
    assert apply(s, lit("P", x, y)) == lit("P", y, Const("a"))


# ---------------------------------------------------------------------------
# Clausal form of a rule (the resolution oracle's input)
# ---------------------------------------------------------------------------

def test_cnf_rewrites_implication():
    rule = parse_rule("r", "forall x, y: DistanceDecreases(x, y) -> GettingCloser(x, y)")
    assert horn_clause(rule) == frozenset(
        {lit("DistanceDecreases", x, y, neg=True), lit("GettingCloser", x, y)}
    )


def test_cnf_drops_tautology():
    assert horn_clause(parse_rule("r", "forall x: Moves(x) -> Moves(x)")) is None


def test_cnf_conjunction_body():
    rule = parse_rule("r", "forall x: (Vehicle(x) & SpeedUp(x)) -> Accelerate(x)")
    assert horn_clause(rule) == frozenset(
        {lit("Vehicle", x, neg=True), lit("SpeedUp", x, neg=True), lit("Accelerate", x)}
    )


def test_clause_of_drops_duplicates_and_tautologies():
    dup = RuleDecl("d", lit("P", x), (lit("Q", x), lit("Q", x)))
    assert horn_clause(dup) == frozenset({lit("P", x), lit("Q", x, neg=True)})
    taut = RuleDecl("t", lit("P", x), (lit("Q", x), lit("P", x)))
    assert horn_clause(taut) is None


# ---------------------------------------------------------------------------
# Property tests
# ---------------------------------------------------------------------------

_CONSTS = (Const("a"), Const("b"))
_terms = st.sampled_from((x, y) + _CONSTS)
_literals = st.builds(
    lambda pred, args, neg: Literal(pred, args, neg),
    st.sampled_from(("P", "Q")),
    st.tuples(_terms, _terms),
    st.booleans(),
)


@settings(max_examples=150, deadline=None)
@given(_literals, _literals)
def test_unify_symmetric(a, b):
    s_ab = unify(a, b)
    s_ba = unify(b, a)
    assert (s_ab is None) == (s_ba is None)
    if s_ab is not None:
        # Both unifiers literally equate the two literals.
        assert apply(s_ab, a) == apply(s_ab, b)
        assert apply(s_ba, a) == apply(s_ba, b)


@settings(max_examples=150, deadline=None)
@given(_literals, _literals)
def test_unifier_is_idempotent(a, b):
    s = unify(a, b)
    if s is not None:
        assert apply(s, apply(s, a)) == apply(s, a)
