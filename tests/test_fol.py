"""FOL core: unification, substitution, and the clausal form of a rule."""

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
