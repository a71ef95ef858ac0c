"""FOL core: unification, substitution, CNF conversion."""

from itertools import product

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from scenelogic.fol import (
    And,
    Clause,
    Const,
    Implies,
    Literal,
    Not,
    Or,
    Statement,
    UnsupportedQuantifier,
    Var,
    apply,
    compose,
    to_cnf,
    unify,
)

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
# to_cnf
# ---------------------------------------------------------------------------

def test_cnf_rewrites_implication():
    st_ = Statement(
        (("forall", x), ("forall", y)),
        Implies(lit("DistanceDecreases", x, y), lit("GettingCloser", x, y)),
    )
    (clause,) = to_cnf(st_)
    assert clause.literals == frozenset(
        {lit("DistanceDecreases", x, y, neg=True), lit("GettingCloser", x, y)}
    )


def test_cnf_drops_tautology():
    st_ = Statement((("forall", x),), Implies(lit("Moves", x), lit("Moves", x)))
    assert to_cnf(st_) == []


def test_cnf_conjunction_body():
    st_ = Statement(
        (("forall", x),),
        Implies(And((lit("Vehicle", x), lit("SpeedUp", x))), lit("Accelerate", x)),
    )
    (clause,) = to_cnf(st_)
    assert clause.literals == frozenset(
        {lit("Vehicle", x, neg=True), lit("SpeedUp", x, neg=True), lit("Accelerate", x)}
    )


def test_cnf_rejects_existential():
    st_ = Statement((("exists", x),), lit("Vehicle", x))
    with pytest.raises(UnsupportedQuantifier):
        to_cnf(st_)


def test_cnf_rejects_open_statement():
    st_ = Statement((), lit("Vehicle", x))
    with pytest.raises(ValueError):
        to_cnf(st_)


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


def _formulas(depth):
    if depth == 0:
        return _literals
    sub = _formulas(depth - 1)
    return st.one_of(
        _literals,
        st.builds(lambda a, b: And((a, b)), sub, sub),
        st.builds(lambda a, b: Or((a, b)), sub, sub),
        st.builds(Not, sub),
        st.builds(Implies, sub, sub),
    )


def _eval_formula(f, truth):
    if isinstance(f, Literal):
        return (Literal(f.pred, f.args) in truth) != f.negated
    if isinstance(f, And):
        return all(_eval_formula(p, truth) for p in f.parts)
    if isinstance(f, Or):
        return any(_eval_formula(p, truth) for p in f.parts)
    if isinstance(f, Not):
        return not _eval_formula(f.part, truth)
    if isinstance(f, Implies):
        return (not _eval_formula(f.left, truth)) or _eval_formula(f.right, truth)
    raise TypeError(f)


def _eval_clauses(clauses, consts, truth):
    for c in clauses:
        cvars = sorted({a for l in c.literals for a in l.args if isinstance(a, Var)},
                       key=lambda v: v.name)
        for combo in product(consts, repeat=len(cvars)):
            sub = dict(zip(cvars, combo))
            if not any(_eval_formula(apply(sub, l), truth) for l in c.literals):
                return False
    return True


@settings(max_examples=80, deadline=None)
@given(_formulas(2))
def test_cnf_equivalent_under_all_assignments(body):
    from scenelogic.fol import formula_vars

    qvars = sorted(formula_vars(body), key=lambda v: v.name)
    statement = Statement(tuple(("forall", v) for v in qvars), body)
    clauses = to_cnf(statement)

    atoms = [Literal(p, args)
             for p in ("P", "Q")
             for args in product(_CONSTS, repeat=2)]
    consts = _CONSTS

    def eval_statement(truth):
        return all(
            _eval_formula(apply(dict(zip(qvars, combo)), body), truth)
            for combo in product(consts, repeat=len(qvars))
        )

    # Exhaustive over every truth assignment of the 8-atom Herbrand base.
    for bits in range(2 ** len(atoms)):
        truth = {a for k, a in enumerate(atoms) if bits >> k & 1}
        assert eval_statement(truth) == _eval_clauses(clauses, consts, truth)


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
        assert compose(s, s) == s


def test_compose_applies_in_sequence():
    s1 = {x: y}
    s2 = {y: Const("a")}
    c = compose(s1, s2)
    t = lit("P", x, y)
    assert apply(c, t) == apply(s2, apply(s1, t))


def test_clause_of_drops_duplicates_and_tautologies():
    assert Clause.of([lit("P", x), lit("P", x)]).literals == frozenset({lit("P", x)})
    assert Clause.of([lit("P", x), lit("P", x, neg=True)]) is None
