"""Inference engine: stratified saturation, query resolution, proof traces,
and the differential against the naive oracle."""

import random

import pytest

from scenelogic.fol import Const, Literal, Var
from scenelogic.inference import (
    FactSet,
    ProofTrace,
    Query,
    TraceStep,
    answer_query,
    check_trace,
    resolve,
    saturate,
)
from scenelogic.logicpad import (
    PredicateDecl,
    RuleDecl,
    RuleSet,
    UnknownPredicate,
    parse_rule_file,
    stratify,
)

from oracles import (
    NonGroundQuery,
    OracleTooLarge,
    brute_force_answer,
    brute_force_models,
    horn_clause,
    naive_saturate,
    resolve_by_refutation,
)

x, y = Var("x"), Var("y")


def lit(pred, *names, neg=False):
    return Literal(pred, tuple(Const(n) if isinstance(n, str) else n for n in names), neg)


def facts(*lits):
    return FactSet.of(lits)


# ---------------------------------------------------------------------------
# saturate
# ---------------------------------------------------------------------------

def test_vehicle_without_speed_changes_holds_constant_speed(rules):
    sat = saturate(facts(lit("Vehicle", "vehicle01")), rules)
    assert lit("ConstantSpeed", "vehicle01") in sat


def test_moving_pedestrian_walks(rules):
    sat = saturate(facts(lit("Pedestrian", "p01"), lit("Moves", "p01")), rules)
    assert lit("Walk", "p01") in sat
    assert lit("Stand", "p01") not in sat


def test_empty_base_saturates_to_empty(rules):
    sat = saturate(FactSet.of([]), rules)
    assert len(sat) == 0 and sat.trace.steps == ()


def test_saturate_records_one_step_per_derived_fact(rules):
    base = facts(lit("Vehicle", "v"), lit("SpeedUp", "v"))
    sat = saturate(base, rules)
    derived = sat.facts - base.facts
    assert {s.derived for s in sat.trace.steps} == derived
    assert len(sat.trace.steps) == len(derived)


# ---------------------------------------------------------------------------
# resolve
# ---------------------------------------------------------------------------

def _fig3_base():
    return facts(
        lit("Vehicle", "vehicle01"),
        lit("TypeOfRel", "vehicle01", "Car"),
        lit("ColOfRel", "vehicle01", "White"),
        lit("AtCenter", "vehicle01"),
        lit("Moves", "vehicle01"),
    )


def test_paper_query_resolves_to_vehicle01(rules):
    q = Query((
        lit("TypeOfRel", x, "Car"),
        lit("ColOfRel", x, "White"),
        lit("AtCenter", x),
        lit("ConstantSpeed", x),
    ))
    a = resolve(_fig3_base(), rules, q)
    assert a.truth and a.bindings == ({x: Const("vehicle01")},)


def test_binding_enumeration_is_sorted(rules):
    base = facts(
        lit("Vehicle", "bbb"), lit("Vehicle", "aaa"), lit("Vehicle", "ccc"),
    )
    a = resolve(base, rules, Query((lit("Vehicle", x),)))
    assert [s[x].name for s in a.bindings] == ["aaa", "bbb", "ccc"]


def test_query_over_empty_factset_is_false(rules):
    a = resolve(FactSet.of([]), rules, Query((lit("GettingCloser", "vehicle01", y),)))
    assert not a.truth and a.bindings == ()


def test_negated_conjunct_is_closed_world(rules):
    base = facts(lit("Vehicle", "v1"), lit("Vehicle", "v2"), lit("Moves", "v2"))
    a = resolve(base, rules, Query((lit("Vehicle", x), lit("Moves", x, neg=True))))
    assert [s[x].name for s in a.bindings] == ["v1"]


def test_negated_conjunct_with_free_variable_means_no_grounding(rules):
    base = facts(
        lit("Vehicle", "v1"), lit("Vehicle", "v2"),
        lit("DistanceDecreases", "v1", "v2"),
    )
    # Vehicles that are getting closer to nothing at all.
    a = resolve(base, rules, Query((lit("Vehicle", x), lit("GettingCloser", x, y, neg=True))))
    assert [s[x].name for s in a.bindings] == ["v2"]


def test_unknown_predicate_rejected(rules):
    with pytest.raises(UnknownPredicate):
        resolve(FactSet.of([]), rules, Query((lit("Flying", x),)))


def test_resolve_is_deterministic(rules):
    base = _fig3_base()
    q = Query((lit("Vehicle", x),))
    a1, a2 = resolve(base, rules, q), resolve(base, rules, q)
    assert a1.bindings == a2.bindings
    assert [str(s) for s in a1.trace.steps] == [str(s) for s in a2.trace.steps]


def test_ground_true_query_yields_one_empty_binding(rules):
    a = resolve(_fig3_base(), rules, Query((lit("Moves", "vehicle01"),)))
    assert a.truth and a.bindings == ({},)


# ---------------------------------------------------------------------------
# check_trace
# ---------------------------------------------------------------------------

def test_trace_from_saturation_checks_out(rules):
    base = facts(lit("Vehicle", "v"), lit("SpeedUp", "v"))
    sat = saturate(base, rules)
    assert check_trace(sat.trace, base, rules)


def test_trace_with_missing_premise_fails(rules):
    bogus = ProofTrace((
        TraceStep(lit("Accelerate", "v"), "accelerate",
                  (lit("Vehicle", "v"), lit("SpeedUp", "v"))),
    ))
    assert not check_trace(bogus, FactSet.of([lit("Vehicle", "v")]), rules)


def test_trace_with_wrong_rule_name_fails(rules):
    base = facts(lit("Vehicle", "v"), lit("SpeedUp", "v"))
    bogus = ProofTrace((
        TraceStep(lit("Accelerate", "v"), "no_such_rule",
                  (lit("Vehicle", "v"), lit("SpeedUp", "v"))),
    ))
    assert not check_trace(bogus, base, rules)


def test_empty_trace_is_valid(rules):
    assert check_trace(ProofTrace(), _fig3_base(), rules)


def test_trace_where_head_does_not_follow_fails(rules):
    base = facts(lit("Vehicle", "v"), lit("SpeedUp", "v"))
    bogus = ProofTrace((
        TraceStep(lit("Accelerate", "w"), "accelerate",
                  (lit("Vehicle", "v"), lit("SpeedUp", "v"))),
    ))
    assert not check_trace(bogus, base, rules)


def test_trace_step_breaking_an_equality_fails():
    rules = parse_rule_file(
        "predicates:\n  - {name: A, arity: 1}\n  - {name: B, arity: 1}\n"
        "  - {name: C, arity: 2, source: derived}\n"
        'rules:\n  - {name: r, fol: "forall x, y: A(x) & B(y) & (x != y) -> C(x, y)"}\n')
    a, b = Const("a"), Const("b")
    base = FactSet.of([Literal("A", (a,)), Literal("B", (a,)), Literal("B", (b,))])
    sat = saturate(base, rules)
    assert [str(s) for s in sat.trace.steps] == ["C(a, b) <- r(A(a), B(b))"]
    assert check_trace(sat.trace, base, rules)
    forged = ProofTrace((TraceStep(Literal("C", (a, a)), "r",
                                   (Literal("A", (a,)), Literal("B", (a,)))),))
    assert not check_trace(forged, base, rules)


def test_trace_step_with_an_equality_left_unground_fails():
    # y occurs only in the inequality, so no premise or head grounds it: it
    # ranges over the active domain {a}, where no value differs from x = a.
    rules = parse_rule_file(
        "predicates:\n  - {name: A, arity: 1}\n  - {name: C, arity: 1, source: derived}\n"
        'rules:\n  - {name: r, fol: "forall x, y: A(x) & (x != y) -> C(x)"}\n')
    a = Const("a")
    base = FactSet.of([Literal("A", (a,))])
    assert saturate(base, rules).trace.steps == ()
    step = TraceStep(Literal("C", (a,)), "r", (Literal("A", (a,)),))
    assert not check_trace(ProofTrace((step,)), base, rules)


@pytest.mark.parametrize("fol,base,derived", [
    # The forged step: y can only be a, and B(a, a) holds.
    ("A(x) & !B(x, y) -> C(x)", [("A", "a"), ("B", "a", "a")], []),
    # y = b makes B(a, y) absent; nothing holds of b, so y = a works for it.
    ("A(x) & !B(x, y) -> C(x)", [("A", "a"), ("A", "b"), ("B", "a", "a")], ["a", "b"]),
    # A constant of the rules is in the domain too: y = bb.
    ("A(x) & !B(x, y) & (y = bb) -> C(x)", [("A", "a"), ("B", "a", "a")], ["a"]),
    ("A(x) & (x = y) -> C(x)", [("A", "a")], ["a"]),
], ids=["forged", "some-value", "rule-constant", "equality"])
def test_variables_only_under_negation_range_over_the_active_domain(fol, base, derived):
    rules = parse_rule_file(
        "predicates:\n  - {name: A, arity: 1}\n  - {name: B, arity: 2}\n"
        "  - {name: C, arity: 1, source: derived}\n"
        f'rules:\n  - {{name: r, fol: "forall x, y: {fol}"}}\n')
    base = facts(*(lit(*f) for f in base))
    sat = saturate(base, rules)
    assert [s.derived for s in sat.trace.steps] == [lit("C", c) for c in derived]
    assert check_trace(sat.trace, base, rules)
    # A C(a) step checks out exactly when saturation derives C(a).
    step = TraceStep(lit("C", "a"), "r", (lit("A", "a"),))
    assert check_trace(ProofTrace((step,)), base, rules) == ("a" in derived)


# ---------------------------------------------------------------------------
# Random stratified rulesets for differential testing
# ---------------------------------------------------------------------------

def random_ruleset_and_base(rng: random.Random, max_consts=5, max_preds=6, max_facts=8,
                            equality=0.0):
    """A random stratified program plus a random ground base.  With
    probability ``equality`` a rule body also gets an equality or inequality
    over its positive atoms' variables and the constants."""
    n_preds = rng.randint(2, max_preds)
    arities = {f"P{i}": rng.randint(1, 2) for i in range(n_preds)}
    levels = {p: rng.choice((0, 0, 1, 2)) for p in arities}
    levels["P0"] = 0  # keep at least one atomic predicate for base facts
    consts = [Const(c) for c in "abcde"[: rng.randint(1, max_consts)]]
    variables = [Var(v) for v in "xyz"]

    decls = tuple(
        PredicateDecl(p, arities[p], "atomic" if levels[p] == 0 else "derived")
        for p in sorted(arities)
    )

    def atom(pred, neg):
        args = tuple(rng.choice(variables + consts) for _ in range(arities[pred]))
        return Literal(pred, args, neg)

    rule_decls = []
    for p in sorted(arities):
        if levels[p] == 0:
            continue
        for k in range(rng.randint(1, 2)):
            body = []
            for _ in range(rng.randint(1, 3)):
                q = rng.choice([r for r in arities if levels[r] <= levels[p]])
                neg = levels[q] < levels[p] and rng.random() < 0.4
                body.append(atom(q, neg))
            if equality and rng.random() < equality:
                bound = [a for l in body if not l.negated for a in l.args if isinstance(a, Var)]
                u, v = (rng.choice(bound + consts) for _ in range(2))
                body.append(Literal("=", (u, v), rng.random() < 0.5))
            rule_decls.append(RuleDecl(f"{p}_r{k}", atom(p, False), tuple(body)))

    strata = stratify(decls, tuple(rule_decls))
    rs = RuleSet(decls, (), tuple(rule_decls), strata)

    base_lits = set()
    for _ in range(rng.randint(0, max_facts)):
        p = rng.choice([q for q in arities if levels[q] == 0])
        base_lits.add(Literal(p, tuple(rng.choice(consts) for _ in range(arities[p]))))
    return rs, FactSet.of(base_lits)


def test_saturate_agrees_with_brute_force_on_random_kbs(rules):
    rng = random.Random(20240817)
    for _ in range(150):
        rs, base = random_ruleset_and_base(rng)
        sat = saturate(base, rs)
        assert sat.facts == brute_force_models(base, rs).facts
        # Naive evaluation derives the same facts by the same steps, in order.
        assert sat.trace.steps == naive_saturate(base, rs).trace.steps
        assert check_trace(sat.trace, base, rs)
        assert len(sat.trace.steps) == len(sat.facts - base.facts)


def random_query(rng: random.Random, rs: RuleSet, sat: FactSet) -> Query:
    """A random conjunctive query over ``rs``.  One to three positive
    conjuncts are mostly facts of ``sat`` with most arguments turned into x
    or y.  Up to two negated conjuncts over other predicates mostly start
    with one of the positive conjuncts' variables and may also use u and w,
    which no positive conjunct binds.  Up to two (in)equalities mostly
    compare a variable of a negated conjunct with a constant or variable."""
    consts = [*sat.constants, Const("nowhere")]
    bound, open_ = [Var("x"), Var("y")], [Var("u"), Var("w")]

    def positive():
        if not sat.facts or rng.random() < 0.3:
            d = rng.choice(rs.declarations)
            return Literal(d.name, tuple(rng.choice(bound + consts) for _ in range(d.arity)))
        f = rng.choice(sat.sorted())
        return Literal(f.pred, tuple(rng.choice(bound) if rng.random() < 0.7 else a
                                     for a in f.args))

    conjuncts = [positive() for _ in range(rng.randint(1, 3))]
    used = sorted({a for c in conjuncts for a in c.args if isinstance(a, Var)},
                  key=lambda v: v.name)
    others = [d for d in rs.declarations if d.name not in {c.pred for c in conjuncts}]
    read = []  # variables the negated conjuncts read
    for _ in range(rng.randint(0, 2)):
        d = rng.choice(others or rs.declarations)
        args = [rng.choice(used + open_ + open_ + consts) for _ in range(d.arity)]
        if used and rng.random() < 0.7:
            args[0] = rng.choice(used)
        conjuncts.append(Literal(d.name, tuple(args), True))
        read += [a for a in args if isinstance(a, Var)]
    for _ in range(rng.randint(0, 2)):
        left = rng.choice(read if read and rng.random() < 0.7 else used + open_)
        right = rng.choice(consts if rng.random() < 0.5 else used + open_)
        conjuncts.append(Literal("=", (left, right), rng.random() < 0.5))
    rng.shuffle(conjuncts)
    return Query(tuple(conjuncts))


def leftover_binding_query(rng: random.Random, sat: FactSet) -> Query | None:
    """``P(.., x, ..) & !Q(x, u) & u = c`` (or ``u != c``) for facts
    P(.., a, ..) and Q(a, c) of ``sat``.  The negated conjunct matches
    Q(a, c) on the candidate x = a; the equality must still read u as
    unbound on every later candidate."""
    x, u = Var("x"), Var("u")
    facts = sat.sorted()
    if not facts:
        return None
    f = rng.choice(facts)
    i = rng.randrange(len(f.args))
    values = {g.args[i] for g in sat.index[f.pred][None]}
    pairs = [g for g in facts if len(g.args) == 2 and g.args[0] in values]
    if not pairs:
        return None
    g = rng.choice(pairs)
    return Query((Literal(f.pred, tuple(x if j == i else a for j, a in enumerate(f.args))),
                  Literal(g.pred, (x, u), True),
                  Literal("=", (u, g.args[1]), rng.random() < 0.5)))


def test_answers_agree_with_brute_force_queries_on_random_kbs():
    rng = random.Random(424242)
    seen = dict.fromkeys(("true", "false", "repeated open", "shared open",
                          "= on bound", "= on open", "leftover probe"), 0)
    n = 0
    for _ in range(150):
        rs, base = random_ruleset_and_base(rng, max_facts=20)
        sat, model = saturate(base, rs), brute_force_models(base, rs)
        queries = [random_query(rng, rs, sat) for _ in range(4)]
        probes = [q for q in (leftover_binding_query(rng, sat) for _ in range(2)) if q]
        seen["leftover probe"] += len(probes)
        for q in queries + probes:
            got, want = answer_query(sat, rs, q), brute_force_answer(model, q)
            assert (got.truth, got.bindings) == (want.truth, want.bindings), q
            n += 1
            bound = {a for c in q.conjuncts if not c.negated and c.pred != "="
                     for a in c.args if isinstance(a, Var)}
            negated = [[a for a in c.args if isinstance(a, Var) and a not in bound]
                       for c in q.conjuncts if c.negated and c.pred != "="]
            equated = {a for c in q.conjuncts if c.pred == "=" for a in c.args}
            seen["true" if got.truth else "false"] += 1
            seen["repeated open"] += any(len(v) > len(set(v)) for v in negated)
            seen["shared open"] += any(set(a) & set(b) for i, a in enumerate(negated)
                                       for b in negated[i + 1:])
            seen["= on bound"] += bool(equated & bound)
            seen["= on open"] += bool(equated & {Var("u"), Var("w")})
    assert n >= 300
    assert min(seen.values()) >= 10, seen


def test_random_programs_with_equalities_check_out():
    rng = random.Random(5150)
    checked = 0
    for _ in range(150):
        rs, base = random_ruleset_and_base(rng, equality=0.6)
        sat = saturate(base, rs)
        assert sat.facts == brute_force_models(base, rs).facts
        assert sat.trace.steps == naive_saturate(base, rs).trace.steps
        assert check_trace(sat.trace, base, rs)
        used = {r.name for r in rs.rules if any(l.pred == "=" for l in r.body)}
        checked += sum(s.rule in used for s in sat.trace.steps)
    assert checked > 50


def test_single_fact_sweep_matches_brute_force(rules):
    for d in rules.atomic_predicates():
        args = tuple(Const(f"c{k}") for k in range(d.arity))
        base = facts(Literal(d.name, args))
        sat = saturate(base, rules)
        assert sat.facts == brute_force_models(base, rules).facts
        assert sat.trace.steps == naive_saturate(base, rules).trace.steps


def test_monotone_within_stratum():
    rng = random.Random(7)
    grew = 0
    for _ in range(60):
        rs, base = random_ruleset_and_base(rng)
        if not base.facts:
            continue
        before = saturate(base, rs).facts
        zero_preds = [d.name for d in rs.declarations if rs.strata[d.name] == 0]
        pred = rng.choice(zero_preds)
        extra = Literal(pred, tuple(Const("a") for _ in range(rs.arity(pred))))
        after = saturate(FactSet.of(base.facts | {extra}), rs).facts
        # Facts at or below the added fact's stratum survive.
        kept = {f for f in before if rs.strata[f.pred] <= rs.strata[extra.pred]}
        assert kept <= after
        # Purely positive programs are monotone outright.
        if not any(l.negated for r in rs.rules for l in r.body):
            assert before <= after
            grew += 1
    assert grew > 0


def test_brute_force_guards_size(rules):
    base = facts(*[lit("Vehicle", f"v{i:02d}") for i in range(30)])
    with pytest.raises(OracleTooLarge):
        brute_force_models(base, rules, max_atoms=100)


def test_brute_force_of_empty_base_is_empty(rules):
    assert brute_force_models(FactSet.of([]), rules).facts == frozenset()


def test_exactly_the_approaching_object_binds(rules):
    # Parked vehicle, one pedestrian walking toward it: the only thing the
    # vehicle is getting closer to is that pedestrian.
    from scenelogic.facts import CompilerConfig, compile_window
    from scenelogic.scenarios import ScenarioSpec, generate_scenario
    from scenelogic.scene import windows
    from scenelogic.tracking import link_window

    sc = generate_scenario(ScenarioSpec("approach", seed=6))
    w = windows(sc.sequence, 10)[0]
    wf = compile_window(w, link_window(w, "oracle"), CompilerConfig(), rules)
    a = resolve(wf.facts, rules, Query((lit("GettingCloser", "vehicle01", y),)))
    assert a.truth
    assert [str(s[y]) for s in a.bindings] == ["pedestrian01"]


def test_every_derived_fact_has_a_checkable_trace(rules):
    from scenelogic.facts import CompilerConfig, compile_window
    from scenelogic.scenarios import KINDS, ScenarioSpec, generate_scenario
    from scenelogic.scene import windows
    from scenelogic.tracking import link_window

    for kind in KINDS:
        sc = generate_scenario(ScenarioSpec(kind, seed=31))
        w = windows(sc.sequence, 10)[0]
        wf = compile_window(w, link_window(w, "oracle"), CompilerConfig(), rules)
        sat = saturate(wf.facts, rules)
        assert {s.derived for s in sat.trace.steps} == sat.facts - wf.facts.facts
        assert check_trace(sat.trace, wf.facts, rules), kind


# ---------------------------------------------------------------------------
# Resolution-refutation mode
# ---------------------------------------------------------------------------

def test_resolution_mode_matches_chaining_on_ground_queries(rules):
    base = _fig3_base()
    for query in (
        Query((lit("ConstantSpeed", "vehicle01"),)),
        Query((lit("Accelerate", "vehicle01"),)),
        Query((lit("Moves", "vehicle01"),)),
        Query((lit("Vehicle", "vehicle01"), lit("SpeedUp", "vehicle01", neg=True))),
    ):
        chain = resolve(base, rules, query)
        refut = resolve_by_refutation(base, rules, query)
        assert chain.truth == refut.truth


def test_resolution_mode_differential_on_random_kbs():
    rng = random.Random(99)
    checked = 0
    for _ in range(40):
        rs, base = random_ruleset_and_base(rng, max_consts=3, max_preds=4)
        sat = saturate(base, rs)
        for d in rs.declarations:
            for combo_i in range(min(3, 3 ** d.arity)):
                args = tuple(Const(rng.choice("abc")) for _ in range(d.arity))
                q = Query((Literal(d.name, args),))
                expected = Literal(d.name, args) in sat
                got = resolve_by_refutation(base, rs, q).truth
                assert got == expected, f"{d.name}{args} expected {expected}"
                checked += 1
    assert checked > 100


def test_horn_clause_of_a_rule():
    # The head, and each body literal negated; duplicates merge.
    rule = RuleDecl("r", Literal("Stand", (x,)), (
        Literal("Pedestrian", (x,)), Literal("Moves", (x,), True), Literal("Pedestrian", (x,))))
    assert horn_clause(rule) == frozenset({
        Literal("Stand", (x,)), Literal("Pedestrian", (x,), True), Literal("Moves", (x,))})
    # A rule whose head is in its body is a tautology and has no clause.
    assert horn_clause(RuleDecl("t", Literal("Moves", (x,)), (Literal("Moves", (x,)),))) is None


def test_resolution_mode_rejects_open_queries(rules):
    with pytest.raises(NonGroundQuery):
        resolve_by_refutation(_fig3_base(), rules, Query((lit("Vehicle", x),)))
