"""The compiled semi-naive engine against naive evaluation: identical
saturated sets and identical trace steps, in order, on generated scenes and
on recursive programs.  Random programs are checked in test_inference.py."""

import pytest

from scenelogic.evaluation import process_sequence
from scenelogic.fol import Const, Literal, Var
from scenelogic.inference import FactSet, saturate
from scenelogic.logicpad import PredicateDecl, RuleDecl, RuleSet, stratify
from scenelogic.scenarios import KINDS, ScenarioSpec, generate_scenario

from oracles import naive_saturate

SEEDS = (5, 77)
# Kinds without ego motion: the others cannot make 20-frame sequences.
STREAM_KINDS = ("crossing", "approach", "collide", "appear", "disappear",
                "accelerate", "static")


def _assert_same_as_naive(sat: FactSet, base: FactSet, rules, label):
    ref = naive_saturate(base, rules)
    assert sat.facts == ref.facts, label
    assert sat.trace.steps == ref.trace.steps, label


def _check_scene(spec: ScenarioSpec, track_mode: str, rules) -> int:
    per = process_sequence(generate_scenario(spec).sequence, rules, track_mode)
    for wid, (wf, sat) in per.items():
        _assert_same_as_naive(sat, wf.facts, rules, (spec, wid))
    return len(per)


@pytest.mark.parametrize("seed", SEEDS)
def test_suite_windows_match_naive_evaluation(rules, seed):
    # As `scenelogic gen --kind all --count 2 --seed <seed>`.
    specs = [ScenarioSpec(k, 1000 * seed + j) for k in KINDS for j in range(2)]
    assert sum(_check_scene(s, "oracle", rules) for s in specs) == len(specs)


@pytest.mark.parametrize("seed", SEEDS)
def test_stream_windows_match_naive_evaluation(rules, seed):
    specs = [ScenarioSpec(k, seed, n_frames=20) for k in STREAM_KINDS]
    assert sum(_check_scene(s, "inferred", rules) for s in specs) == 11 * len(specs)


@pytest.mark.parametrize("seed", SEEDS)
def test_dense_windows_match_naive_evaluation(rules, seed):
    for kind in ("crossing", "collide", "static"):
        spec = ScenarioSpec(kind, seed, object_count=60)
        assert _check_scene(spec, "inferred", rules) == 1


# ---------------------------------------------------------------------------
# Recursion: semi-naive rounds are naive rounds
# ---------------------------------------------------------------------------

def _closure_program():
    x, y, z = Var("x"), Var("y"), Var("z")
    decls = (PredicateDecl("Edge", 2, "atomic"), PredicateDecl("Path", 2, "derived"),
             PredicateDecl("OneWay", 2, "derived"))

    def rule(name, body, head):
        return RuleDecl(name, head, tuple(body))

    rules = (
        rule("step", [Literal("Edge", (x, y))], Literal("Path", (x, y))),
        # Both positive atoms read the recursive predicate.
        rule("join", [Literal("Path", (x, z)), Literal("Path", (z, y))], Literal("Path", (x, y))),
        # A later stratum: pairs joined one way only.
        rule("one_way", [Literal("Path", (x, y)), Literal("Path", (y, x), True)],
             Literal("OneWay", (x, y))),
    )
    return RuleSet(decls, (), rules, stratify(decls, rules))


def _chain(n: int) -> FactSet:
    return FactSet.of([Literal("Edge", (Const(f"n{i:02d}"), Const(f"n{i + 1:02d}")))
                       for i in range(n)])


def test_transitive_closure_matches_naive_rounds_and_steps():
    rs = _closure_program()
    for n in (1, 2, 5, 9):
        sat = saturate(_chain(n), rs)
        _assert_same_as_naive(sat, _chain(n), rs, n)
        assert len([f for f in sat.facts if f.pred == "Path"]) == n * (n + 1) // 2


def test_linear_recursion_runs_as_many_rounds_as_the_chain_is_long():
    # Left-linear closure adds one edge per round: 70 rounds in Path's
    # stratum, with no round limit to stop it.
    x, y, z = Var("x"), Var("y"), Var("z")
    decls = (PredicateDecl("Edge", 2, "atomic"), PredicateDecl("Path", 2, "derived"))
    rules = (RuleDecl("step", Literal("Path", (x, y)), (Literal("Edge", (x, y)),)),
             RuleDecl("extend", Literal("Path", (x, z)),
                      (Literal("Edge", (x, y)), Literal("Path", (y, z)))))
    rs = RuleSet(decls, (), rules, stratify(decls, rules))
    base = _chain(70)
    sat = saturate(base, rs)
    _assert_same_as_naive(sat, base, rs, 70)
    assert len([f for f in sat.facts if f.pred == "Path"]) == 2485
