"""Saturation in whole-rule rounds against naive evaluation: identical
saturated sets and identical trace steps, in order, on generated scenes and
on recursive programs; and which rules each round joins.  Random programs
are checked in test_inference.py."""

from importlib import resources

import pytest

from scenelogic import inference
from scenelogic.cli import main as cli_main
from scenelogic.evaluation import process_sequence, process_window
from scenelogic.fol import Const, Literal, Var
from scenelogic.inference import FactSet, saturate
from scenelogic.logicpad import PredicateDecl, RuleDecl, RuleSet, load_rule_file, stratify
from scenelogic.questions import answer_to_text, parse_fol_query
from scenelogic.scenarios import KINDS, ScenarioSpec, generate_scenario
from scenelogic.scene import save_annotation, windows

from oracles import brute_force_answer, brute_force_models, naive_saturate

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
# Recursion: whole-rule rounds are naive rounds
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


def test_recursive_rule_file_answers_as_grounding_does(tmp_path, capsys):
    # The default rules plus a closure over GettingCloser whose second rule
    # reads its own head.
    text = resources.files("scenelogic").joinpath("rules/default.yaml").read_text("utf-8")
    for anchor, lines in {
        "\nfunctions:": "  - {name: Linked, arity: 2, source: derived, "
                        "doc: joined by a chain of closing pairs}\n",
        "\n# Words the question grammar": (
            '  - {name: linked, fol: "forall x, y: (GettingCloser(x, y)) -> Linked(x, y)"}\n'
            '  - {name: linked_on, fol: "forall x, y, z: '
            '(Linked(x, y) & GettingCloser(y, z)) -> Linked(x, z)"}\n'),
    }.items():
        assert text.count(anchor) == 1
        text = text.replace(anchor, lines + anchor)
    path, rule_path = tmp_path / "annotation.json", tmp_path / "linked.yaml"
    rule_path.write_text(text + '  Linked: "{0} is linked to {1} by closing pairs."\n')
    seq = generate_scenario(ScenarioSpec("collide", seed=3)).sequence
    save_annotation(seq, path)
    assert cli_main(["query", str(path), "--rules", str(rule_path), "--fol",
                     "--q", "Linked(x, y)"]) == 0
    out = capsys.readouterr().out

    rs = load_rule_file(str(rule_path))
    wf, _ = process_window(windows(seq)[0], rs)
    q = parse_fol_query("Linked(x, y)", rs)
    want = brute_force_answer(brute_force_models(wf.facts, rs), q)
    closing = [f for f in wf.facts.facts if f.pred == "DistanceDecreases"]
    assert len(want.bindings) > len(closing)  # the recursive rule adds pairs
    assert out.startswith(answer_to_text(want, q)[:-1] + ". Evidence: ")
    assert " <- linked_on(" in out


# ---------------------------------------------------------------------------
# Which rules a round joins
# ---------------------------------------------------------------------------

def _started_joins(monkeypatch) -> list:
    """Collects the join steps of every join started from its first atom."""
    started, join = [], inference._join

    def counting(steps, i, *rest):
        if i == 0:
            started.append(steps)
        return join(steps, i, *rest)

    monkeypatch.setattr(inference, "_join", counting)
    return started


def test_each_default_rule_is_joined_once_per_window(rules, monkeypatch):
    # No default rule reads a derived predicate, so no rule fires after a
    # stratum's first round.
    specs = [(ScenarioSpec(k, 5000), "oracle") for k in KINDS]
    specs += [(ScenarioSpec(k, 5, n_frames=12), "inferred") for k in STREAM_KINDS]
    bases = [wf.facts for spec, mode in specs
             for wf, _ in process_sequence(generate_scenario(spec).sequence, rules,
                                           mode).values()]
    plans = [plan.steps for stratum in inference._plans(rules) for plan in stratum]
    assert len(plans) == 9
    started = _started_joins(monkeypatch)
    for base in bases:
        started.clear()
        sat = saturate(base, rules)
        assert len(sat) > len(base)
        assert list(map(id, started)) == list(map(id, plans))


def test_a_rule_whose_body_gains_no_facts_is_joined_once(monkeypatch):
    rs = _closure_program()
    step, join = (next(p.steps for st in inference._plans(rs) for p in st if p.name == name)
                  for name in ("step", "join"))
    started = _started_joins(monkeypatch)
    for n in (1, 5, 9, 30):
        started.clear()
        saturate(_chain(n), rs)
        assert sum(s is step for s in started) == 1
        # join runs in round one and in each round after one in which Path
        # gained facts; the longest path doubles each round.
        assert sum(s is join for s in started) == (n - 1).bit_length() + 2
