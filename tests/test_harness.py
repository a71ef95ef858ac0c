"""Scenario generation, scoring, the pipeline, and the CLI."""

import json
import os
import shutil
from importlib import resources

import pytest

from scenelogic.cli import main as cli_main
from scenelogic.evaluation import (
    LengthMismatch,
    StageError,
    evaluate,
    process_sequence,
    run_pipeline,
    run_scenario_dir,
)
from scenelogic.fol import Const, Literal
from scenelogic.inference import answer_query
from scenelogic.logicpad import parse_rule_file
from scenelogic.questions import answer_to_text, parse_fol_query
from scenelogic.scenarios import (
    KINDS,
    InvalidSpec,
    QAItem,
    ScenarioSpec,
    generate_scenario,
    standard_suite,
    write_scenario,
)
from scenelogic.scene import load_annotation, save_annotation, windows
from scenelogic.tracking import link_window


def lit(pred, *names):
    return Literal(pred, tuple(Const(n) for n in names))


# ---------------------------------------------------------------------------
# Generator
# ---------------------------------------------------------------------------

def test_identical_seeds_give_byte_identical_output(tmp_path):
    for run in ("a", "b"):
        sc = generate_scenario(ScenarioSpec("collide", seed=42))
        write_scenario(sc, tmp_path / run)
    for name in ("annotation.json", "qa.json", "gold_facts.txt"):
        assert (tmp_path / "a" / name).read_bytes() == \
            (tmp_path / "b" / name).read_bytes(), name


def test_different_seeds_differ(tmp_path):
    a = generate_scenario(ScenarioSpec("collide", seed=1))
    b = generate_scenario(ScenarioSpec("collide", seed=2))
    assert a.sequence != b.sequence


def test_constant_speed_gold(rules):
    sc = generate_scenario(ScenarioSpec("constant_speed", seed=9))
    assert lit("ConstantSpeed", "vehicle01") in sc.gold_derived
    assert lit("SpeedUp", "vehicle01") not in sc.gold_atomic
    assert lit("SpeedDown", "vehicle01") not in sc.gold_atomic


def test_collide_gold(rules):
    sc = generate_scenario(ScenarioSpec("collide", seed=9))
    closing = [f for f in sc.gold_atomic if f.pred == "DistanceDecreasesToZero"]
    assert closing
    assert any(f.pred == "Collide" for f in sc.gold_derived)


def test_static_scene_has_no_motion_facts(rules):
    sc = generate_scenario(ScenarioSpec("static", seed=9))
    assert not any(f.pred == "Moves" for f in sc.gold_atomic)
    assert lit("Stopped", "vehicle01") in sc.gold_derived


def test_appear_and_disappear_gold(rules):
    appears = generate_scenario(ScenarioSpec("appear", seed=4))
    assert any(f.pred == "Appears" for f in appears.gold_atomic)
    gone = generate_scenario(ScenarioSpec("disappear", seed=4))
    assert any(f.pred == "Disappears" for f in gone.gold_atomic)


def test_each_scenario_carries_enough_questions():
    for kind in KINDS:
        sc = generate_scenario(ScenarioSpec(kind, seed=0))
        assert len(sc.qa) >= 3
        assert {q.category for q in sc.qa} == {"U1", "U2", "U3", "U4", "B1", "B2"}


def test_questions_reference_well_observed_objects():
    # Objects named in questions must be present at least a third of the window.
    for kind in ("appear", "disappear", "crossing"):
        sc = generate_scenario(ScenarioSpec(kind, seed=1))
        visible = {}
        for frame in sc.sequence.frames:
            for o in frame.objects:
                visible[o.gt_instance] = visible.get(o.gt_instance, 0) + 1
        n = len(sc.sequence.frames)
        assert all(count >= n / 3 for count in visible.values())


def test_invalid_specs_rejected():
    with pytest.raises(InvalidSpec):
        ScenarioSpec("warp_drive", seed=0)
    with pytest.raises(InvalidSpec):
        ScenarioSpec("static", seed=0, n_frames=2)


def test_standard_suite_covers_all_kinds():
    suite = standard_suite(per_kind=2)
    assert len(suite) == 20
    assert {s.kind for s in suite} == set(KINDS)
    assert len({(s.kind, s.seed) for s in suite}) == 20


# ---------------------------------------------------------------------------
# evaluate
# ---------------------------------------------------------------------------

def _qa(golds):
    return [QAItem(f"q{i}", "U1", g) for i, g in enumerate(golds)]


def test_all_correct_scores_perfect():
    qa = _qa([True, False, True, False])
    report = evaluate(qa, [True, False, True, False])
    assert report.aggregate.accuracy == 1.0
    assert report.aggregate.f1 == 1.0


def test_all_inverted_scores_zero():
    qa = _qa([True, False, True, False])
    report = evaluate(qa, [False, True, False, True])
    assert report.aggregate.accuracy == 0.0


def test_known_confusion_vector_gives_f1_point_eight():
    golds = [True] * 6 + [False] * 2 + [True] + [False]
    answers = [True] * 6 + [True] * 2 + [False] + [False]
    report = evaluate(_qa(golds), answers)
    agg = report.aggregate
    assert (agg.tp, agg.fp, agg.fn, agg.tn) == (6, 2, 1, 1)
    assert agg.f1 == pytest.approx(0.8)


def test_per_category_breakdown():
    qa = [QAItem("a", "U1", True), QAItem("b", "U2", False)]
    report = evaluate(qa, [True, True])
    assert report.per_category["U1"].accuracy == 1.0
    assert report.per_category["U2"].accuracy == 0.0


def test_length_mismatch():
    with pytest.raises(LengthMismatch):
        evaluate(_qa([True]), [True, False])


# ---------------------------------------------------------------------------
# run_pipeline
# ---------------------------------------------------------------------------

def test_pipeline_scores_oracle_perfectly(rules):
    sc = generate_scenario(ScenarioSpec("approach", seed=12))
    result = run_pipeline(sc.sequence, rules, sc.qa, track_mode="oracle")
    assert result.report.aggregate.accuracy == 1.0
    assert result.report.aggregate.f1 == 1.0


def test_pipeline_inferred_matches_oracle(rules):
    sc = generate_scenario(ScenarioSpec("crossing", seed=12))
    oracle = run_pipeline(sc.sequence, rules, sc.qa, track_mode="oracle")
    inferred = run_pipeline(sc.sequence, rules, sc.qa, track_mode="inferred")
    assert oracle.answers == inferred.answers


def test_pipeline_context_export_modes(rules, tmp_path):
    sc = generate_scenario(ScenarioSpec("stop", seed=3))
    result = run_pipeline(sc.sequence, rules, sc.qa, export_context="c2")
    assert len(result.payloads) == len(sc.qa)
    assert all(p.mode == "with_inference" for _, p in result.payloads)
    c3 = run_pipeline(sc.sequence, rules, sc.qa, export_context="c3")
    assert all(p.mode == "facts_only" for _, p in c3.payloads)
    assert not run_pipeline(sc.sequence, rules, sc.qa).payloads
    for unknown in ("C2", "c4", ""):
        with pytest.raises(StageError) as e:
            run_pipeline(sc.sequence, rules, sc.qa, export_context=unknown)
        assert e.value.stage == "config"
        assert e.value.message == f"export_context must be 'c2', 'c3' or None, not {unknown!r}"
    assert cli_main(["gen", "--kind", "stop", "--seed", "3", "--out", str(tmp_path)]) == 0
    with pytest.raises(StageError) as e:
        run_scenario_dir(tmp_path, rules, export_context="c4")
    assert e.value.stage == "config"


def test_scenario_dir_missing_annotation_raises_stage_error(tmp_path, rules):
    with pytest.raises(StageError) as e:
        run_scenario_dir(tmp_path, rules)
    assert e.value.stage == "ingest"


def test_pipeline_tags_undeclared_question_predicates_question(rules):
    without_walk = parse_rule_file(
        resources.files("scenelogic").joinpath("rules/default.yaml").read_text("utf-8")
        .replace("Walk", "Stroll"))
    sc = generate_scenario(ScenarioSpec("crossing", seed=3))
    item = QAItem("Is the pedestrian walking?", "U2", True)
    run_pipeline(sc.sequence, rules, [item])
    with pytest.raises(StageError) as e:
        run_pipeline(sc.sequence, without_walk, [item])
    assert e.value.stage == "question"
    assert e.value.message.endswith("query uses undeclared predicate 'Walk'")


# ---------------------------------------------------------------------------
# CLI
# ---------------------------------------------------------------------------

def test_cli_gen_eval_round_trip(tmp_path, capsys):
    out = tmp_path / "suite"
    assert cli_main(["gen", "--kind", "collide", "--seed", "3", "--out", str(out)]) == 0
    assert cli_main(["eval", str(out), "--report", str(tmp_path / "r.json")]) == 0
    report = json.loads((tmp_path / "r.json").read_text())
    assert report["aggregate"]["accuracy"] == 1.0


@pytest.mark.parametrize("via_config", [False, True])
def test_cli_eval_scores_the_requested_window_length(tmp_path, capsys, via_config):
    out = tmp_path / "suite"
    assert cli_main(["gen", "--kind", "collide", "--seed", "3", "--out", str(out)]) == 0
    flags = ["--window", "5"]
    if via_config:
        (tmp_path / "cfg.yaml").write_text("window: 5\n")
        flags = ["--config", str(tmp_path / "cfg.yaml")]
    capsys.readouterr()
    assert cli_main(["eval", str(out), *flags]) == 0
    report = json.loads(capsys.readouterr().out)
    assert report["config"]["window"] == 5
    sc = generate_scenario(ScenarioSpec("collide", 3))
    five = run_pipeline(sc.sequence, None, sc.qa, n=5).report
    ten = run_pipeline(sc.sequence, None, sc.qa).report
    assert five.aggregate != ten.aggregate
    assert report["aggregate"] == json.loads(five.to_json())["aggregate"]


def test_cli_query_answers(tmp_path, capsys):
    out = tmp_path / "suite"
    cli_main(["gen", "--kind", "static", "--seed", "3", "--out", str(out)])
    ann = out / "static_0003" / "annotation.json"
    capsys.readouterr()
    assert cli_main(["query", str(ann), "--q", "Is there a pedestrian?"]) == 0
    assert capsys.readouterr().out.startswith("Yes: pedestrian01")
    assert cli_main(["query", str(ann), "--q",
                     "Vehicle(x) & !Moves(x)", "--fol"]) == 0
    assert "vehicle01" in capsys.readouterr().out


def test_cli_dump_facts(tmp_path, capsys):
    out = tmp_path / "suite"
    cli_main(["gen", "--kind", "stop", "--seed", "3", "--out", str(out)])
    ann = out / "stop_0003" / "annotation.json"
    capsys.readouterr()
    assert cli_main(["ingest", str(ann), "--dump-facts"]) == 0
    text = capsys.readouterr().out
    assert "Vehicle(vehicle01)" in text
    assert '"evidence"' in text


@pytest.mark.parametrize("mode", ["oracle", "inferred"])
def test_entry_points_report_the_same_tracks_for_a_window(tmp_path, capsys, rules, mode):
    """``ingest --dump-tracks``, ``query``, ``process_sequence`` and
    ``link_window`` see one set of tracks for window K, and ``query`` prints
    what ``answer_query`` gives on ``process_sequence``'s window K."""
    k = 6
    sc = generate_scenario(ScenarioSpec("crossing", seed=4, n_frames=20, object_count=4))
    path = tmp_path / "annotation.json"
    save_annotation(sc.sequence, path)
    flags = ["--track-mode", mode]

    def rows(tracks):
        return {t.instance_id: {str(pos): {"centroid_px": list(o.centroid_px),
                                           "depth_m": o.depth_m}
                                for pos, o in t.frames_sorted()}
                for t in tracks}

    assert cli_main(["ingest", str(path), "--dump-tracks", *flags]) == 0
    out, dumps, at = capsys.readouterr().out, [], 0
    while out[at:].strip():
        doc, at = json.JSONDecoder().raw_decode(out, at)
        dumps.append(doc)
        at += 1
    dump = dumps[k]
    assert dump["window_id"] == k
    dumped = {t["instance_id"]: t["frames"] for t in dump["tracks"]}

    wf, sat = process_sequence(load_annotation(path), rules, mode)[k]
    linked = link_window(windows(load_annotation(path))[k], mode)
    assert rows(wf.tracks) == rows(linked) == dumped

    assert cli_main(["query", str(path), "--window-id", str(k), "--fol",
                     "--q", "Vehicle(x)", *flags]) == 0
    printed = capsys.readouterr().out
    q = parse_fol_query("Vehicle(x)", rules)
    ans = answer_query(sat, rules, q)
    assert printed.splitlines() == [answer_to_text(ans, q), *(f"  {s}" for s in ans.trace.steps)]
    answer = printed.splitlines()[0]
    assert answer.startswith("Yes: ")
    named = answer[len("Yes: "):].split(" satisf")[0].replace(" and ", ", ").split(", ")
    vehicles = [t["instance_id"] for t in dump["tracks"] if t["category"] == "Vehicle"]
    assert sorted(named) == sorted(vehicles) and len(vehicles) == 2


def test_cli_missing_file_exit_code(capsys):
    assert cli_main(["ingest", "/no/such/file.json"]) == 3
    assert cli_main(["query", "/no/such/file.json", "--q", "x"]) == 3


def _nan_depth(sdir):
    path = sdir / "annotation.json"
    doc = json.loads(path.read_text())
    doc["frames"][4]["objects"][0]["depth_m"] = float("nan")
    path.write_text(json.dumps(doc))


@pytest.mark.parametrize("break_suite,flags,code,message", [
    (lambda sdir: shutil.rmtree(sdir.parent), [], 3, "ingest: [Errno 2] No such file"),
    (_nan_depth, [], 3, "ingest: depth, centroid, bbox and flow must be finite"),
    (lambda sdir: (sdir / "qa.json").unlink(), [], 3, "ingest: [Errno 2] No such file"),
    (lambda sdir: None, ["--report", "{tmp}/missing/r.json"], 8, "eval: [Errno 2] No such file"),
], ids=["missing-dir", "nan-depth", "missing-qa", "unwritable-report"])
def test_cli_eval_exits_at_the_failing_stage(tmp_path, capsys, break_suite, flags, code,
                                              message):
    out = tmp_path / "suite"
    assert cli_main(["gen", "--kind", "static", "--seed", "3", "--out", str(out)]) == 0
    break_suite(out / "static_0003")
    flags = [f.format(tmp=tmp_path) for f in flags]
    capsys.readouterr()
    assert cli_main(["eval", str(out), *flags]) == code
    err = capsys.readouterr().err
    assert err.startswith(message) and err.count("\n") == 1


def _set_item_2(key, value):
    def edit(item):
        item[key] = value
    return edit


@pytest.mark.parametrize("edit,message", [
    (_set_item_2("gold", "false"), "gold must be true or false, got 'false'"),
    (_set_item_2("gold", "no"), "gold must be true or false, got 'no'"),
    (_set_item_2("gold", 0), "gold must be true or false, got 0"),
    (_set_item_2("window_id", "0"), "window_id must be an integer, got '0'"),
    (_set_item_2("window_id", 0.9), "window_id must be an integer, got 0.9"),
    (_set_item_2("window_id", False), "window_id must be an integer, got False"),
    (lambda item: item.pop("question"), "missing key 'question'"),
    (_set_item_2("question", ["Is it?"]), "question must be a string, got ['Is it?']"),
    (_set_item_2("category", None), "category must be a string, got None"),
], ids=["gold-false-string", "gold-no", "gold-zero", "window-string", "window-float",
        "window-bool", "missing-question", "question-list", "category-null"])
def test_cli_eval_rejects_qa_items_of_the_wrong_type(tmp_path, capsys, edit, message):
    out = tmp_path / "suite"
    assert cli_main(["gen", "--kind", "crossing", "--seed", "3", "--out", str(out)]) == 0
    qa = out / "crossing_0003" / "qa.json"
    doc = json.loads(qa.read_text())
    edit(doc["items"][2])
    qa.write_text(json.dumps(doc))
    capsys.readouterr()
    assert cli_main(["eval", str(out)]) == 3
    assert capsys.readouterr().err == f"ingest: {qa} items[2]: {message}\n"


def test_qa_items_without_window_id_read_window_0(tmp_path, rules):
    out = tmp_path / "suite"
    assert cli_main(["gen", "--kind", "crossing", "--seed", "3", "--out", str(out)]) == 0
    qa = out / "crossing_0003" / "qa.json"
    doc = json.loads(qa.read_text())
    for item in doc["items"]:
        del item["window_id"]
    qa.write_text(json.dumps(doc))
    assert run_scenario_dir(out, rules).report.aggregate.accuracy == 1.0


def test_cli_eval_rejects_a_qa_item_that_is_not_an_object(tmp_path, capsys):
    out = tmp_path / "suite"
    assert cli_main(["gen", "--kind", "crossing", "--seed", "3", "--out", str(out)]) == 0
    qa = out / "crossing_0003" / "qa.json"
    doc = json.loads(qa.read_text())
    doc["items"][1] = "Is it?"
    qa.write_text(json.dumps(doc))
    capsys.readouterr()
    assert cli_main(["eval", str(out)]) == 3
    assert capsys.readouterr().err == f"ingest: {qa} items[1] must be an object, got 'Is it?'\n"


@pytest.mark.parametrize("doc,message", [
    ({}, "{qa}: missing key 'items'"),
    ([], "{qa} must be an object with key 'items', got []"),
    ({"items": {}}, "{qa}: items must be an array, got {{}}"),
], ids=["empty-object", "top-level-array", "items-object"])
def test_cli_eval_rejects_a_qa_file_without_an_items_array(tmp_path, capsys, doc, message):
    out = tmp_path / "suite"
    assert cli_main(["gen", "--kind", "crossing", "--seed", "3", "--out", str(out)]) == 0
    qa = out / "crossing_0003" / "qa.json"
    qa.write_text(json.dumps(doc))
    capsys.readouterr()
    assert cli_main(["eval", str(out)]) == 3
    assert capsys.readouterr().err == f"ingest: {message.format(qa=qa)}\n"


def test_cli_eval_export_without_templates_exits_at_config(tmp_path, capsys):
    out = tmp_path / "suite"
    assert cli_main(["gen", "--kind", "static", "--seed", "3", "--out", str(out)]) == 0
    default = resources.files("scenelogic").joinpath("rules/default.yaml").read_text("utf-8")
    rules = tmp_path / "untemplated.yaml"
    rules.write_text(default[:default.index("\ntemplates:")] + "\n")
    capsys.readouterr()
    assert cli_main(["eval", str(out), "--rules", str(rules), "--export-context", "c2"]) == 2
    err = capsys.readouterr().err
    assert err.startswith("config: no sentence template for predicate ") and err.count("\n") == 1
    assert cli_main(["eval", str(out), "--rules", str(rules)]) == 0


def test_cli_gen_unknown_kind_exits_at_gen(tmp_path, capsys):
    assert cli_main(["gen", "--kind", "nosuch", "--out", str(tmp_path)]) == 9
    assert capsys.readouterr().err.startswith("gen: unknown kind 'nosuch'")


@pytest.mark.parametrize("count", ["0", "-1"])
def test_cli_gen_count_below_one_exits_at_gen(tmp_path, capsys, count):
    out = tmp_path / "g"
    assert cli_main(["gen", "--kind", "all", "--count", count, "--out", str(out)]) == 9
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"gen: --count must be at least 1, got {count}\n"
    assert not out.exists()


def test_cli_nan_threshold_fails_at_config_instead_of_answering(tmp_path, capsys):
    out = tmp_path / "suite"
    cli_main(["gen", "--kind", "crossing", "--seed", "3", "--out", str(out)])
    ann = out / "crossing_0003" / "annotation.json"
    question = ["--q", "Is the pedestrian moving?"]
    capsys.readouterr()
    assert cli_main(["query", str(ann), *question]) == 0
    assert capsys.readouterr().out.startswith("Yes: pedestrian01 and pedestrian02")
    cfg = tmp_path / "cfg.yaml"
    cfg.write_text("compiler:\n  eps_move: .nan\n")
    assert cli_main(["query", str(ann), "--config", str(cfg), *question]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("config: compiler thresholds must be finite")


def test_cli_context_export(tmp_path, capsys):
    out = tmp_path / "suite"
    cli_main(["gen", "--kind", "approach", "--seed", "3", "--out", str(out)])
    capsys.readouterr()
    assert cli_main(["eval", str(out), "--export-context", "c3",
                     "--context-dir", str(tmp_path / "ctx")]) == 0
    files = sorted(os.listdir(tmp_path / "ctx"))
    assert files and files[0].endswith(".json") or files[0].endswith(".txt")
    body = (tmp_path / "ctx" / "0000.txt").read_text()
    assert body.startswith("QUESTION\n")
    assert "FACTS" in body


def test_cli_config_file_overrides(tmp_path, capsys):
    cfg = tmp_path / "cfg.yaml"
    cfg.write_text("compiler:\n  close_depth: 50.0\n")
    out = tmp_path / "suite"
    cli_main(["gen", "--kind", "static", "--seed", "3", "--out", str(out)])
    ann = out / "static_0003" / "annotation.json"
    capsys.readouterr()
    assert cli_main(["query", str(ann), "--config", str(cfg),
                     "--q", "Is the vehicle close to the camera?"]) == 0
    # 50 m threshold turns every depth into "close".
    assert capsys.readouterr().out.startswith("Yes")
