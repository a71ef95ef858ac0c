"""Input validation at ingest, the generator's spec limits, default window
length, and what importing the package loads."""

import json
import math
import os
import reprlib
import subprocess
import sys
from importlib import resources

import pytest

import scenelogic
from oracles import brute_force_answer
from scenelogic.cli import main as cli_main
from scenelogic.evaluation import process_window
from scenelogic.geometry import CameraIntrinsics
from scenelogic.scenarios import InvalidSpec, ScenarioSpec, generate_scenario
from scenelogic.inference import answer_query
from scenelogic.logicpad import ParseError
from scenelogic.questions import answer_to_text, parse_fol_query, parse_nl_question
from scenelogic.scene import (
    STATIC_CATEGORIES,
    ObjectObservation,
    SceneWindow,
    Sequence,
    save_annotation,
    sequence_to_dict,
    windows,
)

from conftest import linear_track, make_sequence, run_fresh

GOOD = dict(category="Vehicle", centroid_px=(5.0, 5.0), bbox=(0.0, 0.0, 10.0, 10.0),
            depth_m=10.0, flow_px=(1.0, 0.0))


@pytest.mark.parametrize("field,value", [
    ("depth_m", math.nan), ("depth_m", math.inf),
    ("centroid_px", (5.0, math.nan)), ("centroid_px", (math.inf, 5.0)),
    ("bbox", (0.0, 0.0, math.inf, 10.0)), ("bbox", (-math.inf, 0.0, 10.0, 10.0)),
    ("flow_px", (math.nan, 0.0)), ("flow_px", (0.0, -math.inf)),
])
def test_non_finite_numbers_rejected(field, value):
    ObjectObservation(**GOOD)
    with pytest.raises(ValueError, match="finite"):
        ObjectObservation(**{**GOOD, field: value})


@pytest.mark.parametrize("field,value,message", [
    ("depth_m", 0.0, "depth must be positive, got 0.0"),
    ("depth_m", -2.5, "depth must be positive, got -2.5"),
    ("centroid_px", (10.5, 5.0), "bbox must contain the centroid"),
    ("bbox", (0.0, 6.0, 10.0, 10.0), "bbox must contain the centroid"),
    ("centroid_px", (5.0, math.nan),
     "depth, centroid, bbox and flow must be finite, got (10.0, 5.0, nan, 0.0, 0.0, 10.0, 10.0, 1.0, 0.0)"),
    ("bbox", (-1e300, -1e300, 1e300, 1e300),
     "bbox area must be finite, got (-1e+300, -1e+300, 1e+300, 1e+300)"),
])
def test_value_checks_keep_their_messages(field, value, message):
    # A centroid on the bbox's edge is inside it.
    ObjectObservation(**{**GOOD, "centroid_px": (10.0, 0.0)})
    with pytest.raises(ValueError) as got:
        ObjectObservation(**{**GOOD, field: value})
    assert str(got.value) == message


@pytest.mark.parametrize("field,value", [
    ("depth_m", math.nan), ("bbox", [0.0, 0.0, math.inf, 10.0]),
    ("centroid_px", [math.inf, 5.0]), ("flow_px", [math.nan, 0.0]),
])
def test_cli_exits_at_ingest_on_non_finite_numbers(tmp_path, capsys, field, value):
    path = tmp_path / "annotation.json"
    save_annotation(generate_scenario(ScenarioSpec("static", seed=3)).sequence, path)
    doc = json.loads(path.read_text())
    doc["frames"][4]["objects"][0][field] = value
    path.write_text(json.dumps(doc))  # json writes NaN and Infinity literals
    assert cli_main(["ingest", str(path)]) == 3
    assert cli_main(["query", str(path), "--q", "Is there a pedestrian?"]) == 3
    assert "ingest: " in capsys.readouterr().err


def test_replace_and_make_check_like_the_constructor():
    obs = ObjectObservation(**GOOD)
    assert obs._replace(depth_m=12.0) == ObjectObservation(**{**GOOD, "depth_m": 12.0})
    copy = obs._replace()
    assert copy == obs and copy is not obs and type(copy) is ObjectObservation
    assert ObjectObservation._make(obs) == obs
    with pytest.raises(ValueError, match="finite"):
        obs._replace(depth_m=math.nan)
    with pytest.raises(ValueError, match="^bbox must contain the centroid$"):
        obs._replace(centroid_px=(50.0, 5.0))
    with pytest.raises(ValueError, match="^depth must be positive, got -1.0$"):
        ObjectObservation._make((*obs[:3], -1.0, *obs[4:]))
    with pytest.raises(ValueError, match="^depth_m must be a number, got True$"):
        obs._replace(depth_m=True)
    with pytest.raises(TypeError):
        obs._replace(colour="red")


def _crossing_scene(tmp_path):
    path = tmp_path / "annotation.json"
    save_annotation(generate_scenario(ScenarioSpec("crossing", seed=3)).sequence, path)
    return path


def _an_object(doc):
    return doc["frames"][2]["objects"][0]


def _an_agent(doc):
    return next(o for o in doc["frames"][2]["objects"] if "attributes" in o)


@pytest.mark.parametrize("break_doc,message", [
    (lambda doc: doc["frames"][0].update(index=0.5), "index must be an integer, got 0.5"),
    (lambda doc: doc["frames"][0].update(index=True), "index must be an integer, got True"),
    (lambda doc: _an_object(doc).update(depth_m=True), "depth_m must be a number, got True"),
    (lambda doc: _an_object(doc).update(depth_m="5"), "depth_m must be a number, got '5'"),
    (lambda doc: _an_object(doc).update(flow_px=[1, 2, 3]),
     "flow_px must be 2 numbers, got (1, 2, 3)"),
    (lambda doc: _an_object(doc).update(category=5), "category must be a string, got 5"),
    (lambda doc: _an_object(doc).update(gt_instance=7), "gt_instance must be a string, got 7"),
    (lambda doc: _an_object(doc).update(attributes=["red"]),
     "attributes must be a mapping, got ['red']"),
    (lambda doc: _an_object(doc).pop("category"), "missing field 'category'"),
    (lambda doc: _an_object(doc).update(centroid_px=[1, 2, 3]),
     "centroid_px must be 2 numbers, got (1, 2, 3)"),
    (lambda doc: _an_object(doc).update(centroid_px=5), "centroid_px must be 2 numbers, got 5"),
    (lambda doc: _an_object(doc).update(bbox=[0, 0, True, 9]),
     "bbox must be 4 numbers, got (0, 0, True, 9)"),
    (lambda doc: _an_object(doc).update(bbox=[-1e300, -1e300, 1e300, 1e300]),
     "bbox area must be finite, got (-1e+300, -1e+300, 1e+300, 1e+300)"),
    (lambda doc: _an_object(doc).update(bbox=[-10**400, -10**400, 10**400, 10**400]),
     "bbox must be within float range, got "
     + reprlib.repr((-10**400, -10**400, 10**400, 10**400))),
    (lambda doc: _an_object(doc).update(centroid_px=[0, 5], bbox=[-10**308, 5, 10**308, 5]),
     f"bbox area must be finite, got {(-10**308, 5, 10**308, 5)!r}"),
    (lambda doc: _an_object(doc).update(centroid_px=[10**400, 5]),
     f"centroid_px must be within float range, got {reprlib.repr((10**400, 5))}"),
    (lambda doc: _an_object(doc).update(depth_m=10**400),
     f"depth_m must be within float range, got {reprlib.repr(10**400)}"),
    (lambda doc: doc["intrinsics"].update(fps=True), "intrinsics fps must be a number, got True"),
    (lambda doc: doc["intrinsics"].update(fx="500"), "intrinsics fx must be a number, got '500'"),
    (lambda doc: doc["intrinsics"].pop("cy"), "missing field 'cy'"),
    (lambda doc: _an_agent(doc)["attributes"].update(color=["red"]),
     "attributes['color'] must be a string, got ['red']"),
    (lambda doc: _an_agent(doc)["attributes"].update(color=3),
     "attributes['color'] must be a string, got 3"),
    (lambda doc: _an_agent(doc)["attributes"].update(color=None),
     "attributes['color'] must be a string, got None"),
    (lambda doc: doc["frames"][1]["objects"].insert(0, 5),
     "frames[1].objects[0] must be an object, got 5"),
    (lambda doc: doc.update(frames={"a": 1}), "frames must be an array, got {'a': 1}"),
    (lambda doc: doc["frames"].__setitem__(1, 7), "frames[1] must be an object, got 7"),
    (lambda doc: doc.update(intrinsics=7), "intrinsics must be an object, got 7"),
    (lambda doc: doc["frames"][1].update(objects=5), "frames[1].objects must be an array, got 5"),
    (lambda doc: doc["frames"][4].update(index=7),
     "frame indices must be consecutive: 7 follows 3"),
    (lambda doc: doc["intrinsics"].update(fx=0), "focal lengths must be positive"),
    (lambda doc: doc["intrinsics"].update(fps=0), "fps must be positive"),
    (lambda doc: doc["frames"][2]["objects"][1].update(gt_instance="pedestrian01"),
     "frame 2 has gt_instance 'pedestrian01' twice"),
], ids=["index-fraction", "index-bool", "depth-bool", "depth-string", "flow-three",
        "category-int", "gt-int", "attributes-list", "missing-category", "centroid-three",
        "centroid-int", "bbox-bool", "bbox-area-overflow", "bbox-huge-int",
        "bbox-huge-int-flat", "centroid-huge-int", "depth-huge-int", "fps-bool", "fx-string",
        "missing-cy",
        "attribute-list", "attribute-int", "attribute-null", "object-int",
        "frames-mapping", "frame-int", "intrinsics-int", "objects-int",
        "index-gap", "fx-zero", "fps-zero", "gt-twice"])
def test_malformed_fields_fail_at_ingest_with_their_name(tmp_path, capsys, break_doc, message):
    path = _crossing_scene(tmp_path)
    doc = json.loads(path.read_text())
    break_doc(doc)
    path.write_text(json.dumps(doc))
    for flags in (["query", str(path), "--q", "Moves(x)", "--fol"],
                  ["query", str(path), "--q", "Moves(x)", "--fol", "--track-mode", "inferred"],
                  ["ingest", str(path), "--dump-tracks"]):
        assert cli_main(flags) == 3
        assert capsys.readouterr().err == f"ingest: {message}\n"


def test_a_window_the_sequence_cannot_hold_fails_at_its_stage(tmp_path, capsys):
    path = _crossing_scene(tmp_path)
    query = ["query", str(path), "--fol", "--q", "Moves(x)"]
    assert cli_main([*query, "--window", "50"]) == 3
    assert capsys.readouterr().err == "ingest: sequence has 10 frames, window needs 50\n"
    assert cli_main([*query, "--window-id", "99"]) == 7
    assert capsys.readouterr().err == "question: window 99 not available\n"


@pytest.mark.parametrize("mode", ["oracle", "inferred"])
def test_integer_coordinates_compute_as_their_float_twin(tmp_path, capsys, mode):
    """A zero-width bbox of integers at 10**308 compiles as the same bbox
    written as floats: the exact integer sum of its x coordinates would
    leave float range, their float sum is infinite."""
    path = tmp_path / "annotation.json"
    save_annotation(generate_scenario(ScenarioSpec("crossing", 0)).sequence, path)
    doc = json.loads(path.read_text())
    o = next(o for o in doc["frames"][8]["objects"] if o.get("gt_instance") == "pedestrian01")
    dumps = []
    for x in (10**308, 1e308):
        o["centroid_px"][0] = o["bbox"][0] = o["bbox"][2] = x
        path.write_text(json.dumps(doc))
        for flags in (["--dump-facts"], ["--dump-facts", "--window", "5"], ["--dump-tracks"]):
            assert cli_main(["ingest", str(path), "--track-mode", mode, *flags]) == 0
            out, err = capsys.readouterr()
            assert err == ""
            dumps.append(out)
    assert dumps[:3] == dumps[3:]


def test_an_annotation_that_is_not_an_object_says_so(tmp_path, capsys):
    path = tmp_path / "annotation.json"
    path.write_text(json.dumps([{"intrinsics": {}}]))
    assert cli_main(["query", str(path), "--q", "Moves(x)", "--fol"]) == 3
    assert capsys.readouterr().err == (
        "ingest: the annotation must be an object, got [{'intrinsics': {}}]\n")


def _static_scene(tmp_path):
    path = tmp_path / "annotation.json"
    save_annotation(generate_scenario(ScenarioSpec("static", seed=3)).sequence, path)
    return path


def _without_anchors(doc):
    doc["frames"][3]["objects"] = [o for o in doc["frames"][3]["objects"]
                                   if o["category"] not in STATIC_CATEGORIES]


def _category_flip(doc):
    for o in doc["frames"][2]["objects"]:
        if o["gt_instance"] == "vehicle01":
            o["category"] = "Pedestrian"


@pytest.mark.parametrize("break_doc,code,message", [
    (lambda doc: doc.update(frames=[]), 3, "ingest: sequence has no frames"),
    (_without_anchors, 3, "ingest: frames 2-3: 0 static correspondences, need 2"),
    (_category_flip, 4, "track: vehicle01: Vehicle vs Pedestrian across frames"),
])
def test_query_exits_at_the_failing_stage(tmp_path, capsys, break_doc, code, message):
    path = _static_scene(tmp_path)
    doc = json.loads(path.read_text())
    break_doc(doc)
    path.write_text(json.dumps(doc))
    assert cli_main(["query", str(path), "--q", "Is there a pedestrian?"]) == code
    assert capsys.readouterr().err == message + "\n"
    for flags in ([], ["--dump-tracks"], ["--dump-facts"]):
        assert cli_main(["ingest", str(path), *flags]) == code
        assert capsys.readouterr().err == message + "\n"


@pytest.mark.parametrize("flags", [["--fol", "--q", "Moves("], ["--q", "Is the sky blue?"]])
def test_query_exits_at_question_on_unparseable_questions(tmp_path, capsys, flags):
    path = _static_scene(tmp_path)
    assert cli_main(["query", str(path), *flags]) == 7
    assert capsys.readouterr().err.startswith("question: ")


FUNCTION_HINT = ("arguments are constants or variables; write the function f as "
                 "f(...) = value and declare it under functions:")


def test_function_term_in_a_fol_question_exits_at_question(tmp_path, capsys):
    path = _static_scene(tmp_path)
    assert cli_main(["query", str(path), "--fol", "--q", "Moves(f(a))"]) == 7
    assert capsys.readouterr().err == f"question: at position 6: {FUNCTION_HINT}\n"


@pytest.mark.parametrize("rule,message", [
    ('{name: oops, fol: "forall x: (Moves(f(x))) -> Gone(x)"}',
     f"rule 'oops': at position 17: {FUNCTION_HINT}"),
    ('{name: oops, fol: "forall x: (Moves(x) & ) -> Gone(x)"}',
     "rule 'oops': at position 22: expected a predicate, found ')'"),
    ("{name: oops}", "rule 'oops': missing key 'fol'"),
    ('{name: oops, fol: "forall x, y: (Moves(x)) -> (x = y)"}',
     "rule 'oops': at position 27: the head cannot be an equality: '=' compares terms "
     "and derives nothing"),
], ids=["function-term", "syntax", "missing-fol", "equality-head"])
def test_rule_file_errors_exit_at_config(tmp_path, capsys, rule, message):
    path = _static_scene(tmp_path)
    rules = tmp_path / "rules.yaml"
    rules.write_text("predicates:\n  - {name: Moves, arity: 1}\n"
                     "  - {name: Gone, arity: 1, source: derived}\n"
                     f"rules:\n  - {rule}\n")
    for flags in (["query", str(path), "--q", "Gone(x)", "--fol"], ["ingest", str(path)]):
        assert cli_main([*flags, "--rules", str(rules)]) == 2
        assert capsys.readouterr().err == f"config: {message}\n"


@pytest.mark.parametrize("doc,message", [
    ('rules: ["forall x: Moves(x) -> Moves(x)"]\n',
     "rules[0]: must be a mapping, not 'forall x: Moves(x) -> Moves(x)'"),
    ("predicates: [Moves]\n", "predicates[0]: must be a mapping, not 'Moves'"),
    ("predicates:\n  - {name: Moves, arity: one}\n",
     "predicate 'Moves': arity must be an integer, not 'one'"),
    ('predicates:\n  - {name: Moves, arity: 1}\nrules:\n'
     '  - {name: r, fol: "forall x: Moves(x) -> Moves(x)"}\n'
     '  - {name: r, fol: "forall x: Moves(x) -> Moves(x)"}\n',
     "rule 'r': duplicate rule name"),
    ("predicates: [{name: 7, arity: 1}]\n",
     "predicates[0]: name must be a non-empty string, not 7"),
    ("functions: [{name: 3}]\n", "functions[0]: name must be a non-empty string, not 3"),
    ('predicates:\n  - {name: Moves, arity: 1}\nrules:\n'
     '  - {name: "", fol: "forall x: Moves(x) -> Moves(x)"}\n',
     "rules[0]: name must be a non-empty string, not ''"),
], ids=["bare-rule", "bare-predicate", "word-arity", "duplicate-rule", "number-predicate",
        "number-function", "empty-rule-name"])
def test_badly_shaped_rule_file_entries_exit_at_config(tmp_path, capsys, doc, message):
    path = _static_scene(tmp_path)
    rules = tmp_path / "rules.yaml"
    rules.write_text(doc)
    for flags in (["query", str(path), "--q", "Moves(x)", "--fol"], ["ingest", str(path)]):
        assert cli_main([*flags, "--rules", str(rules)]) == 2
        assert capsys.readouterr().err == f"config: {message}\n"


@pytest.mark.parametrize("target", ["red car", "", "x", 5])
def test_vocabulary_targets_that_fol_text_cannot_name_exit_at_config(tmp_path, capsys,
                                                                     target):
    path = _static_scene(tmp_path)
    rules = tmp_path / "rules.yaml"
    for section in ("colors", "types"):
        rules.write_text(f"vocabulary:\n  {section}: {{Red: {json.dumps(target)}}}\n")
        for flags in (["query", str(path), "--q", "Moves(x)", "--fol"], ["ingest", str(path)]):
            assert cli_main([*flags, "--rules", str(rules)]) == 2
            assert capsys.readouterr().err == \
                f"config: vocabulary {section}['red']: {target!r} is not a constant name\n"


def _crossing_with_colors(tmp_path, color):
    """``gen --kind crossing --seed 0`` with every agent's color ``color``."""
    doc = sequence_to_dict(generate_scenario(ScenarioSpec("crossing", seed=0)).sequence)
    for f in doc["frames"]:
        for o in f["objects"]:
            if "color" in o.get("attributes", {}):
                o["attributes"]["color"] = color
    path = tmp_path / "annotation.json"
    path.write_text(json.dumps(doc))
    return path


@pytest.mark.parametrize("color", ["", "red car", "x"])
def test_attribute_values_that_fol_text_cannot_name_exit_at_compile(tmp_path, capsys, color):
    path = _crossing_with_colors(tmp_path, color)
    for flags in (["query", str(path), "--fol", "--q", "ColOfRel(x, y)"],
                  ["ingest", str(path), "--dump-facts"]):
        assert cli_main(flags) == 5
        assert capsys.readouterr().err == (f"compile: pedestrian01: color {color!r} is neither "
                                           "in the colors vocabulary nor a constant name\n")


@pytest.mark.parametrize("color,constant", [("RED", "Red"), ("Teal", "Teal"), ("_1", "_1")])
def test_attribute_values_become_their_vocabulary_constant_or_stay_as_named(
        tmp_path, capsys, color, constant):
    path = _crossing_with_colors(tmp_path, color)
    query = f"ColOfRel(pedestrian01, {constant})"
    assert cli_main(["query", str(path), "--fol", "--q", query]) == 0
    assert capsys.readouterr().out.startswith("Yes")


def test_fol_query_with_term_inequality_answers_as_grounding_does(tmp_path, capsys, rules):
    seq = generate_scenario(ScenarioSpec("collide", seed=3)).sequence
    path = tmp_path / "annotation.json"
    save_annotation(seq, path)
    text = "Vehicle(x) & Vehicle(y) & (x != y)"
    assert cli_main(["query", str(path), "--fol", "--q", text]) == 0
    _, sat = process_window(windows(seq)[0], rules)
    q = parse_fol_query(text, rules)
    want = brute_force_answer(sat, q)
    assert len(want.bindings) == 2  # two vehicles, in either order
    assert capsys.readouterr().out == answer_to_text(want, q) + "\n"


def test_english_question_with_undeclared_predicate_exits_at_question(tmp_path, capsys):
    path = _static_scene(tmp_path)
    rules = tmp_path / "nowalk.yaml"
    default = resources.files("scenelogic").joinpath("rules/default.yaml").read_text("utf-8")
    rules.write_text("".join(l for l in default.splitlines(keepends=True) if "Walk" not in l))
    for flags in (["--q", "Is the pedestrian walking?"], ["--fol", "--q", "Walk(x)"]):
        assert cli_main(["query", str(path), "--rules", str(rules), *flags]) == 7
        assert capsys.readouterr().err == "question: query uses undeclared predicate 'Walk'\n"


def test_repl_stages_config_errors_and_unknown_windows(tmp_path, capsys, monkeypatch):
    path = _static_scene(tmp_path)
    assert cli_main(["repl", str(path), "--config", str(tmp_path / "missing.yaml")]) == 2
    assert capsys.readouterr().err.startswith("config: ")
    lines = iter([":window 99", ":quit"])
    monkeypatch.setattr("builtins.input", lambda prompt="": next(lines))
    assert cli_main(["repl", str(path)]) == 0
    assert "error: question: window 99 not available\n" in capsys.readouterr().out


def _feed(monkeypatch, lines):
    """Answer ``input`` with ``lines``, then with end of file."""
    lines = iter(lines)

    def fake_input(prompt=""):
        try:
            return next(lines)
        except StopIteration:
            raise EOFError from None

    monkeypatch.setattr("builtins.input", fake_input)


@pytest.mark.parametrize("last", [[":quit"], []], ids=["quit", "eof"])
def test_repl_session(tmp_path, capsys, monkeypatch, rules, last):
    seq = generate_scenario(ScenarioSpec("static", seed=3, n_frames=12)).sequence
    path = tmp_path / "annotation.json"
    save_annotation(seq, path)
    _feed(monkeypatch, ["Is there a pedestrian?", ":fol Vehicle(x)", "", ":facts",
                        ":window 2", ":window 99", ":fol Vehicle(x) &",
                        "Is the white car moving?", *last, ":fol Vehicle(x)"])
    assert cli_main(["repl", str(path)]) == 0

    per = {w.window_id: process_window(w, rules) for w in windows(seq)}

    def answer(wid, text, fol=False):
        q = (parse_fol_query if fol else parse_nl_question)(text, rules)
        return answer_to_text(answer_query(per[wid][1], rules, q), q)

    with pytest.raises(ParseError) as exc:
        parse_fol_query("Vehicle(x) &", rules)
    want = [
        "3 window(s); current window 0. :facts lists facts, :window K switches, "
        ":fol <query> asks in FOL, :quit exits.",
        answer(0, "Is there a pedestrian?"),
        answer(0, "Vehicle(x)", fol=True),
        *(str(f) for f in per[0][0].facts),
        "window 2",
        "error: question: window 99 not available",
        f"error: {exc.value}",
        answer(2, "Is the white car moving?"),
    ]
    if not last:  # no :quit, so the last line is answered before end of file
        want.append(answer(2, "Vehicle(x)", fol=True))
    out = capsys.readouterr().out
    assert out == "\n".join(want) + "\n"


def test_repl_window_without_a_number_prints_its_usage(tmp_path, capsys, monkeypatch, rules):
    seq = generate_scenario(ScenarioSpec("static", seed=3, n_frames=12)).sequence
    path = tmp_path / "annotation.json"
    save_annotation(seq, path)
    _feed(monkeypatch, [":window 2", ":window", ":window x", ":window 1 2", ":fol Vehicle(x)"])
    assert cli_main(["repl", str(path)]) == 0
    sat = process_window(windows(seq)[2], rules)[1]
    q = parse_fol_query("Vehicle(x)", rules)
    lines = capsys.readouterr().out.splitlines()[1:]
    # The current window stays window 2.
    assert lines == ["window 2", *["error: usage: :window K"] * 3,
                     answer_to_text(answer_query(sat, rules, q), q)]


INTRINSICS = dict(fx=500.0, fy=500.0, cx=320.0, cy=240.0, fps=10.0)


@pytest.mark.parametrize("field", ["fx", "fy", "cx", "cy", "fps"])
@pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
def test_non_finite_intrinsics_rejected(field, value):
    CameraIntrinsics(**INTRINSICS)
    with pytest.raises(ValueError, match=f"{field} must be finite"):
        CameraIntrinsics(**{**INTRINSICS, field: value})


@pytest.mark.parametrize("field", ["fx", "cx", "fps"])
def test_cli_exits_at_ingest_on_non_finite_intrinsics(tmp_path, capsys, field):
    path = tmp_path / "annotation.json"
    save_annotation(generate_scenario(ScenarioSpec("static", seed=3)).sequence, path)
    doc = json.loads(path.read_text())
    doc["intrinsics"][field] = math.nan
    path.write_text(json.dumps(doc))
    assert cli_main(["ingest", str(path)]) == 3
    assert cli_main(["query", str(path), "--q", "Is there a pedestrian?"]) == 3
    assert "ingest: " in capsys.readouterr().err


def test_fixed_bbox_leaving_its_centroid_is_an_invalid_spec():
    generate_scenario(ScenarioSpec("constant_speed", 1, n_frames=17))
    with pytest.raises(InvalidSpec, match=r"sidewalk01: .* frame 17"):
        generate_scenario(ScenarioSpec("constant_speed", 1, n_frames=18))
    generate_scenario(ScenarioSpec("stop", 1, n_frames=23))
    with pytest.raises(InvalidSpec, match="sidewalk01"):
        generate_scenario(ScenarioSpec("stop", 1, n_frames=24))


def test_default_window_is_ten_frames_or_the_whole_sequence():
    track = {"v": {"category": "Vehicle", "track": linear_track((0.8, 12.0), (0.0, 2.0), n=12)}}
    assert [w.n for w in windows(make_sequence(track, n=12))] == [10, 10, 10]
    assert [w.n for w in windows(make_sequence(track, n=6))] == [6]


def test_window_length_below_one_is_rejected(tmp_path, capsys):
    track = {"v": {"category": "Vehicle", "track": linear_track((0.8, 12.0), (0.0, 2.0), n=12)}}
    for n in (0, -3):
        with pytest.raises(ValueError, match=f"^window length must be at least 1, got {n}$"):
            windows(make_sequence(track, n=12), n)
    path = _static_scene(tmp_path)
    assert cli_main(["ingest", str(path), "--window", "-3"]) == 3
    assert capsys.readouterr().err == "ingest: window length must be at least 1, got -3\n"
    # --window 0 selects the default length.
    assert cli_main(["ingest", str(path)]) == 0
    default = capsys.readouterr().out
    assert cli_main(["ingest", str(path), "--window", "0"]) == 0
    assert capsys.readouterr().out == default


@pytest.mark.parametrize("value", ["abc", "2.5", "true", "[10]"])
def test_a_window_length_that_is_no_integer_fails_at_config(tmp_path, capsys, value):
    path = _static_scene(tmp_path)
    config = tmp_path / "cfg.yaml"
    config.write_text(f"window: {value}\n")
    assert cli_main(["ingest", str(path), "--config", str(config)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("config: window must be an integer, got ") and err.count("\n") == 1
    # 0 selects the default length, and a negative length fails at ingest.
    config.write_text("window: 0\n")
    assert cli_main(["ingest", str(path), "--config", str(config)]) == 0
    config.write_text("window: -3\n")
    assert cli_main(["ingest", str(path), "--config", str(config)]) == 3


@pytest.mark.parametrize("section, value, message", [
    ("tracker", "w_min: 0", "w_min must be in (0, 1], got 0"),
    ("tracker", "alpha: 7", "alpha must be in [0, 1], got 7"),
    ("tracker", "alpha: .nan", "alpha must be in [0, 1], got nan"),
    ("tracker", "max_gap: -3", "max_gap must be an integer >= 0, got -3"),
    ("tracker", "max_gap: 1.5", "max_gap must be an integer >= 0, got 1.5"),
    ("compiler", "eps_move: .nan", "compiler thresholds must be finite"),
    ("compiler", "close_depth: .inf", "compiler thresholds must be finite"),
    ("compiler", "image_width: 0", "image_width must be positive, got 0"),
    ("compiler", "left_frac: -1", "left_frac and right_frac must satisfy"),
    ("compiler", "right_frac: 3", "left_frac and right_frac must satisfy"),
    ("tracker", 'alpha: "0.5"', "alpha must be a number, got '0.5'"),
    ("tracker", "alpha: true", "alpha must be a number, got True"),
    ("compiler", "eps_move: x", "eps_move must be a number, got 'x'"),
    ("compiler", "trend_frac: true", "trend_frac must be a number, got True"),
    ("compiler", "5", "compiler must be a mapping, got 5"),
    ("tracker", "[0.5]", "tracker must be a mapping, got [0.5]"),
])
def test_a_config_value_out_of_range_fails_at_config(tmp_path, capsys, section, value, message):
    path = _static_scene(tmp_path)
    config = tmp_path / "cfg.yaml"
    config.write_text(f"{section}:\n  {value}\n")
    assert cli_main(["ingest", str(path), "--track-mode", "inferred",
                     "--config", str(config)]) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert err.startswith(f"config: {message}") and err.count("\n") == 1


def test_a_config_file_that_is_no_mapping_fails_at_config(tmp_path, capsys):
    path = _static_scene(tmp_path)
    config = tmp_path / "cfg.yaml"
    config.write_text("- window: 10\n")
    assert cli_main(["ingest", str(path), "--config", str(config)]) == 2
    assert capsys.readouterr().err == (
        "config: the config file must be a mapping, got [{'window': 10}]\n")


def test_output_into_a_reader_that_stops_early_exits_1_without_a_traceback(tmp_path):
    # Forty frames of twenty objects dump more facts than a pipe buffers.
    path = tmp_path / "long.json"
    spec = ScenarioSpec("crossing", seed=3, n_frames=40, object_count=20)
    save_annotation(generate_scenario(spec).sequence, path)
    src = os.path.dirname(os.path.dirname(os.path.abspath(scenelogic.__file__)))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH")) if p))
    proc = subprocess.Popen(
        [sys.executable, "-m", "scenelogic.cli", "ingest", str(path), "--dump-facts"],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=env)
    first = [proc.stdout.readline() for _ in range(2)]
    proc.stdout.close()
    err = proc.stderr.read()
    proc.stderr.close()
    assert proc.wait(timeout=120) == 1
    assert err == b""
    assert first == [b"AtCenter(road01)\n", b"AtCenter(vehicle01)\n"]


def test_a_sequence_without_frames_says_so():
    empty = Sequence(CameraIntrinsics(500.0, 500.0, 320.0, 240.0, 10.0), ())
    with pytest.raises(ValueError, match="^sequence has no frames$"):
        windows(empty)
    with pytest.raises(ValueError, match="outside the sequence's 0 frames"):
        SceneWindow(empty, 0, ())


def _in_a_fresh_interpreter(code: str) -> tuple[str, set]:
    """The last line ``code`` prints in a new interpreter, and which of
    ``scipy.optimize`` and ``scenelogic.scenarios`` it loaded."""
    *head, loaded = run_fresh(
        code + "\nimport sys\nprint(*(m for m in "
        "('scipy.optimize', 'scenelogic.scenarios') if m in sys.modules))").splitlines()
    return head[-1] if head else "", set(loaded.split())


def _query(path, mode):
    return ("from scenelogic import tracking\nfrom scenelogic.cli import main\n"
            f"main(['query', {str(path)!r}, '--q', 'Moves(x)', '--fol', "
            f"'--track-mode', {mode!r}])\nprint(tracking._solve is not None)")


def test_import_does_not_load_scipy_optimize(tmp_path):
    path = _crossing_scene(tmp_path)
    module, loaded = _in_a_fresh_interpreter("import scenelogic; print(scenelogic.__file__)")
    assert module == scenelogic.__file__
    assert loaded == set()
    # Inferred tracking loads the assignment solver, and not scipy.optimize.
    link = ("from scenelogic import link_window, load_annotation, tracking, windows\n"
            f"tracks = [link_window(w, 'inferred') for w in windows(load_annotation({str(path)!r}))]\n"
            "print(all(tracks) and tracking._solve is not None)")
    assert _in_a_fresh_interpreter(link) == ("True", set())
    assert _in_a_fresh_interpreter(_query(path, "inferred")) == ("True", set())


def test_import_and_query_do_not_load_scenarios(tmp_path):
    path = _crossing_scene(tmp_path)
    assert _in_a_fresh_interpreter("import scenelogic") == ("", set())
    assert _in_a_fresh_interpreter(_query(path, "oracle")) == ("False", set())
