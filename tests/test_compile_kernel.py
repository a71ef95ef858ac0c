"""The compile kernel over a sequence's windows against compile_window on
each window's own tracks.

``process_sequence`` links a sequence once and compiles all of its windows
in one ``compile_windows`` call; ``compile_window`` is that kernel on one
window of its own tracks.  Every window must come out the same either way,
and a window that cannot be tracked or compiled fails alone, at its stage,
as it fails when it is processed by itself.
"""

import json
from importlib import resources

import pytest

import oracles
from scenelogic import facts, tracking
from scenelogic.cli import main as cli_main
from scenelogic.evaluation import process_sequence
from scenelogic.facts import COMPUTED, CompilerConfig, compile_window
from scenelogic.inference import saturate
from scenelogic.logicpad import parse_rule_file
from scenelogic.scenarios import ScenarioSpec, generate_scenario
from scenelogic.scene import (
    STATIC_CATEGORIES,
    sequence_from_dict,
    sequence_to_dict,
    windows,
)
from scenelogic.tracking import Trajectory, link_window

from test_saturation_differential import STREAM_KINDS


def outputs(wf, sat):
    return (wf.tracks, wf.facts.facts, sorted(map(repr, wf.provenance.items())), sat.facts)


def alone(w, tracks, rules):
    wf = compile_window(w, tracks, CompilerConfig(), rules)
    return outputs(wf, saturate(wf.facts, rules))


@pytest.mark.parametrize("track_mode", ["oracle", "inferred"])
@pytest.mark.parametrize("n", [2, 5, 10])
def test_one_pass_equals_each_window_compiled_alone(rules, track_mode, n):
    gaps = 0
    for kind in STREAM_KINDS:
        seq = generate_scenario(ScenarioSpec(kind, 7, n_frames=20)).sequence
        per = process_sequence(seq, rules, track_mode, n=n)
        # A copy of the sequence, so that no cache of ``seq`` is read.
        wins = windows(sequence_from_dict(sequence_to_dict(seq)), n)
        assert sorted(per) == [w.window_id for w in wins]
        for w in wins:
            tracks = link_window(w, track_mode)
            gaps += sum(max(t.observations) - min(t.observations) + 1 > len(t.observations)
                        for t in tracks)
            assert outputs(*per[w.window_id]) == alone(w, tracks, rules), (kind, n, w.window_id)
    if track_mode == "inferred" and n > 2:
        assert gaps  # ghost-bridged occlusions leave gaps in the tracks


@pytest.mark.parametrize("track_mode", ["oracle", "inferred"])
def test_huge_coordinates_compile_without_warnings(rules, track_mode):
    """A zero-width bbox at 1e308 maps to infinite and undefined window
    points; motion takes them as Python's float arithmetic does, with no
    warning (which the tests turn into an error), in one pass and alone."""
    doc = crossing_doc()
    for o in doc["frames"][8]["objects"]:
        if o.get("gt_instance") == "pedestrian01":
            o["bbox"] = [1e308, o["bbox"][1], 1e308, o["bbox"][3]]
            o["centroid_px"] = [1e308, o["centroid_px"][1]]
    per = process_sequence(sequence_from_dict(doc), rules, track_mode, n=5)
    for w in windows(sequence_from_dict(doc), 5):
        assert outputs(*per[w.window_id]) == alone(w, link_window(w, track_mode), rules)


@pytest.mark.parametrize("track_mode", ["oracle", "inferred"])
@pytest.mark.parametrize("kind", ["crossing", "appear", "disappear"])
def test_one_pass_over_edited_tracks_equals_their_cuts(rules, track_mode, kind):
    """Sequence tracks with an observation removed mid-track, compiled in
    one pass, equal each window's cut of them compiled alone."""
    seq = generate_scenario(ScenarioSpec(kind, 3, n_frames=20)).sequence
    linked, _ = tracking.link_sequence(seq, track_mode)
    edited = [Trajectory(t.instance_id, t.category, dict(t.observations), dict(t.attributes))
              for t in linked]
    for t in edited:
        if len(t.observations) > 4 and t.category not in STATIC_CATEGORIES:
            del t.observations[sorted(t.observations)[len(t.observations) // 2]]
    wins = windows(seq, 5)
    one_pass = list(facts.compile_windows(edited, wins, CompilerConfig(), rules))
    assert len(one_pass) == len(wins)
    for w, wf in zip(wins, one_pass):
        cut = oracles.cut_tracks(edited, w.start, w.n)
        want = compile_window(w, cut, CompilerConfig(), rules)
        assert (wf.tracks, wf.facts.facts, repr(wf.provenance)) == \
            (want.tracks, want.facts.facts, repr(want.provenance)), w.window_id


def test_every_computed_fact_is_in_the_catalog(rules):
    categories = {d.name for d in rules.atomic_predicates() if d.arity == 1} - set(COMPUTED)
    emitted = set()
    for kind in STREAM_KINDS:
        seq = generate_scenario(ScenarioSpec(kind, 5, n_frames=14)).sequence
        for wf, _ in process_sequence(seq, rules, "inferred").values():
            for f in wf.facts:
                assert COMPUTED.get(f.pred, 1) == len(f.args), f
                assert f.pred in COMPUTED or f.pred in categories, f
                emitted.add(f.pred)
    assert {"Appears", "Disappears", "Moves", "ColOfRel", "TypeOfRel", "DistanceDecreases",
            "On"} <= emitted


@pytest.mark.parametrize("pred,arity", [("Moves", None), ("On", 3)])
def test_a_predicate_off_the_catalog_is_not_emitted(monkeypatch, rules, pred, arity):
    if arity is None:
        monkeypatch.delitem(COMPUTED, pred)
    else:
        monkeypatch.setitem(COMPUTED, pred, arity)
    seq = generate_scenario(ScenarioSpec("crossing", 5, n_frames=14)).sequence
    with pytest.raises(ValueError, match=f"^the compiler computes no {pred}/"):
        list(facts.compile_windows(tracking.link_sequence(seq, "oracle")[0], windows(seq),
                                   CompilerConfig(), rules))


DEFAULT_RULES = resources.files("scenelogic").joinpath("rules/default.yaml").read_text("utf-8")


@pytest.mark.parametrize("edit,message", [
    (lambda text: text.replace(
        "\nfunctions:", "  - {name: Overtakes, arity: 2, source: atomic}\n\nfunctions:", 1)
     + '  Overtakes: "{0} overtakes {1}."\n',
     "atomic predicate Overtakes/2 is not one the compiler computes"),
    (lambda text: "".join(line for line in text.splitlines(keepends=True) if "AtLeft" not in line),
     "the compiler computes atomic AtLeft/1; the rule file has no declaration"),
    (lambda text: text.replace("  - {name: ColOf, doc: color attribute of an instance}\n", ""),
     "the compiler computes atomic ColOfRel/2; the rule file has no declaration "
     "(function ColOf)"),
    (lambda text: text.replace("{name: CloseToCamera, arity: 1, source: atomic",
                               "{name: CloseToCamera, arity: 2, source: atomic"),
     "the compiler computes atomic CloseToCamera/1; the rule file has atomic CloseToCamera/2"),
    (lambda text: text.replace("{name: CloseToCamera, arity: 1, source: atomic",
                               "{name: CloseToCamera, arity: 1, source: derived"),
     "the compiler computes atomic CloseToCamera/1; the rule file has derived CloseToCamera/1"),
], ids=["undeclared-computed", "uncomputed-declared", "missing-function", "arity", "derived"])
def test_rule_files_must_declare_the_computed_catalog(tmp_path, capsys, edit, message):
    """A rule set that the compiled facts would not match fails at config
    with one line naming the predicate; the file itself still loads."""
    text = edit(DEFAULT_RULES)
    assert text != DEFAULT_RULES
    parse_rule_file(text)
    rules = tmp_path / "rules.yaml"
    rules.write_text(text)
    assert cli_main(["gen", "--kind", "crossing", "--out", str(tmp_path / "suite")]) == 0
    scene = tmp_path / "suite" / "crossing_0000"
    for flags in (["query", str(scene / "annotation.json"), "--fol", "--q", "Moves(x)"],
                  ["eval", str(tmp_path / "suite"), "--export-context", "c3"]):
        capsys.readouterr()
        assert cli_main([*flags, "--rules", str(rules)]) == 2
        assert capsys.readouterr().err == f"config: {message}\n"


# ---------------------------------------------------------------------------
# A window fails alone
# ---------------------------------------------------------------------------

def crossing_doc():
    return sequence_to_dict(generate_scenario(ScenarioSpec("crossing", 0)).sequence)


def late_object(doc, **fields):
    """``doc`` with one more object, far from the others, in frames 6-9."""
    for f in doc["frames"][6:]:
        f["objects"].append({"category": "Pedestrian", "centroid_px": [30.0, 30.0],
                             "bbox": [25.0, 20.0, 35.0, 40.0], "depth_m": 40.0, **fields})
    return doc


def with_vehicle_frame(doc):
    """``doc`` with pedestrian01 labelled Vehicle in frame 8."""
    for o in doc["frames"][8]["objects"]:
        if o.get("gt_instance") == "pedestrian01":
            o["category"] = "Vehicle"
    return doc


def write(tmp_path, doc, name):
    path = tmp_path / f"{name}.json"
    path.write_text(json.dumps(doc))
    return path


BROKEN = {
    "category-flip": (with_vehicle_frame, ["oracle"], 4, 4,
                      "track: pedestrian01: Pedestrian vs Vehicle across frames\n"),
    "unlabelled": (lambda doc: late_object(doc), ["oracle"], 2, 4,
                   "track: frame 6 has an object without gt_instance\n"),
    "undeclared": (lambda doc: late_object(doc, category="Unicorn", gt_instance="unicorn01"),
                   ["oracle", "inferred"], 2, 5,
                   "compile: unicorn01: category 'Unicorn' is not a declared atomic predicate\n"),
    "unnameable": (lambda doc: late_object(doc, gt_instance="pedestrian09",
                                           attributes={"color": "red car"}),
                   ["oracle"], 2, 5,
                   "compile: pedestrian09: color 'red car' is neither in the colors "
                   "vocabulary nor a constant name\n"),
}


@pytest.mark.parametrize("case", sorted(BROKEN))
def test_a_window_fails_alone(tmp_path, capsys, case):
    """Windows before the first one holding the fault answer and print as
    on the intact scene; that window fails at its stage with one message,
    whether queried alone or reached by ``ingest``."""
    breaks, modes, first_bad, code, message = BROKEN[case]
    intact = write(tmp_path, crossing_doc(), "intact")
    broken = write(tmp_path, breaks(crossing_doc()), "broken")
    for mode in modes:
        flags = ["--window", "5", "--track-mode", mode]
        for wid in (0, first_bad - 1):
            query = ["--fol", "--q", "Moves(x)", "--window-id", str(wid), *flags]
            assert cli_main(["query", str(intact), *query]) == 0
            want = capsys.readouterr().out
            assert cli_main(["query", str(broken), *query]) == 0
            assert capsys.readouterr().out == want
        assert cli_main(["query", str(broken), "--fol", "--q", "Moves(x)",
                         "--window-id", str(first_bad), *flags]) == code
        assert capsys.readouterr().err == message

        for dump in ([], ["--dump-facts"]):
            assert cli_main(["ingest", str(intact), *dump, *flags]) == 0
            whole = capsys.readouterr().out
            assert cli_main(["ingest", str(broken), *dump, *flags]) == code
            out, err = capsys.readouterr()
            assert err == message
            # Windows 0..first_bad-1 print as on the intact scene.
            cut = whole.index(f'"window_id": {first_bad - 1}') if dump else \
                whole.index(f"window {first_bad}:")
            printed = whole[:whole.index("\n}\n", cut) + 3] if dump else whole[:cut]
            assert out == printed
