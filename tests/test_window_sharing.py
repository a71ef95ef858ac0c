"""Work a sequence's windows share: ``process_sequence`` against each
window linked, compiled and saturated by itself (``link_window``,
``compile_window``, ``saturate``).

Windows whose atomic facts are equal share one FactSet and one saturated
set, and a sequence builds each literal it compiles once.  Sharing changes
no output, and nothing of it outlives the sequence and its results.
"""

import gc
from itertools import combinations

import pytest

from scenelogic.evaluation import process_sequence
from scenelogic.facts import CompilerConfig, compile_window
from scenelogic.fol import Const
from scenelogic.inference import saturate
from scenelogic.scenarios import ScenarioSpec, generate_scenario
from scenelogic.scene import sequence_from_dict, sequence_to_dict, windows
from scenelogic.tracking import link_window

from test_saturation_differential import STREAM_KINDS


def _outputs(wf, sat):
    return (wf.tracks, wf.facts.facts, sorted(map(repr, wf.provenance.items())),
            sat.facts, str(sat.trace))


@pytest.mark.parametrize("track_mode", ["oracle", "inferred"])
def test_shared_windows_equal_their_own_processing(rules, track_mode):
    n_shared = 0
    for kind in STREAM_KINDS:
        seq = generate_scenario(ScenarioSpec(kind, 11, n_frames=20)).sequence
        per = process_sequence(seq, rules, track_mode)
        # A copy of the sequence, so that no cache of ``seq`` is read.
        alone = windows(sequence_from_dict(sequence_to_dict(seq)))
        assert len(per) == len(alone) == 11
        for w in alone:
            wf = compile_window(w, link_window(w, track_mode), CompilerConfig(), rules)
            assert _outputs(*per[w.window_id]) == _outputs(wf, saturate(wf.facts, rules)), \
                (kind, w.window_id)

        for (wf_a, sat_a), (wf_b, sat_b) in combinations(per.values(), 2):
            if wf_a.facts.facts == wf_b.facts.facts:
                assert wf_a.facts is wf_b.facts and sat_a is sat_b, kind
                n_shared += 1
            else:
                assert wf_a.facts is not wf_b.facts and sat_a is not sat_b, kind

        interned = {}
        for wf, _ in per.values():
            for lit in (*wf.facts.facts, *wf.provenance):
                assert interned.setdefault(lit, lit) is lit, (kind, lit)
    assert n_shared


def test_a_sequences_literals_leave_with_it(rules):
    doc = sequence_to_dict(generate_scenario(ScenarioSpec("crossing", 11, n_frames=20)).sequence)
    label = "pedestrian_seen_once"
    doc["frames"][4]["objects"][0]["gt_instance"] = label
    seq = sequence_from_dict(doc)
    per = process_sequence(seq, rules, "oracle")
    assert any(label in map(str, f.args) for wf, _ in per.values() for f in wf.facts)
    assert label in Const._live
    del seq, per
    gc.collect()
    assert label not in Const._live
