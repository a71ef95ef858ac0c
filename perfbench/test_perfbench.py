"""Smoke test of the benchmark itself, at tiny sizes.

Run from the repository root:  python3 -m pytest -q perfbench
"""

import dataclasses
import os
import shutil
import subprocess
import sys
import threading

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path[:0] = [HERE, os.path.join(ROOT, "src")]

import run  # noqa: E402

run._single_threaded_env()  # before numpy is imported below

import pytest  # noqa: E402
import scenelogic  # noqa: E402
from inputs import KNOWN_FAULT_QUERY, build_inputs  # noqa: E402
from refclock import ConcurrencyError, reference  # noqa: E402

RULES = scenelogic.default_ruleset()


def _one_round(workload, tmp_path, tracer=None):
    inputs = build_inputs(workload, 0, str(tmp_path / workload), RULES, count=1)
    bench = run.Bench(inputs, RULES, tracer)
    for i in range(len(inputs)):
        bench.sequence(i)
    return inputs, bench


@pytest.mark.parametrize("workload", ["suite", "stream", "dense"])
def test_every_check_passes_but_stopped(workload, tmp_path):
    inputs, bench = _one_round(workload, tmp_path)
    n_windows = sum(len({q.window_id for q in inp.questions}) for inp in inputs)
    assert bench.problems == []
    assert bench.failed == n_windows  # one Stopped(x) per window
    assert bench.attempted == n_windows + sum(len(inp.questions) for inp in inputs)
    assert all(sum(q.text == KNOWN_FAULT_QUERY for q in inp.questions)
               == len({q.window_id for q in inp.questions}) for inp in inputs)


def test_traced_round_records_every_layer(tmp_path):
    tracer = run.Tracer()
    _, bench = _one_round("suite", tmp_path, tracer)
    layers = set(tracer.per_call())
    assert {"scene.load", "scene.windows", "tracking.link", "facts.compile",
            "inference.saturate", "questions.parse", "inference.answer",
            "ragcontext.context"} <= layers
    assert bench.problems == [] and all(c > 0 for c in bench.counts.values())
    assert all(s[6] is not None for s in tracer.spans)  # every span normalised


def test_corrupted_outputs_are_counted_failed(tmp_path):
    inputs, bench = _one_round("dense", tmp_path)
    inp = inputs[0]
    wf, sat = scenelogic.evaluation.process_sequence(
        scenelogic.load_annotation(inp.path), RULES, inp.track_mode, n=10)[0]
    answers = [bench._ask(q, {0: (wf, sat)}) for q in inp.questions]

    english = next(i for i, q in enumerate(inp.questions) if not q.fol)
    q, ans, payload = answers[english]
    flipped = list(answers)
    flipped[english] = (q, dataclasses.replace(ans, truth=not ans.truth), payload)

    fol = next(i for i, q in enumerate(inp.questions)
               if q.fol and q.text != KNOWN_FAULT_QUERY and answers[i][1].bindings)
    q, ans, payload = answers[fol]
    dropped = list(answers)
    dropped[fol] = (q, dataclasses.replace(ans, bindings=ans.bindings[1:]), payload)

    colour = next(f for f in wf.facts.facts if f.pred == "ColOfRel")
    thin = dataclasses.replace(wf, facts=scenelogic.FactSet.of(wf.facts.facts - {colour}))

    for per, outs in (({0: (wf, sat)}, flipped), ({0: (wf, sat)}, dropped),
                      ({0: (thin, sat)}, answers)):
        before_failed, before_problems = bench.failed, len(bench.problems)
        bench.check(inp, per, outs)
        assert bench.failed == before_failed + 2  # Stopped(x) plus the corruption
        assert len(bench.problems) > before_problems

    # The known fault forgives only Stopped(x)'s extra bindings, not a
    # broken payload on that same query.
    stopped = next(i for i, q in enumerate(inp.questions) if q.text == KNOWN_FAULT_QUERY)
    q, ans, payload = answers[stopped]
    cut = list(answers)
    cut[stopped] = (q, ans, dataclasses.replace(
        payload, retrieved=payload.retrieved.split("\nVERDICT\n")[0]))
    before_failed, before_problems = bench.failed, len(bench.problems)
    bench.check(inp, {0: (wf, sat)}, cut)
    assert bench.failed == before_failed + 1
    assert any(KNOWN_FAULT_QUERY in p and "VERDICT" in p for p in bench.problems[before_problems:])


def test_reference_refuses_threads_and_children():
    reference()
    stop = threading.Event()
    worker = threading.Thread(target=stop.wait)
    worker.start()
    try:
        with pytest.raises(ConcurrencyError):
            reference()
    finally:
        stop.set()
        worker.join(timeout=10)
    assert not worker.is_alive()
    child = subprocess.Popen([sys.executable, "-c", "import time; time.sleep(30)"])
    try:
        with pytest.raises(ConcurrencyError):
            reference()
    finally:
        child.kill()
        child.wait(timeout=10)


def test_tail_has_ten_samples_beyond_it():
    values = [float(i) for i in range(100)]
    assert run.tail(values) == 89.0
    with pytest.raises(ValueError):
        run.tail(values[:39])


def test_round_count_does_not_depend_on_speed():
    assert [run.rounds_for(w, 20, False) for w in ("suite", "stream", "dense")] == [10, 5, 2]
    assert [run.rounds_for(w, 20, True) for w in ("suite", "stream", "dense")] == [5, 2, 1]
    assert run.rounds_for("dense", 1, False) == 1


def test_fails_without_the_program(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("_work", "__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "suite", "--seed", "0",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=180)
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
