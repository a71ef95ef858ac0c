"""Acceptance criteria, one test per criterion, each printing a PASS line.

Run with ``pytest tests/test_acceptance.py -s`` to see the per-criterion
lines; every tolerance is pinned here.
"""

import math
import random
import time

import numpy as np
import pytest

from scenelogic.evaluation import run_pipeline
from scenelogic.facts import CompilerConfig, compile_window
from scenelogic.fol import Const, Literal
from scenelogic.geometry import CameraIntrinsics, back_project, estimate_origin
from scenelogic.inference import saturate
from scenelogic.logicpad import default_ruleset
from scenelogic.questions import match_question, parse_nl_question
from scenelogic.ragcontext import (
    FACTS_ONLY,
    WITH_INFERENCE,
    build_context,
    export_templates,
    template_table,
)
from scenelogic.scenarios import KINDS, generate_scenario, standard_suite
from scenelogic.scene import windows
from scenelogic.tracking import link_window

from conftest import linear_track, make_sequence
from oracles import brute_force_models
from test_inference import random_ruleset_and_base


def _report(name: str, ok: bool, detail: str = ""):
    status = "PASS" if ok else "FAIL"
    suffix = f" ({detail})" if detail else ""
    print(f"ACCEPTANCE {name}: {status}{suffix}")
    assert ok, f"{name}{suffix}"


@pytest.fixture(scope="module")
def rules():
    return default_ruleset()


@pytest.fixture(scope="module")
def suite(rules):
    specs = standard_suite(per_kind=2)
    scenarios = [generate_scenario(s) for s in specs]
    sequences = [(f"{sc.spec.kind}_{sc.spec.seed}", sc.sequence) for sc in scenarios]
    questions = [(f"{sc.spec.kind}_{sc.spec.seed}", item)
                 for sc in scenarios for item in sc.qa]
    return scenarios, sequences, questions


def test_criterion_oracle_end_to_end(rules, suite):
    scenarios, sequences, questions = suite
    t0 = time.monotonic()
    result = run_pipeline(sequences, rules, questions, track_mode="oracle")
    elapsed = time.monotonic() - t0

    kinds_covered = {sc.spec.kind for sc in scenarios}
    categories = {item.category for _, item in questions}
    ok = (
        len(scenarios) >= 20
        and kinds_covered == set(KINDS)
        and len(questions) >= 200
        and categories == {"U1", "U2", "U3", "U4", "B1", "B2"}
        and result.report.aggregate.accuracy == 1.0
        and result.report.aggregate.f1 == 1.0
        and elapsed < 60.0
    )
    _report(
        "oracle-end-to-end", ok,
        f"{len(scenarios)} scenarios, {len(questions)} questions, "
        f"accuracy={result.report.aggregate.accuracy}, "
        f"f1={result.report.aggregate.f1}, {elapsed:.1f}s",
    )


def test_criterion_inferred_tracking_parity(rules, suite):
    _, sequences, questions = suite
    result = run_pipeline(sequences, rules, questions, track_mode="inferred")
    ok = (result.report.aggregate.accuracy == 1.0
          and result.report.aggregate.f1 == 1.0)
    _report("inferred-tracking-parity", ok,
            f"accuracy={result.report.aggregate.accuracy}, "
            f"f1={result.report.aggregate.f1}")


def _accel_track(x, z0, v0, a, n=10, fps=10.0):
    return [(x, z0 + v0 * t + 0.5 * a * t * t) for t in (i / fps for i in range(n))]


def _accel_track_x(x0, z, v0, a, n=10, fps=10.0):
    return [(x0 + v0 * t + 0.5 * a * t * t, z) for t in (i / fps for i in range(n))]


def _lit(pred, *names):
    return Literal(pred, tuple(Const(n) for n in names))


def _rule_cases():
    veh = lambda track: {"category": "Vehicle", "track": track}
    ped = lambda track: {"category": "Pedestrian", "width": 0.6, "height": 1.7,
                         "track": track}
    static_v = veh(linear_track((0.8, 12.0), (0.0, 0.0)))
    moving_v = veh(linear_track((0.8, 9.0), (0.0, 6.0)))
    static_p = ped(linear_track((-4.4, 11.0), (0.0, 0.0)))
    moving_p = ped(linear_track((-4.6, 11.0), (1.2, 0.0)))
    accel_v = veh(_accel_track(0.8, 9.0, 4.0, 6.0))
    accel_p = ped(_accel_track_x(-4.6, 11.0, 0.4, 2.6))
    closing = {
        "vehicle01": veh(linear_track((0.5, 7.0), (0.0, 23.0 / 3.0))),
        "vehicle02": veh(linear_track((0.5, 14.2), (0.0, 0.0))),
    }
    stopping_short = {
        "vehicle01": veh(linear_track((0.5, 7.0), (0.0, 23.0 / 3.0))),
        "vehicle02": veh(linear_track((0.5, 16.5), (0.0, 0.0))),
    }
    receding = {
        "vehicle01": veh(linear_track((0.5, 8.0), (0.0, 0.0))),
        "vehicle02": veh(linear_track((0.5, 14.0), (0.0, 5.0))),
    }
    return [
        ("stopped", {"vehicle01": static_v}, _lit("Stopped", "vehicle01"), True),
        ("stopped", {"vehicle01": moving_v}, _lit("Stopped", "vehicle01"), False),
        ("walk", {"pedestrian01": moving_p}, _lit("Walk", "pedestrian01"), True),
        ("walk", {"pedestrian01": static_p}, _lit("Walk", "pedestrian01"), False),
        ("stand", {"pedestrian01": static_p}, _lit("Stand", "pedestrian01"), True),
        ("stand", {"pedestrian01": moving_p}, _lit("Stand", "pedestrian01"), False),
        ("accelerate", {"vehicle01": accel_v}, _lit("Accelerate", "vehicle01"), True),
        ("accelerate", {"vehicle01": moving_v}, _lit("Accelerate", "vehicle01"), False),
        ("constant_speed", {"vehicle01": moving_v},
         _lit("ConstantSpeed", "vehicle01"), True),
        ("constant_speed", {"vehicle01": accel_v},
         _lit("ConstantSpeed", "vehicle01"), False),
        ("increase_pace", {"pedestrian01": accel_p},
         _lit("IncreasePace", "pedestrian01"), True),
        ("increase_pace", {"pedestrian01": moving_p},
         _lit("IncreasePace", "pedestrian01"), False),
        ("fixed_pace", {"pedestrian01": moving_p},
         _lit("FixedPace", "pedestrian01"), True),
        ("fixed_pace", {"pedestrian01": accel_p},
         _lit("FixedPace", "pedestrian01"), False),
        ("getting_closer", closing,
         _lit("GettingCloser", "vehicle01", "vehicle02"), True),
        ("getting_closer", receding,
         _lit("GettingCloser", "vehicle01", "vehicle02"), False),
        ("collide", closing, _lit("Collide", "vehicle01", "vehicle02"), True),
        ("collide", stopping_short, _lit("Collide", "vehicle01", "vehicle02"), False),
    ]


def test_criterion_rule_table_unit_suite(rules):
    passed = 0
    failures = []
    for rule_name, objects, target, expect_fire in _rule_cases():
        seq = make_sequence(objects)
        w = windows(seq, len(seq.frames))[0]
        wf = compile_window(w, link_window(w, "oracle"), CompilerConfig(), rules)
        sat = saturate(wf.facts, rules)
        fired = target in sat
        if fired == expect_fire:
            passed += 1
        else:
            failures.append(f"{rule_name}: expected fire={expect_fire}")
    _report("rule-table-unit-suite", passed == 18,
            f"{passed}/18" + (f"; {failures}" if failures else ""))


def test_criterion_inference_differential():
    rng = random.Random(1234)
    agree = 0
    total = 1000
    for _ in range(total):
        rs, base = random_ruleset_and_base(rng, max_consts=5, max_preds=6)
        if saturate(base, rs).facts == brute_force_models(base, rs).facts:
            agree += 1
    _report("inference-differential", agree == total, f"{agree}/{total} agree")


def test_criterion_geometry():
    k = CameraIntrinsics(fx=721.5, fy=718.9, cx=609.6, cy=172.9, fps=10.0)
    rng = np.random.default_rng(2024)
    exact = True
    for _ in range(10_000):
        x, y = rng.uniform(0, 1242), rng.uniform(0, 375)
        z = rng.uniform(0.05, 120.0)
        got = back_project((x, y), z, k)
        want = ((x - k.cx) * z / k.fx, (y - k.cy) * z / k.fy, z)
        if got != want:
            exact = False
            break

    anchors = np.asarray([(-8.0, 30.0), (10.0, 32.0), (-4.0, 12.0),
                          (8.0, 16.0), (0.0, 20.0)])
    noiseless_ok = True
    for _ in range(200):
        theta = float(rng.uniform(-0.8, 0.8))
        t = rng.uniform(-3, 3, 2)
        c, s = math.cos(theta), math.sin(theta)
        rot_inv = np.array([[c, s], [-s, c]])
        curr = (anchors - t) @ rot_inv.T
        tf = estimate_origin(anchors, curr)
        if tf.residual_rms >= 1e-9:
            noiseless_ok = False
            break

    sigma, n = 0.02, 5
    theta, t = 0.05, np.array([0.4, -0.3])
    c, s = math.cos(theta), math.sin(theta)
    rot_inv = np.array([[c, s], [-s, c]])
    errors = []
    for _ in range(1000):
        curr = (anchors - t) @ rot_inv.T + rng.normal(0, sigma, anchors.shape)
        tf = estimate_origin(anchors, curr)
        errors.append(np.hypot(tf.translation_m[0] - t[0], tf.translation_m[1] - t[1]))
    rms = float(np.sqrt(np.mean(np.square(errors))))
    bound = 3 * sigma / math.sqrt(n)
    noisy_ok = rms < bound

    _report("geometry", exact and noiseless_ok and noisy_ok,
            f"back-projection exact, noiseless residual < 1e-9: {noiseless_ok}, "
            f"noisy rms {rms:.4f} < {bound:.4f}")


def test_criterion_query_embedding_fidelity(rules, suite):
    from scenelogic.fol import Var

    q = parse_nl_question(
        "Does the white car at the center move at a constant speed?", rules)
    vx = Var("x")
    expected = (
        Literal("TypeOfRel", (vx, Const("Car"))),
        Literal("ColOfRel", (vx, Const("White"))),
        Literal("AtCenter", (vx,)),
        Literal("ConstantSpeed", (vx,)),
    )
    paper_exact = q.conjuncts == expected

    _, _, questions = suite
    parsed = 0
    for _, item in questions:
        match_question(item.question, rules)
        parsed += 1
    _report("query-embedding-fidelity",
            paper_exact and parsed == len(questions),
            f"paper sentence exact: {paper_exact}; "
            f"{parsed}/{len(questions)} suite questions parse")


def test_criterion_rag_export(rules, suite):
    scenarios, _, _ = suite
    tbl = template_table(rules)
    ok = True
    detail = ""
    for sc in scenarios[:6]:
        w = windows(sc.sequence, 10)[0]
        wf = compile_window(w, link_window(w, "oracle"), CompilerConfig(), rules)
        sentences = export_templates(wf.facts, tbl)
        if len(sentences) != len(wf.facts):
            ok, detail = False, "export is not a bijection"
            break
        sat = saturate(wf.facts, rules)
        from scenelogic.inference import answer_query
        from scenelogic.questions import parse_nl_question as pq
        q = pq(sc.qa[0].question, rules)
        a = answer_query(sat, rules, q)
        p1 = build_context(q, a, wf.facts, tbl, rules, WITH_INFERENCE)
        p2 = build_context(q, a, wf.facts, tbl, rules, WITH_INFERENCE)
        if p1.retrieved.encode() != p2.retrieved.encode():
            ok, detail = False, "payload bytes not reproducible"
            break
        lines = p1.retrieved.splitlines()
        fact_lines = lines[1:lines.index("")] if "" in lines else lines[1:]
        if not set(fact_lines) <= set(sentences):
            ok, detail = False, "C2 payload cites sentences outside the export"
            break
        full = build_context(q, a, wf.facts, tbl, rules, FACTS_ONLY)
        if full.retrieved.splitlines()[1:] != sentences:
            ok, detail = False, "C3 payload differs from the export"
            break
    _report("rag-export", ok, detail or "bijection, support-only C2, reproducible")
