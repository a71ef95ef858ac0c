"""Scoring and the end-to-end pipeline: ingest, track, compile, saturate,
answer, report."""

from __future__ import annotations

import json
import os
from contextlib import contextmanager
from dataclasses import dataclass, field

from .facts import CompilerConfig, check_catalog, compile_window, compile_windows
from .inference import answer_query, saturate
from .logicpad import RuleSet, default_ruleset
from .questions import parse_question
from .ragcontext import (
    FACTS_ONLY,
    WITH_INFERENCE,
    ContextPayload,
    build_context,
    template_table,
)
from .scene import SceneWindow, Sequence, load_annotation, windows
from .tracking import TrackerConfig, check_labels, link_sequence, link_window


class LengthMismatch(ValueError):
    pass


@dataclass(frozen=True)
class QAItem:
    question: str
    category: str  # U1..U4, B1, B2
    gold: bool
    window_id: int = 0


# Each qa.json item key, the JSON type of its value and that type's name
# in messages; window_id may be left out.  A bool is no int here.
_QA_KEYS = (("question", str, "a string"), ("category", str, "a string"),
            ("gold", bool, "true or false"), ("window_id", int, "an integer"))


def load_qa(path) -> list[QAItem]:
    """The items of a qa.json file.  A file that is not an object with an
    ``items`` array fails with the key; an item without a key it needs, or
    with a value of another JSON type, fails with its index and the key."""
    with open(path, "r", encoding="utf-8") as fh:
        doc = json.load(fh)
    if not isinstance(doc, dict):
        raise ValueError(f"{path} must be an object with key 'items', got {doc!r}")
    if "items" not in doc:
        raise ValueError(f"{path}: missing key 'items'")
    if not isinstance(doc["items"], list):
        raise ValueError(f"{path}: items must be an array, got {doc['items']!r}")
    items = []
    for i, item in enumerate(doc["items"]):
        if not isinstance(item, dict):
            raise ValueError(f"{path} items[{i}] must be an object, got {item!r}")
        values = {"window_id": 0, **item}
        for key, kind, name in _QA_KEYS:
            if key not in values:
                raise ValueError(f"{path} items[{i}]: missing key {key!r}")
            if type(values[key]) is not kind:
                raise ValueError(f"{path} items[{i}]: {key} must be {name}, got {values[key]!r}")
        items.append(QAItem(*(values[key] for key, _, _ in _QA_KEYS)))
    return items


class StageError(RuntimeError):
    """Pipeline failure tagged with the stage that produced it."""

    def __init__(self, stage: str, message: str):
        super().__init__(f"{stage}: {message}")
        self.stage = stage
        self.message = message


@dataclass(frozen=True)
class Score:
    n: int
    correct: int
    tp: int
    fp: int
    fn: int
    tn: int

    @property
    def accuracy(self) -> float:
        return self.correct / self.n if self.n else 1.0

    @property
    def f1(self) -> float:
        denom = 2 * self.tp + self.fp + self.fn
        return 2 * self.tp / denom if denom else 1.0


@dataclass
class EvalReport:
    per_category: dict  # category -> Score
    aggregate: Score
    config_echo: dict = field(default_factory=dict)

    def to_dict(self) -> dict:
        def row(s: Score) -> dict:
            return {"n": s.n, "correct": s.correct, "tp": s.tp, "fp": s.fp,
                    "fn": s.fn, "tn": s.tn, "accuracy": s.accuracy, "f1": s.f1}
        return {
            "per_category": {c: row(s) for c, s in sorted(self.per_category.items())},
            "aggregate": row(self.aggregate),
            "config": self.config_echo,
        }

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), indent=1, sort_keys=True)


def _score(items: list[tuple[bool, bool]]) -> Score:
    tp = sum(1 for gold, ans in items if gold and ans)
    fp = sum(1 for gold, ans in items if not gold and ans)
    fn = sum(1 for gold, ans in items if gold and not ans)
    tn = sum(1 for gold, ans in items if not gold and not ans)
    return Score(len(items), tp + tn, tp, fp, fn, tn)


def evaluate(qa: list[QAItem], answers: list[bool],
             config_echo: dict | None = None) -> EvalReport:
    """Accuracy and F1 (yes as the positive class), per category and overall."""
    if len(qa) != len(answers):
        raise LengthMismatch(f"{len(qa)} questions vs {len(answers)} answers")
    pairs = list(zip((q.gold for q in qa), answers))
    by_cat: dict[str, list] = {}
    for q, pair in zip(qa, pairs):
        by_cat.setdefault(q.category, []).append(pair)
    return EvalReport(
        per_category={c: _score(v) for c, v in by_cat.items()},
        aggregate=_score(pairs),
        config_echo=config_echo or {},
    )


# ---------------------------------------------------------------------------
# End-to-end pipeline
# ---------------------------------------------------------------------------

@dataclass
class PipelineResult:
    answers: list[bool]
    report: EvalReport
    payloads: list[tuple[QAItem, ContextPayload]]


@contextmanager
def stage(name: str):
    """Re-raise any failure inside the block as a StageError tagged ``name``."""
    try:
        yield
    except Exception as e:
        raise StageError(name, str(e)) from e


def process_window(w: SceneWindow, rules: RuleSet, track_mode: str = "oracle",
                   cfg: CompilerConfig = CompilerConfig(),
                   tracker_cfg: TrackerConfig = TrackerConfig()):
    """Track, compile and saturate one window.  Returns (WindowFacts,
    FactSet); a failure is a StageError tagged track, compile or infer."""
    with stage("track"):
        tracks = link_window(w, track_mode, tracker_cfg)
    with stage("compile"):
        wf = compile_window(w, tracks, cfg, rules)
    with stage("infer"):
        return wf, saturate(wf.facts, rules)


def compile_sequence(wins: list[SceneWindow], rules: RuleSet, track_mode: str = "oracle",
                     cfg: CompilerConfig = CompilerConfig(),
                     tracker_cfg: TrackerConfig = TrackerConfig()):
    """Each of a sequence's windows' WindowFacts, in order, from its tracks
    linked once and one ``compile_windows`` call.  A window fails, when it
    is reached, as ``process_window`` fails on it."""
    with stage("track"):
        tracks, faults = link_sequence(wins[0].sequence, track_mode, tracker_cfg)
    compiled = compile_windows(tracks, wins, cfg, rules)
    for w in wins:
        with stage("track"):
            check_labels(faults, w)
        with stage("compile"):
            wf = next(compiled)
        yield wf


def process_sequence(seq: Sequence, rules: RuleSet,
                     track_mode: str = "oracle",
                     cfg: CompilerConfig = CompilerConfig(),
                     tracker_cfg: TrackerConfig = TrackerConfig(),
                     n: int | None = None):
    """Ingest a sequence into per-window compiled facts and saturated sets.

    ``n`` defaults as in ``scene.windows``.  Returns {window_id:
    (WindowFacts, FactSet)}.  Saturation is a function of the atomic facts,
    so windows whose atomic facts are equal share one FactSet as
    ``WindowFacts.facts`` and one saturated set, built once, and so also the
    index, trace map and sentences cached on those sets.
    """
    with stage("ingest"):
        wins = windows(seq, n)
    saturated, out = {}, {}
    for wf in compile_sequence(wins, rules, track_mode, cfg, tracker_cfg):
        with stage("infer"):
            if wf.facts.facts not in saturated:
                saturated[wf.facts.facts] = (wf.facts, saturate(wf.facts, rules))
            wf.facts, sat = saturated[wf.facts.facts]
        out[wf.window_id] = (wf, sat)
    return out


def run_pipeline(sequences, rules: RuleSet | None, questions: list[QAItem],
                 track_mode: str = "oracle",
                 cfg: CompilerConfig = CompilerConfig(),
                 tracker_cfg: TrackerConfig = TrackerConfig(),
                 n: int | None = None,
                 export_context: str | None = None) -> PipelineResult:
    """Answer every question over its window and score against gold.

    ``sequences`` is one Sequence or a list of (sequence_key, Sequence);
    questions carry (sequence_key, window_id) implicitly when generated per
    sequence, so for multi-sequence runs pass questions as a list of
    (sequence_key, QAItem) pairs instead.  ``export_context`` "c2" or "c3"
    also builds each question's C2 (with inference) or C3 (facts only)
    payload.
    """
    rules = rules or default_ruleset()
    if isinstance(sequences, Sequence):
        keyed = {None: sequences}
        qitems = [(None, q) for q in questions]
    else:
        keyed = dict(sequences)
        qitems = list(questions)

    with stage("config"):
        if export_context not in (None, "c2", "c3"):
            raise ValueError(f"export_context must be 'c2', 'c3' or None, not {export_context!r}")
        check_catalog(rules)
        mode = {"c2": WITH_INFERENCE, "c3": FACTS_ONLY}.get(export_context)
        tbl = template_table(rules) if mode else None
    processed = {
        key: process_sequence(seq, rules, track_mode, cfg, tracker_cfg, n)
        for key, seq in keyed.items()
    }

    answers: list[bool] = []
    payloads: list[tuple[QAItem, ContextPayload]] = []
    flat_qa: list[QAItem] = []
    for key, item in qitems:
        flat_qa.append(item)
        perwin = processed[key]
        if item.window_id not in perwin:
            raise StageError("question", f"window {item.window_id} not available")
        wf, sat = perwin[item.window_id]
        try:
            q = parse_question(item.question, rules)
        except Exception as e:
            raise StageError("question", f"{item.question!r}: {e}") from e
        try:
            ans = answer_query(sat, rules, q)
        except Exception as e:
            raise StageError("infer", f"{item.question!r}: {e}") from e
        answers.append(ans.truth)
        if mode:
            payload = build_context(q, ans, wf.facts, tbl, rules, mode,
                                    question_text=item.question)
            payloads.append((item, payload))

    report = evaluate(flat_qa, answers, config_echo={
        "track_mode": track_mode,
        "window": n,
        "compiler": vars(cfg).copy(),
        "tracker": vars(tracker_cfg).copy(),
        # Gold answers come from generator kinematics, not human annotation.
        "qa_protocol": "synthetic gold from scenario generator",
    })
    return PipelineResult(answers, report, payloads)


def run_scenario_dir(root, rules: RuleSet | None = None,
                     track_mode: str = "oracle",
                     cfg: CompilerConfig = CompilerConfig(),
                     tracker_cfg: TrackerConfig = TrackerConfig(),
                     export_context: str | None = None,
                     n: int | None = None) -> PipelineResult:
    """Evaluate every scenario directory (annotation.json + qa.json) under
    ``root`` with windows of ``n`` frames (default as in ``scene.windows``)."""
    sequences = []
    questions = []
    with stage("ingest"):
        names = sorted(
            d for d in os.listdir(root)
            if os.path.isfile(os.path.join(root, d, "annotation.json"))
        )
        if not names:
            raise FileNotFoundError(f"no scenario directories under {root}")
        for name in names:
            sdir = os.path.join(root, name)
            sequences.append((name, load_annotation(os.path.join(sdir, "annotation.json"))))
            questions.extend((name, item) for item in load_qa(os.path.join(sdir, "qa.json")))
    return run_pipeline(sequences, rules, questions, track_mode, cfg,
                        tracker_cfg, n, export_context=export_context)
