"""scenelogic benchmark: reference-normalised timings on seeded workloads.

Usage (from the repository root):

    python3 perfbench/run.py --workload {suite,stream,dense} --seed N \
        --seconds S --trace {0,1}

It generates the workload's inputs from the seed, drives them through the
program's public entry points in a fixed number of whole rounds that take
about S seconds, checks every output, and prints as its last line one JSON
object with ``correct``, ``attempted``, ``failed`` and ``metrics``: the
end-to-end metrics with ``--trace 0``, the per-layer metrics with
``--trace 1``.  Every timing is divided by the reference in refclock.py,
timed next to it; raw seconds are printed on the lines before the JSON and
are not metrics.  See README.md.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
from contextlib import contextmanager

from refclock import normalise, reference

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
WORK = os.path.join(HERE, "_work")

SETUP_CHILDREN = 9
MIN_SAMPLES = 40  # the tail needs ten samples beyond it at p75 or higher
# Wall seconds one untraced round of each workload took on the machine the
# benchmark was built on.  The round count depends only on the workload,
# --seconds and --trace, never on how fast the program runs, so every commit
# takes each per-input median over the same number of samples.
ROUND_S = {"suite": 2.0, "stream": 4.0, "dense": 10.0}


def rounds_for(workload: str, seconds: float, traced: bool) -> int:
    """A traced round times every sequence twice, so it gets half as many."""
    return max(1, round(seconds / ROUND_S[workload] / (2 if traced else 1)))


def _single_threaded_env() -> None:
    # numpy's BLAS pool would otherwise keep idle threads alive; the load
    # must come from one thread (see refclock.ConcurrencyError).
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = "1"


# ---------------------------------------------------------------------------
# Statistics
# ---------------------------------------------------------------------------

def tail(values: list[float]) -> float:
    """The highest percentile with at least ten samples beyond it."""
    if len(values) < MIN_SAMPLES:
        raise ValueError(f"{len(values)} samples; a tail needs {MIN_SAMPLES}")
    return sorted(values)[len(values) - 11]


def median(values: list[float]) -> float:
    return statistics.median(values)


def per_input(samples: dict) -> list[float]:
    """One value per input: the median of its samples over the run's rounds,
    so that a stall hitting one sample cannot reach the tail."""
    return [median(v) for v in samples.values()]


# ---------------------------------------------------------------------------
# Set-up in fresh interpreters
# ---------------------------------------------------------------------------

def measure_setup(n: int = SETUP_CHILDREN) -> list[dict]:
    """Start ``n`` fresh interpreters one at a time; each imports the
    package and builds the default rules and templates."""
    out = []
    for _ in range(n):
        proc = subprocess.run(
            [sys.executable, os.path.join(HERE, "setup_child.py"), SRC],
            capture_output=True, text=True, timeout=120, check=True)
        doc = json.loads(proc.stdout.strip().splitlines()[-1])
        if not os.path.abspath(doc["module"]).startswith(SRC + os.sep):
            raise RuntimeError(f"child imported scenelogic from {doc['module']}")
        refs = (doc["ref_before"], doc["ref_after"])
        out.append({
            "import_s": normalise(doc["import_s"], *refs),
            "rules_s": normalise(doc["rules_s"], *refs),
            "raw_s": doc["import_s"] + doc["rules_s"],
        })
    return out


# ---------------------------------------------------------------------------
# Tracing
# ---------------------------------------------------------------------------

class Tracer:
    """In-memory spans: name, start, end, parent index, sequence id, the
    number of calls the span covers, and the reference factor that turns
    its raw duration into nominal seconds."""

    def __init__(self):
        self.spans: list[list] = []
        self._stack: list[int] = []
        self.seq = 0

    @contextmanager
    def span(self, name: str):
        idx = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        rec = [name, time.perf_counter(), None, parent, self.seq, 1, None]
        self.spans.append(rec)
        self._stack.append(idx)
        try:
            yield rec
        finally:
            self._stack.pop()
            rec[2] = time.perf_counter()

    def scale_from(self, first: int, factor: float) -> None:
        for rec in self.spans[first:]:
            rec[6] = factor

    def per_call(self) -> dict[str, list[float]]:
        out: dict[str, list[float]] = {}
        for name, t0, t1, _, _, calls, f in self.spans:
            out.setdefault(name, []).append((t1 - t0) * f / calls)
        return out

    def self_time(self) -> dict[str, float]:
        """Nominal seconds per span name, minus time covered by children."""
        child = [0.0] * len(self.spans)
        for _, t0, t1, parent, _, _, f in self.spans:
            if parent >= 0:
                child[parent] += (t1 - t0) * f
        out: dict[str, float] = {}
        for i, (name, t0, t1, _, _, _, f) in enumerate(self.spans):
            out[name] = out.get(name, 0.0) + (t1 - t0) * f - child[i]
        return out

    def dump(self, path: str) -> None:
        keys = ("name", "start", "end", "parent", "seq", "calls", "ref_factor")
        with open(path, "w", encoding="utf-8") as fh:
            json.dump([dict(zip(keys, s)) for s in self.spans], fh)
            fh.write("\n")


# ---------------------------------------------------------------------------
# The measured loop
# ---------------------------------------------------------------------------

class Bench:
    def __init__(self, inputs, rules, tracer: Tracer | None):
        import inputs as checks  # imports scenelogic, so only once it is on the path
        import scenelogic as sl

        self.sl = sl
        self.checks = checks
        self.inputs = inputs
        self.rules = rules
        self.tbl = sl.template_table(rules)
        self.tracer = tracer
        # Samples keyed by input: sequence index for windows (nominal seconds
        # per window), (sequence index, question index) for questions.
        self.window_s: dict = {}
        self.question_s: dict = {}
        self.untraced_window_s: dict = {}
        self.raw_window_s: dict = {}
        self.raw_question_s: dict = {}
        self.refs: list[float] = []
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []
        self.counts = {"tracking.tracks": 0, "facts.atomic": 0, "inference.derived": 0,
                       "inference.bindings": 0, "ragcontext.payload_bytes": 0}
        self.rounds = 0

    def _ref(self) -> float:
        r = reference()
        self.refs.append(r)
        return r

    # -- one sequence ------------------------------------------------------

    def _parse(self, question):
        if question.fol:
            return self.sl.parse_fol_query(question.text, self.rules)
        return self.sl.parse_question(question.text, self.rules)

    def _ask(self, question, per):
        sl, rules = self.sl, self.rules
        wf, sat = per[question.window_id]
        q = self._parse(question)
        ans = sl.answer_query(sat, rules, q)
        payload = sl.build_context(q, ans, wf.facts, self.tbl, rules,
                                   "with_inference", question_text=question.text)
        return q, ans, payload

    def _ask_traced(self, question, per):
        sl, rules, tr = self.sl, self.rules, self.tracer
        wf, sat = per[question.window_id]
        with tr.span("question"):
            with tr.span("questions.parse"):
                q = self._parse(question)
            with tr.span("inference.answer"):
                ans = sl.answer_query(sat, rules, q)
            with tr.span("ragcontext.context"):
                payload = sl.build_context(q, ans, wf.facts, self.tbl, rules,
                                           "with_inference", question_text=question.text)
        return q, ans, payload

    def _process(self, inp):
        seq = self.sl.load_annotation(inp.path)
        return self.sl.evaluation.process_sequence(seq, self.rules, inp.track_mode,
                                                   n=self.checks.WINDOW)

    def _process_traced(self, inp):
        sl, rules, tr = self.sl, self.rules, self.tracer
        per = {}
        with tr.span("sequence"):
            with tr.span("scene.load"):
                seq = sl.load_annotation(inp.path)
            with tr.span("scene.windows") as win_span:
                wins = sl.windows(seq, self.checks.WINDOW)
            win_span[5] = len(wins)
            for w in wins:
                with tr.span("window"):
                    with tr.span("tracking.link"):
                        tracks = sl.link_window(w, inp.track_mode)
                    with tr.span("facts.compile"):
                        wf = sl.compile_window(w, tracks, sl.CompilerConfig(), rules)
                    with tr.span("inference.saturate"):
                        sat = sl.saturate(wf.facts, rules)
                per[w.window_id] = (wf, sat)
        return per

    def sequence(self, i: int) -> None:
        """Time, answer and check input sequence ``i`` once."""
        inp = self.inputs[i]
        pc = time.perf_counter
        # A traced run also times the untraced pass, for the tracing
        # overhead; the two alternate in order so neither gets warmer caches.
        passes = [False] if self.tracer is None else [i % 2 == 0, i % 2 == 1]
        r1 = self._ref()
        for traced in passes:
            r0, mark, t = r1, len(self.tracer.spans) if traced else 0, pc()
            per_pass = self._process_traced(inp) if traced else self._process(inp)
            raw_w = (pc() - t) / len(per_pass)
            r1 = self._ref()
            norm_w = normalise(raw_w, r0, r1)
            if traced or self.tracer is None:
                per = per_pass
                self.window_s.setdefault(i, []).append(norm_w)
                self.raw_window_s.setdefault(i, []).append(raw_w)
            else:
                self.untraced_window_s.setdefault(i, []).append(norm_w)
            if traced:
                self.tracer.scale_from(mark, normalise(1.0, r0, r1))

        mark = len(self.tracer.spans) if self.tracer is not None else 0
        ask = self._ask if self.tracer is None else self._ask_traced
        answers, raw_q = [], []
        for question in inp.questions:
            t = pc()
            answers.append(ask(question, per))
            raw_q.append(pc() - t)
        r2 = self._ref()
        factor = normalise(1.0, r1, r2)
        if self.tracer is not None:
            self.tracer.scale_from(mark, factor)
            self.tracer.seq += 1
        for j, raw in enumerate(raw_q):
            self.question_s.setdefault((i, j), []).append(raw * factor)
            self.raw_question_s.setdefault((i, j), []).append(raw)
        self.check(inp, per, answers)

    # -- checks --------------------------------------------------------------

    def check(self, inp, per, answers) -> None:
        """Check one sequence's windows and answers; count operations."""
        first_round = self.rounds == 0
        for wid, (wf, sat) in per.items():
            self.attempted += 1
            problems = self.checks.check_window(inp, wf.window, wf.tracks, wf.facts.facts)
            if problems:
                self.failed += 1
                self.problems += [f"{inp.path} window {wid}: {p}" for p in problems]
            if first_round:
                self.counts["tracking.tracks"] += len(wf.tracks)
                self.counts["facts.atomic"] += len(wf.facts)
                self.counts["inference.derived"] += len(sat) - len(wf.facts)
        for question, (q, ans, payload) in zip(inp.questions, answers):
            self.attempted += 1
            qvars = q.variables()
            bindings = [tuple(str(sub.get(v)) for v in qvars) for sub in ans.bindings]
            facts = per[question.window_id][0].facts.facts
            problem = self.checks.check_question(question, ans.truth, bindings, payload.retrieved, facts)
            if problem is not None:
                self.failed += 1
                kind, message = problem
                if not self.checks.is_known_fault(question, kind, bindings, facts):
                    self.problems.append(
                        f"{inp.path} window {question.window_id} {question.text!r}: {message}")
            if first_round:
                self.counts["inference.bindings"] += len(ans.bindings)
                self.counts["ragcontext.payload_bytes"] += len(payload.to_json().encode())

    # -- the run -------------------------------------------------------------

    def run(self, rounds: int) -> None:
        for _ in range(rounds):
            for i in range(len(self.inputs)):
                self.sequence(i)
            self.rounds += 1


# ---------------------------------------------------------------------------
# Entry point
# ---------------------------------------------------------------------------

def _metric(value: float, unit: str) -> dict:
    return {"value": value, "unit": unit}


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=("suite", "stream", "dense"))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)

    if not os.path.isfile(os.path.join(SRC, "scenelogic", "__init__.py")):
        print(f"perfbench: no scenelogic sources under {SRC}", file=sys.stderr)
        return 2
    _single_threaded_env()
    sys.path.insert(0, SRC)
    import scenelogic
    from inputs import build_inputs

    if not os.path.abspath(scenelogic.__file__).startswith(SRC + os.sep):
        print(f"perfbench: imported scenelogic from {scenelogic.__file__}", file=sys.stderr)
        return 2

    rules = scenelogic.default_ruleset()
    workdir = os.path.join(WORK, args.workload)
    shutil.rmtree(workdir, ignore_errors=True)
    inputs = build_inputs(args.workload, args.seed, workdir, rules)

    setup = measure_setup()
    tracer = Tracer() if args.trace else None
    bench = Bench(inputs, rules, tracer)
    start = time.perf_counter()
    bench.run(rounds_for(args.workload, args.seconds, tracer is not None))
    measured_s = time.perf_counter() - start
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    print(f"workload {args.workload} seed {args.seed}: {len(inputs)} sequences, "
          f"{bench.rounds} rounds in {measured_s:.1f} s, {len(bench.question_s)} questions")
    print(f"raw (not metrics): setup_s {median([s['raw_s'] for s in setup]):.4f}  "
          f"window_ms {median(per_input(bench.raw_window_s)) * 1e3:.4f}  "
          f"question_ms {median(per_input(bench.raw_question_s)) * 1e3:.4f}  "
          f"reference_ms {median(bench.refs) * 1e3:.4f}")
    for line in bench.problems[:10]:
        print(f"check failed: {line}", file=sys.stderr)

    window_s = per_input(bench.window_s)
    question_s = per_input(bench.question_s)
    if tracer is None:
        metrics = {
            "setup_s": _metric(median([s["import_s"] + s["rules_s"] for s in setup]), "s"),
            "window_ms": _metric(median(window_s) * 1e3, "ms"),
            "window_tail_ms": _metric(tail(window_s) * 1e3, "ms"),
            "question_ms": _metric(median(question_s) * 1e3, "ms"),
            "question_tail_ms": _metric(tail(question_s) * 1e3, "ms"),
            "peak_rss_mb": _metric(peak_rss_mb, "MB"),
        }
    else:
        per_call = tracer.per_call()
        metrics = {
            "package.import_s": _metric(median([s["import_s"] for s in setup]), "s"),
            "logicpad.rules_ms": _metric(median([s["rules_s"] for s in setup]) * 1e3, "ms"),
        }
        for name in ("scene.load", "scene.windows", "tracking.link", "facts.compile",
                     "inference.saturate", "questions.parse", "inference.answer",
                     "ragcontext.context"):
            metrics[f"{name}_ms"] = _metric(median(per_call[name]) * 1e3, "ms")
        for name, value in bench.counts.items():
            metrics[name] = _metric(value, "bytes" if name.endswith("_bytes") else "count")
        untraced = median(per_input(bench.untraced_window_s))
        overhead = median(window_s) - untraced
        print(f"tracing overhead: window_ms traced {median(window_s) * 1e3:.4f} "
              f"- untraced {untraced * 1e3:.4f} "
              f"= {overhead * 1e3:.4f} ms")
        print("self time per round (nominal ms, share):")
        own = tracer.self_time()
        total = sum(own.values())
        for name, value in sorted(own.items(), key=lambda kv: -kv[1]):
            print(f"  {name:22s} {value * 1e3 / bench.rounds:10.2f} {value / total:7.1%}")
        os.makedirs(WORK, exist_ok=True)
        tracer.dump(os.path.join(WORK, f"trace-{args.workload}-{args.seed}.json"))

    print(json.dumps({"correct": not bench.problems, "attempted": bench.attempted,
                      "failed": bench.failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
