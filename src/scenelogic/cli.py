"""Command-line interface.

Subcommands: gen, ingest, query, repl, eval.  A YAML config file supplies
compiler/tracker thresholds and the window length; flags override it.
Exit status is 0 on success, 1 when stdout is a pipe that closed early, or
a stage-specific nonzero code.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

import yaml

from .evaluation import StageError, process_window, run_scenario_dir, stage
from .facts import CompilerConfig, compile_window
from .inference import answer_query
from .logicpad import default_ruleset, load_rule_file
from .questions import answer_to_text, parse_fol_query, parse_nl_question
from .scene import load_annotation, windows
from .tracking import TrackerConfig, link_window

EXIT_CODES = {
    "config": 2, "ingest": 3, "track": 4, "compile": 5,
    "infer": 6, "question": 7, "eval": 8, "gen": 9,
}


def _common_flags(sub):
    sub.add_argument("--config", help="YAML config file")
    sub.add_argument("--rules", help="LogicPad rule file (default: built-in)")
    sub.add_argument("--track-mode", choices=("oracle", "inferred"),
                     default="oracle")
    sub.add_argument("--window", type=int, help="window length (default 10)")


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(prog="scenelogic",
                                description="FOL knowledge engine for road scenes")
    sub = p.add_subparsers(dest="command", required=True)

    g = sub.add_parser("gen", help="generate synthetic scenarios")
    g.add_argument("--kind", required=True,
                   help="a scenario kind, or 'all' (an unknown kind lists them)")
    g.add_argument("--seed", type=int, default=0)
    g.add_argument("--out", required=True)
    g.add_argument("--count", type=int, default=1,
                   help="scenarios per kind (consecutive seeds)")

    i = sub.add_parser("ingest", help="compile an annotation file into facts")
    i.add_argument("file")
    i.add_argument("--dump-tracks", action="store_true")
    i.add_argument("--dump-facts", action="store_true")
    _common_flags(i)

    q = sub.add_parser("query", help="answer one question over a file")
    q.add_argument("file")
    q.add_argument("--q", required=True, dest="question")
    q.add_argument("--fol", action="store_true",
                   help="the question is FOL query text, not English")
    q.add_argument("--window-id", type=int, default=0)
    _common_flags(q)

    r = sub.add_parser("repl", help="interactive question loop")
    r.add_argument("file")
    _common_flags(r)

    e = sub.add_parser("eval", help="score scenario directories")
    e.add_argument("dir")
    e.add_argument("--report", help="write the JSON report here")
    e.add_argument("--export-context", choices=("c2", "c3"))
    e.add_argument("--context-dir", help="directory for exported payloads")
    _common_flags(e)

    return p


def _cmd_gen(args) -> int:
    # Imported here: only gen writes scenarios.
    from .scenarios import KINDS, ScenarioSpec, generate_scenario, write_scenario

    kinds = KINDS if args.kind == "all" else (args.kind,)
    with stage("gen"):
        if args.count < 1:
            raise ValueError(f"--count must be at least 1, got {args.count}")
        for kind in kinds:
            for j in range(args.count):
                spec = ScenarioSpec(kind, args.seed + j)
                sc = generate_scenario(spec)
                write_scenario(sc, os.path.join(args.out, f"{kind}_{spec.seed:04d}"))
    print(f"wrote {len(kinds) * args.count} scenario(s) under {args.out}")
    return 0


def _prepare(args):
    """Thresholds and window length from the config file and flags, and the
    rule set."""
    with stage("config"):
        doc = {}
        if args.config:
            with open(args.config, "r", encoding="utf-8") as fh:
                doc = yaml.safe_load(fh) or {}
        if not isinstance(doc, dict):
            raise ValueError(f"the config file must be a mapping, got {doc!r}")
        for section in ("compiler", "tracker"):
            if not isinstance(doc.get(section, {}), dict):
                raise ValueError(f"{section} must be a mapping, got {doc[section]!r}")
        cfg = CompilerConfig(**doc.get("compiler", {}))
        tracker = TrackerConfig(**doc.get("tracker", {}))
        window = doc.get("window")
        # A bool is an int to isinstance, but no length.
        if window is not None and (isinstance(window, bool) or not isinstance(window, int)):
            raise ValueError(f"window must be an integer, got {window!r}")
        rules = load_rule_file(args.rules) if args.rules else default_ruleset()
    # A window of 0 or none selects the default length.
    return cfg, tracker, args.window or window or None, rules


def _windows(path, window):
    with stage("ingest"):
        return windows(load_annotation(path), window)


def _cmd_ingest(args) -> int:
    cfg, tracker, window, rules = _prepare(args)
    for w in _windows(args.file, window):
        with stage("track"):
            tracks = link_window(w, args.track_mode, tracker)
        if args.dump_tracks:
            doc = [
                {
                    "instance_id": t.instance_id,
                    "category": t.category,
                    "attributes": t.attributes,
                    "frames": {
                        str(pos): {"centroid_px": list(o.centroid_px),
                                   "depth_m": o.depth_m}
                        for pos, o in t.frames_sorted()
                    },
                }
                for t in tracks
            ]
            print(json.dumps({"window_id": w.window_id, "tracks": doc},
                             indent=1, sort_keys=True))
            continue
        with stage("compile"):
            wf = compile_window(w, tracks, cfg, rules)
        if args.dump_facts:
            for f in wf.facts:
                print(f)
            sidecar = {str(f): ev for f, ev in sorted(
                wf.provenance.items(), key=lambda kv: str(kv[0]))}
            print(json.dumps({"window_id": w.window_id, "evidence": sidecar},
                             indent=1, sort_keys=True))
        else:
            print(f"window {w.window_id}: {len(wf.facts)} facts, "
                  f"{len(tracks)} tracks")
    return 0


def _cmd_query(args) -> int:
    cfg, tracker, window, rules = _prepare(args)
    wins = {w.window_id: w for w in _windows(args.file, window)}
    if args.window_id not in wins:
        raise StageError("question", f"window {args.window_id} not available")
    _, sat = process_window(wins[args.window_id], rules, args.track_mode, cfg, tracker)
    with stage("question"):
        q = (parse_fol_query if args.fol else parse_nl_question)(args.question, rules)
    with stage("infer"):
        ans = answer_query(sat, rules, q)
    print(answer_to_text(ans, q))
    for step in ans.trace.steps:
        print(f"  {step}")
    return 0


def _cmd_repl(args) -> int:
    cfg, tracker, window, rules = _prepare(args)
    wins = {w.window_id: w for w in _windows(args.file, window)}
    current = next(iter(wins))
    prepared = {}

    def sat_for(wid):
        if wid not in wins:
            raise StageError("question", f"window {wid} not available")
        if wid not in prepared:
            prepared[wid] = process_window(wins[wid], rules, args.track_mode, cfg, tracker)
        return prepared[wid]

    print(f"{len(wins)} window(s); current window {current}. "
          ":facts lists facts, :window K switches, :fol <query> asks in FOL, "
          ":quit exits.")
    while True:
        try:
            line = input("? ").strip()
        except EOFError:
            return 0
        if not line:
            continue
        if line in (":quit", ":q"):
            return 0
        try:
            if line.startswith(":window"):
                try:
                    (wid,) = map(int, line.split()[1:])
                except ValueError:
                    raise ValueError("usage: :window K") from None
                sat_for(wid)
                current = wid
                print(f"window {current}")
                continue
            wf, sat = sat_for(current)
            if line == ":facts":
                for f in wf.facts:
                    print(f)
                continue
            if line.startswith(":fol"):
                q = parse_fol_query(line[len(":fol"):].strip(), rules)
            else:
                q = parse_nl_question(line, rules)
            ans = answer_query(sat, rules, q)
            print(answer_to_text(ans, q))
        except Exception as e:
            print(f"error: {e}")


def _cmd_eval(args) -> int:
    cfg, tracker, window, rules = _prepare(args)
    result = run_scenario_dir(args.dir, rules, args.track_mode, cfg, tracker,
                              export_context=args.export_context, n=window)
    report_json = result.report.to_json()
    with stage("eval"):
        if args.report:
            with open(args.report, "w", encoding="utf-8") as fh:
                fh.write(report_json + "\n")
        print(report_json)
        if args.export_context and result.payloads:
            outdir = args.context_dir or os.path.join(args.dir, f"context_{args.export_context}")
            os.makedirs(outdir, exist_ok=True)
            for idx, (item, payload) in enumerate(result.payloads):
                path = os.path.join(outdir, f"{idx:04d}.txt")
                with open(path, "w", encoding="utf-8") as fh:
                    fh.write(f"QUESTION\n{payload.question}\n\n{payload.retrieved}")
                with open(path.replace(".txt", ".json"), "w", encoding="utf-8") as fh:
                    fh.write(payload.to_json() + "\n")
            print(f"wrote {len(result.payloads)} context payload(s) to {outdir}")
    return 0


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    handlers = {
        "gen": _cmd_gen,
        "ingest": _cmd_ingest,
        "query": _cmd_query,
        "repl": _cmd_repl,
        "eval": _cmd_eval,
    }
    try:
        code = handlers[args.command](args)
        # Flush here so that a reader that stopped early shows up below.
        sys.stdout.flush()
        return code
    except StageError as e:
        print(f"{e.stage}: {e.message}", file=sys.stderr)
        return EXIT_CODES[e.stage]
    except BrokenPipeError:
        # Python flushes stdout again at exit; send what is left to devnull.
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 1


if __name__ == "__main__":
    sys.exit(main())
