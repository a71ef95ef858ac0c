"""Steadiness check: two sets of benchmark runs of the same code.

Usage (from the repository root):

    python3 perfbench/steady.py [--seed 100]

For every workload in BENCHMARK.json it alternates ten runs of set A (seeds
seed .. seed+9) and ten of set B (the next ten seeds), each of run_seconds,
prints each end-to-end metric's median and quartiles per set, its spread
(interquartile range over median), and whether the sets agree within the
bounds in BENCHMARK.json:

- every spread is within the bound (a spread above a third of it is
  flagged: the bounds were set with that margin);
- no metric's median in one set is worse than in the other by more than
  the bound;
- the share of failed operations is identical in every run.

Exits 1 if any workload disagrees.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
from fractions import Fraction

RUNS = 10
HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def run_once(workload: str, seed: int, seconds: int) -> dict:
    proc = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"],
        capture_output=True, text=True, timeout=180, cwd=ROOT)
    if proc.returncode != 0:
        raise RuntimeError(f"{workload} seed {seed} exited {proc.returncode}:\n{proc.stderr}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def summary(values: list[float]) -> tuple[float, float, float, float]:
    q1, med, q3 = statistics.quantiles(values, n=4)
    return med, q1, q3, (q3 - q1) / med


def main(argv=None) -> int:
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        bench = json.load(fh)
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--seed", type=int, default=100)
    args = p.parse_args(argv)

    metrics = bench["end_to_end"]
    ok = True
    for workload in (w["name"] for w in bench["workloads"]):
        sets: dict[str, list[dict]] = {"A": [], "B": []}
        for i in range(RUNS):
            order = [("A", args.seed + i), ("B", args.seed + RUNS + i)]
            if i % 2:  # alternate which set runs first
                order.reverse()
            for name, seed in order:
                res = run_once(workload, seed, bench["run_seconds"])
                sets[name].append(res)
                print(f"  {workload} set {name} seed {seed}: "
                      + " ".join(f"{m}={v['value']:.4g}" for m, v in res["metrics"].items()),
                      flush=True)
        shares = {(r["failed"], r["attempted"]) for s in sets.values() for r in s}
        share_ok = (len({Fraction(f, a) for f, a in shares}) == 1
                    and all(r["correct"] for s in sets.values() for r in s))
        print(f"{workload}: failed/attempted {sorted(shares)[:3]}... identical share: {share_ok}")
        ok &= share_ok
        for m in metrics:
            name, bound = m["name"], m["bound"]
            a = summary([r["metrics"][name]["value"] for r in sets["A"]])
            b = summary([r["metrics"][name]["value"] for r in sets["B"]])
            drift = (b[0] - a[0]) / a[0]
            spread_ok = max(a[3], b[3]) <= bound
            margin = max(a[3], b[3]) <= bound / 3
            agree = abs(drift) <= bound
            ok &= spread_ok and agree
            print(f"  {name:17s} A {a[0]:10.4f} [{a[1]:.4f}, {a[2]:.4f}] spread {a[3]:6.1%}"
                  f" | B {b[0]:10.4f} [{b[1]:.4f}, {b[2]:.4f}] spread {b[3]:6.1%}"
                  f" | drift {drift:+6.1%} bound {bound:.0%}"
                  f" | {'agree' if spread_ok and agree else 'DISAGREE'}"
                  f"{'' if margin else ' (spread above bound/3)'}")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
