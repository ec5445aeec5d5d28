"""Steadiness check: two sets of runs per workload, compared against the bounds.

    python3 tunebench/steady.py --runs 10 --out results.json
    python3 tunebench/steady.py --load results.json   # report on saved runs

Each of the two sets runs ``run.py`` once per seed 1..``--runs`` on every
workload of ``BENCHMARK.json``, with its ``run_seconds``.  For every
end-to-end metric the report gives each set's median, quartiles and spread
(the quartile distance as a share of the median).  The sets agree when
every spread stays within the metric's bound, no median is worse in the
second set by more than the bound, ``pass_runs`` and ``best_speedup``
repeat exactly seed by seed, and the share of failed measurements is the
same.  Each set also shows the range of the tunes' host-speed factors
(``hostspeed.py``: the fixed chunk's CPU time over its reference time), to
tell a slow host from a slow program.  Exits 1 when the sets
disagree.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
from typing import Dict, List

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

from metrics import load_spec  # noqa: E402

EXACT = ("pass_runs", "best_speedup")
SETS = 2


def one_run(workload: str, seed: int, seconds: int) -> dict:
    proc = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"],
        cwd=ROOT, capture_output=True, text=True, timeout=200,
    )
    if proc.returncode != 0:
        raise SystemExit(f"{workload} seed {seed} failed:\n{proc.stderr[-2000:]}")
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    result["context"] = json.loads(lines[-2][len("context "):])
    return result


def quartiles(values: List[float]):
    q1, med, q3 = statistics.quantiles(values, n=4)
    return q1, statistics.median(values), q3


def spread(values: List[float]) -> float:
    q1, med, q3 = quartiles(values)
    return (q3 - q1) / med


def worse_by(first: float, second: float, better: str) -> float:
    """How much worse the second median is, as a share of the first."""
    change = (second - first) / first
    return change if better == "lower" else -change


def compare(spec: dict, sets: List[Dict[str, List[dict]]]) -> bool:
    ok = True
    for workload in sets[0]:
        print(f"\n{workload}")
        print(f"  {'metric':<14}" + "".join(
            f"{'set ' + str(i + 1) + ' median [q1, q3] spread':>46}" for i in range(len(sets)))
            + f"{'bound':>8}{'worse':>9}  verdict")
        for metric in spec["end_to_end"]:
            name, bound = metric["name"], metric["bound"]
            cols, spreads, medians = "", [], []
            for s in sets:
                vals = [r["metrics"][name]["value"] for r in s[workload]]
                q1, med, q3 = quartiles(vals)
                spreads.append(spread(vals))
                medians.append(med)
                cols += f"{med:>14.5g} [{q1:.5g}, {q3:.5g}] {spreads[-1]:>6.1%}"
            verdict = "ok"
            if max(spreads) > bound:
                verdict = "SPREAD"
            worse = worse_by(medians[0], medians[-1], metric["better"])
            if worse > bound:
                verdict = "WORSE"
            if name in EXACT:
                a = [r["metrics"][name]["value"] for r in sets[0][workload]]
                b = [r["metrics"][name]["value"] for r in sets[-1][workload]]
                if a != b:
                    verdict = "NOT EXACT"
            ok &= verdict == "ok"
            print(f"  {name:<14}{cols}{bound:>8.0%}{worse:>+9.1%}  {verdict}")
        shares = []
        for i, s in enumerate(sets):
            runs = s[workload]
            failed = sum(r["failed"] for r in runs)
            attempted = sum(r["attempted"] for r in runs)
            shares.append(failed / attempted)
            tunes = [t for r in runs for t in r["context"]["tunes"]]
            speed = [t["tune_speed"] for t in tunes]
            correct = all(r["correct"] for r in runs)
            ok &= correct
            print(f"  set {i + 1}: {attempted} measurements, {failed} failed, "
                  f"correct={correct}, tune speed factor min/median/max "
                  f"{min(speed):.2f}/{statistics.median(speed):.2f}"
                  f"/{max(speed):.2f}")
        if len(set(shares)) > 1:
            print("  failed shares differ between the sets")
            ok = False
    return ok


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--runs", type=int, default=10, help="runs per workload per set")
    ap.add_argument("--out", default=None, help="write every run's result as JSON here")
    ap.add_argument("--load", default=None,
                    help="report on the results an earlier --out wrote; run nothing")
    args = ap.parse_args(argv)
    spec = load_spec()
    if args.load:
        with open(args.load) as fh:
            return 0 if compare(spec, json.load(fh)) else 1
    sets: List[Dict[str, List[dict]]] = []
    for i in range(SETS):
        runs: Dict[str, List[dict]] = {}
        for w in (w["name"] for w in spec["workloads"]):
            runs[w] = []
            for seed in range(1, args.runs + 1):
                r = one_run(w, seed, spec["run_seconds"])
                runs[w].append(r)
                m = {k: round(v["value"], 4) for k, v in r["metrics"].items()}
                print(f"set {i + 1} {w} seed {seed}: {m} "
                      f"speed {statistics.median(t['tune_speed'] for t in r['context']['tunes']):.2f}",
                      flush=True)
        sets.append(runs)
    if args.out:
        with open(args.out, "w") as fh:
            json.dump(sets, fh)
    return 0 if compare(spec, sets) else 1


if __name__ == "__main__":
    sys.exit(main())
