"""Whole-tune benchmark: run one workload at one seed and print its metrics.

    python3 tunebench/run.py --workload citroen-lbm --seed 1 --seconds 30 --trace 0

A round is one tune at each of the run's sub-seeds (``workloads.sub_seeds``),
each in a fresh ``child.py`` process with one BLAS thread and a fixed
``PYTHONHASHSEED``.  Rounds repeat while one more fits in ``--seconds``; at
least one always runs.  Every round does the same work, so the exact counts
(``pass_runs``, ``best_speedup``) do not depend on how many rounds ran, and
each repeat must reproduce them.

``--trace 0`` prints the end-to-end metrics: medians of ``setup_s``,
``tune_cpu_s`` (CPU seconds scaled to the reference host speed, see
``hostspeed.py``) and ``peak_rss_mb`` over the tunes, the geometric mean of
``best_speedup`` and the mean of ``pass_runs`` over the sub-seeds.
``--trace 1`` traces every tune and prints the per-layer metrics as per-tune
means over the traced tunes.  It also runs the first sub-seed untraced:
``trace.overhead_s`` is that sub-seed's traced minus untraced unscaled
tune CPU time (``tune_raw_s``).

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``; the line before it,
``context {...}``, holds the per-tune figures with their host-speed
factors.  The run exits non-zero, printing no result, if a tune cannot
run at all.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import statistics
import subprocess
import sys
import time
from typing import Dict, List

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

from metrics import load_spec  # noqa: E402
from workloads import WORKLOADS, sub_seeds  # noqa: E402

#: a run must end within 180 s; no tune starts that could pass this
DEADLINE_S = 170.0

CHILD_ENV = {
    "PYTHONHASHSEED": "0",
    "OPENBLAS_NUM_THREADS": "1",
    "OMP_NUM_THREADS": "1",
    "MKL_NUM_THREADS": "1",
}


class RunFailed(RuntimeError):
    """A tune could not run to its end."""


def run_tune(workload: str, seed: int, trace: int, budget, timeout: float) -> dict:
    cmd = [sys.executable, os.path.join(HERE, "child.py"),
           "--workload", workload, "--seed", str(seed), "--trace", str(trace)]
    if budget is not None:
        cmd += ["--budget", str(budget)]
    env = dict(os.environ, **CHILD_ENV)
    try:
        proc = subprocess.run(cmd, cwd=ROOT, env=env, capture_output=True,
                              text=True, timeout=max(1.0, timeout))
    except subprocess.TimeoutExpired as exc:
        raise RunFailed(f"tune {workload} seed {seed} passed the {DEADLINE_S:.0f} s deadline") from exc
    if proc.returncode != 0:
        raise RunFailed(
            f"tune {workload} seed {seed} exited {proc.returncode}:\n{proc.stderr[-2000:]}"
        )
    return json.loads(proc.stdout.strip().splitlines()[-1])


def run_rounds(workload: str, seed: int, seconds: float, trace: int,
               budget, tunes: int) -> List[dict]:
    """Whole rounds while the next one fits in ``seconds``."""
    start = time.perf_counter()
    done: List[dict] = []
    while True:
        round_start = time.perf_counter()
        seeds = sub_seeds(seed, tunes)
        # traced: every sub-seed traced, plus the first one untraced, the
        # same work twice, for the tracing overhead
        jobs = [(s, trace) for s in seeds] + ([(seeds[0], 0)] if trace else [])
        for s, mode in jobs:
            left = DEADLINE_S - (time.perf_counter() - start)
            done.append(run_tune(workload, s, mode, budget, left))
        now = time.perf_counter()
        last = now - round_start
        if now - start + last > min(seconds, DEADLINE_S):
            return done


def check_repeats(tunes: List[dict]) -> str:
    """Repeats of one sub-seed must do identical work."""
    by_seed: Dict[int, set] = {}
    for t in tunes:
        by_seed.setdefault(t["seed"], set()).add((t["pass_runs"], t["best_speedup"]))
    bad = sorted(s for s, v in by_seed.items() if len(v) > 1)
    return f"sub-seeds {bad} did not repeat pass_runs/best_speedup exactly" if bad else ""


def per_seed(tunes: List[dict], key: str) -> List[float]:
    """Median of ``key`` over each sub-seed's repeats, in seed order."""
    seeds = sorted({t["seed"] for t in tunes})
    return [statistics.median(t[key] for t in tunes if t["seed"] == s) for s in seeds]


def end_to_end(tunes: List[dict]) -> Dict[str, float]:
    speedups = per_seed(tunes, "best_speedup")
    return {
        "setup_s": statistics.median(t["setup_s"] for t in tunes),
        "tune_cpu_s": statistics.median(per_seed(tunes, "tune_cpu_s")),
        "peak_rss_mb": statistics.median(t["peak_rss_mb"] for t in tunes),
        "best_speedup": math.exp(statistics.fmean(math.log(v) for v in speedups)),
        "pass_runs": statistics.fmean(per_seed(tunes, "pass_runs")),
    }


def per_layer(names: List[str], plain: List[dict], traced: List[dict]) -> Dict[str, float]:
    out = {}
    for name in names:
        if name == "trace.overhead_s":
            twins = [t for t in traced if t["seed"] in {p["seed"] for p in plain}]
            out[name] = (statistics.fmean(t["tune_raw_s"] for t in twins)
                         - statistics.fmean(t["tune_raw_s"] for t in plain))
        else:
            out[name] = statistics.fmean(t["layers"][name] for t in traced)
    return out


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    ap.add_argument("--budget", type=int, default=None,
                    help="override the workload's budget (the tests' tiny tunes)")
    ap.add_argument("--tunes", type=int, default=None,
                    help="override the workload's tunes per round (the tests' short runs)")
    args = ap.parse_args(argv)
    units = {m["name"]: m["unit"]
             for m in load_spec()["per_layer" if args.trace else "end_to_end"]}
    if not os.path.isdir(os.path.join(ROOT, "src", "repro")):
        print(f"no program to benchmark: {os.path.join(ROOT, 'src', 'repro')} is missing",
              file=sys.stderr)
        return 2
    try:
        tunes = run_rounds(args.workload, args.seed, args.seconds, args.trace,
                           args.budget, args.tunes or WORKLOADS[args.workload].tunes)
    except RunFailed as exc:
        print(exc, file=sys.stderr)
        return 1

    plain = [t for t in tunes if not t["trace"]]
    traced = [t for t in tunes if t["trace"]]
    errors = [e for e in [check_repeats(tunes)] + [t["error"] for t in tunes] if e]
    values = per_layer(list(units), plain, traced) if args.trace else end_to_end(plain)
    context = {
        "workload": args.workload,
        "seed": args.seed,
        "tunes": [{k: t[k] for k in ("seed", "trace", "setup_s", "setup_raw_s",
                                     "setup_speed", "tune_cpu_s", "tune_raw_s",
                                     "tune_speed", "tune_wall_s", "peak_rss_mb",
                                     "pass_runs", "best_speedup")}
                  for t in tunes],
        "errors": errors,
    }
    print("context " + json.dumps(context))
    print(json.dumps({
        "correct": not errors,
        "attempted": sum(t["attempted"] for t in tunes),
        "failed": sum(t["failed"] for t in tunes),
        "metrics": {n: {"value": values[n], "unit": units[n]} for n in units},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
