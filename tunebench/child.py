"""One tune in a fresh process: set up, tune, check, print one JSON line.

    python3 tunebench/child.py --workload citroen-lbm --seed 100 --trace 0

``run.py`` starts this once per tune with one BLAS thread and a fixed
``PYTHONHASHSEED``.  ``setup_s`` is the process's CPU time from interpreter
start to a ready ``AutotuningTask``; ``tune_cpu_s`` is the CPU time of
``tuner.tune(budget)``.  Both are scaled to the reference host speed by
:class:`hostspeed.SpeedSampler`; their own, unscaled CPU times are
``setup_raw_s`` and ``tune_raw_s``.  With ``--trace 1`` the sampler stops
after set-up and the tune runs under :class:`layers.LayerRecorder`, whose
layer profile (process CPU seconds, unscaled) the line carries.
"""

import time  # first: setup_s counts from interpreter start

import argparse
import json
import os
import resource
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)
sys.path.insert(0, os.path.join(ROOT, "src"))

from hostspeed import Mark, SpeedSampler  # noqa: E402

SAMPLER = SpeedSampler().start()

from repro import (  # noqa: E402
    AutotuningTask,
    Citroen,
    RandomSearchTuner,
    cbench_program,
    spec_program,
)

IMPORTED = SAMPLER.mark()

from checks import CheckFailed, check_tune  # noqa: E402
from layers import LayerRecorder, PassCounter  # noqa: E402
from workloads import PLATFORM, WORKLOADS  # noqa: E402


def layer_profile(rec: LayerRecorder, task, tuner, result, memo0: int) -> dict:
    s, calls, counts = rec.self_s, rec.calls, rec.counts
    timing = result.timing
    model = getattr(tuner, "model", None)
    return {
        "compiler.pass_s": s["compiler.pass"],
        "compiler.noop_pass_runs": counts["compiler.noop_pass_runs"],
        "compiler.clone_calls": calls["compiler.clone"],
        "compiler.clone_s": s["compiler.clone"],
        "eval_engine.compile_batch_s": rec.total_s["eval_engine"],
        "eval_engine.self_s": s["eval_engine"],
        "eval_engine.compiles": timing["n_compiles"],
        "eval_engine.cache_hits": timing["compile_cache_hits"],
        "generator.ask_s": s["generator.ask"],
        "cost_model.fit_s": s["cost_model.fit"],
        "cost_model.full_refits": model.n_refits if model is not None else 0,
        "cost_model.extend_s": s["cost_model.extend"],
        "cost_model.predict_s": s["cost_model.predict"],
        "citroen.dedup_hits": result.extras.get("dedup_hits", 0),
        "task.measure_s": s["task.measure"],
        "task.measure_cache_hits": counts["task.measure_cache_hits"],
        "machine.vm_runs": calls["machine.vm"],
        "machine.vm_steps": counts["machine.vm_steps"],
        "machine.vm_s": s["machine.vm"],
        "machine.bytecode_builds": counts["machine.bytecode_builds"],
        "machine.bytecode_s": s["machine.bytecode"],
        "machine.memo_hits": task.profiler.execution_memo_hits - memo0,
        "machine.harvest_s": s["machine.harvest"],
        "tuner.self_s": s["tuner"],
    }


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--budget", type=int, default=None,
                    help="override the workload's budget (the tests' tiny tunes)")
    args = ap.parse_args(argv)
    wl = WORKLOADS[args.workload]
    budget = args.budget if args.budget is not None else wl.budget

    load = spec_program if wl.suite == "spec" else cbench_program
    task = AutotuningTask(
        load(wl.program), platform=PLATFORM, seed=args.seed,
        seq_length=wl.seq_length, jobs=1,
    )
    ready = SAMPLER.mark()
    setup = SAMPLER.scaled(Mark(0.0, 0), ready)
    if args.trace:
        SAMPLER.stop()

    tuner = (Citroen if wl.tuner == "citroen" else RandomSearchTuner)(task, seed=args.seed)
    memo0 = task.profiler.execution_memo_hits
    hook = LayerRecorder().install(task) if args.trace else PassCounter().install()
    if args.trace:
        t0, w0 = time.process_time(), time.perf_counter()
        result = hook.run("tuner", tuner.tune, budget)
        tune_raw = tune_cpu = time.process_time() - t0
        tune_speed = None
    else:
        begin, w0 = SAMPLER.mark(), time.perf_counter()
        result = tuner.tune(budget)
        tune_cpu, tune_raw, tune_speed = SAMPLER.scaled(begin, SAMPLER.mark())
        SAMPLER.stop()
    tune_wall = time.perf_counter() - w0
    hook.remove()
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    out = {
        "workload": wl.name,
        "seed": args.seed,
        "trace": args.trace,
        "budget": budget,
        "setup_s": setup.seconds,
        "setup_raw_s": setup.own_s,
        "setup_speed": setup.speed,
        "tune_cpu_s": tune_cpu,
        "tune_raw_s": tune_raw,
        "tune_speed": tune_speed,
        "tune_wall_s": tune_wall,
        "peak_rss_mb": peak_rss_mb,
        "attempted": len(result.measurements),
        "failed": result.n_infeasible,
        "correct": True,
        "error": "",
    }
    if args.trace:
        out["layers"] = dict(
            layer_profile(hook, task, tuner, result, memo0),
            **{"startup.import_s": IMPORTED.cpu, "startup.task_init_s": ready.cpu - IMPORTED.cpu,
               "trace.tune_cpu_s": hook.total_s["tuner"]},
        )
        out["pass_runs"] = hook.calls["compiler.pass"]
    else:
        out["pass_runs"] = hook.runs
    try:
        out["best_speedup"] = check_tune(
            result, task.program, task.platform, budget, task.repeats, task.o3_runtime
        )
    except CheckFailed as exc:
        out["correct"] = False
        out["error"] = str(exc)
        out["best_speedup"] = result.speedup_over_o3() if result.measurements else 0.0
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
