"""Tests of the whole-tune benchmark.

    python3 -m pytest tunebench/tests -q

The end-to-end tests run ``run.py`` with tiny budgets (``--budget``) and one
tune per round (``--tunes 1``); they take about a minute.
"""

import json
import math
import os
import shutil
import subprocess
import sys
import time
from types import SimpleNamespace

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
BENCH = os.path.dirname(HERE)
ROOT = os.path.dirname(BENCH)
sys.path.insert(0, BENCH)
sys.path.insert(0, os.path.join(ROOT, "src"))

from checks import (  # noqa: E402
    CheckFailed,
    check_output,
    check_runtime_band,
    check_speedup,
    rebuild,
)
from hostspeed import REF_CHUNK_S, Mark, SpeedSampler  # noqa: E402
from metrics import SELF_TIMES, load_spec  # noqa: E402
from workloads import sub_seeds  # noqa: E402

from repro import cbench_program, get_platform  # noqa: E402
from repro.core.faults import corrupt_module  # noqa: E402

TINY = 6
SPEC = load_spec()
UNITS = {table: {m["name"]: m["unit"] for m in SPEC[table]}
         for table in ("end_to_end", "per_layer")}


def run(workload, seed, trace, cwd=ROOT, budget=TINY):
    proc = subprocess.run(
        [sys.executable, os.path.join(cwd, "tunebench", "run.py"),
         "--workload", workload, "--seed", str(seed), "--seconds", "1",
         "--trace", str(trace), "--budget", str(budget), "--tunes", "1"],
        cwd=cwd, capture_output=True, text=True, timeout=300,
    )
    return proc


def parse(proc):
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.strip().splitlines()
    return json.loads(lines[-2][len("context "):]), json.loads(lines[-1])


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_each_workload_prints_every_metric(workload, trace):
    context, result = parse(run(workload, 1, trace))
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"], context["errors"]
    assert result["attempted"] == TINY * (1 + trace)
    assert result["failed"] == 0
    units = UNITS["per_layer" if trace else "end_to_end"]
    assert {n: m["unit"] for n, m in result["metrics"].items()} == units
    values = {n: m["value"] for n, m in result["metrics"].items()}
    if trace:
        # the self times partition the traced tune
        assert math.isclose(sum(values[n] for n in SELF_TIMES),
                            values["trace.tune_cpu_s"], rel_tol=1e-6)
    else:
        assert all(v > 0 for v in values.values())


def test_same_seed_repeats_exact_counts():
    runs = [parse(run("citroen-lbm", 3, 1)) for _ in range(2)]
    counts = [
        {n: r["metrics"][n]["value"] for n, u in UNITS["per_layer"].items() if u == "count"}
        for _c, r in runs
    ]
    exact = [[(t["pass_runs"], t["best_speedup"]) for t in c["tunes"]] for c, _r in runs]
    assert counts[0] == counts[1]
    assert exact[0] == exact[1]


def test_run_fails_without_the_program(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(BENCH, tmp_path / "tunebench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = run("citroen-lbm", 1, 0, cwd=str(tmp_path))
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""


def test_output_check_rejects_a_corrupted_module():
    program = cbench_program("security_sha")
    platform = get_platform("arm-a57")
    modules = rebuild(program, {}, platform)
    assert check_output(program, modules, platform) > 0
    bad, _stats = corrupt_module((modules[0], {}))
    with pytest.raises(CheckFailed):
        check_output(program, [bad] + modules[1:], platform)


def test_speedup_check_rejects_a_wrong_speedup():
    o3, runtime = 2.0e-3, 1.7e-3

    def tune(recorded, reported):
        best = SimpleNamespace(runtime=runtime, speedup_vs_o3=recorded)
        return best, SimpleNamespace(speedup_over_o3=lambda: reported)

    assert check_speedup(*tune(o3 / runtime, o3 / runtime), o3) == o3 / runtime
    # the tuner's own recorded speedup is wrong
    with pytest.raises(CheckFailed):
        check_speedup(*tune(o3 / runtime * 1.01, o3 / runtime), o3)
    # the result reports a wrong speedup
    with pytest.raises(CheckFailed):
        check_speedup(*tune(o3 / runtime, o3 / runtime * 1.01), o3)
    # both agree with each other but not with the task's -O3 anchor
    with pytest.raises(CheckFailed):
        check_speedup(*tune(o3 / runtime, o3 / runtime), o3 * 1.01)


def test_runtime_band_follows_the_noise_model():
    platform = get_platform("arm-a57")
    band = 6 * platform.noise / math.sqrt(3)
    check_runtime_band(1.0 + 0.9 * band, 1.0, platform, 3)
    with pytest.raises(CheckFailed):
        check_runtime_band(1.0 + 1.1 * band, 1.0, platform, 3)


def test_sub_seeds_are_distinct_across_run_seeds():
    seen = [s for seed in range(1, 50) for s in sub_seeds(seed, 6)]
    assert len(seen) == len(set(seen))


def test_scaling_removes_the_chunks_and_divides_by_the_speed():
    sampler = SpeedSampler()
    sampler.chunk_s = [1.0, 2 * REF_CHUNK_S, 2 * REF_CHUNK_S]
    begin, end = Mark(1.0, 1), Mark(3.0 + 4 * REF_CHUNK_S, 3)
    seconds, own, speed = sampler.scaled(begin, end)
    assert math.isclose(own, 2.0)
    assert math.isclose(speed, 2.0)
    assert math.isclose(seconds, 1.0)


def test_sampler_samples_while_the_program_runs():
    sampler = SpeedSampler().start()
    try:
        begin = sampler.mark()
        deadline = time.perf_counter() + 0.3
        while time.perf_counter() < deadline:
            pass
        end = sampler.mark()
    finally:
        sampler.stop()
    assert end.chunks - begin.chunks >= 5
    assert sampler.scaled(begin, end).own_s > 0
