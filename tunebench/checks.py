"""Correctness checks on a finished tune that do not trust the tuner's path.

The best configuration is recompiled from source with ``run_opt``, verified,
and executed on the tree-walking ``Interpreter`` (not the bytecode VM the
tune measured with).  Its output must equal the unoptimised program's and
its noise-free modeled runtime must agree with the runtime the tune
recorded, within the band the platform's noise model allows.  Each check
raises :class:`CheckFailed` naming what went wrong.
"""

from __future__ import annotations

import math
from typing import Dict, List, Sequence

from repro.compiler import pipeline, run_opt, verify_module
from repro.compiler.ir import Module
from repro.core.result import TuningResult
from repro.machine import Interpreter, Platform, estimate_cycles
from repro.workloads.program import Program

#: half-width of the agreement band in standard deviations of a recorded
#: runtime; 6 sigma leaves the minimum of 1,500 noisy draws inside it
BAND_SIGMAS = 6.0


class CheckFailed(AssertionError):
    """A tune's outputs failed a correctness check."""


def check_history(result: TuningResult, budget: int) -> None:
    if len(result.measurements) != budget:
        raise CheckFailed(
            f"history holds {len(result.measurements)} measurements, budget {budget}"
        )


def best_measurement(result: TuningResult):
    """The feasible measurement with the lowest recorded runtime."""
    feasible = [m for m in result.measurements if m.correct]
    if not feasible:
        raise CheckFailed("no feasible measurement in the history")
    best = min(feasible, key=lambda m: m.runtime)
    if best.runtime != result.best_runtime:
        raise CheckFailed(
            f"best feasible runtime {best.runtime!r} != result.best_runtime "
            f"{result.best_runtime!r}"
        )
    if dict(best.sequences) != dict(result.best_config):
        raise CheckFailed("best measurement's configuration != result.best_config")
    return best


def rebuild(program: Program, config: Dict[str, Sequence[str]], platform: Platform) -> List[Module]:
    """Every module compiled from source: tuned modules with their sequence,
    the rest at -O3.  Each result must pass ``verify_module``."""
    target = platform.target_info()
    o3 = pipeline("-O3")
    modules = []
    for src in program.modules:
        module = run_opt(src, list(config.get(src.name, o3)), target=target).module
        try:
            verify_module(module)
        except AssertionError as exc:
            raise CheckFailed(f"module {module.name} fails verify_module: {exc}") from exc
        modules.append(module)
    return modules


def check_output(program: Program, modules: List[Module], platform: Platform) -> float:
    """Run ``modules`` on the tree walker; the output must match the
    reference.  Returns the noise-free modeled runtime in seconds."""
    result = Interpreter(modules, fuel=program.fuel).run(program.entry)
    if result.output_signature() != program.reference_output().output_signature():
        raise CheckFailed("tree-walker output differs from the reference output")
    cycles = estimate_cycles(modules, result.block_counts, platform)
    return cycles / (platform.ghz * 1e9)


def check_runtime_band(recorded: float, modeled: float, platform: Platform, repeats: int) -> None:
    """``recorded`` is a mean of ``repeats`` samples, each ``modeled`` times
    (1 + noise * N(0, 1)); it must lie within BAND_SIGMAS of ``modeled``."""
    band = BAND_SIGMAS * platform.noise / math.sqrt(repeats)
    if not abs(recorded / modeled - 1.0) <= band:
        raise CheckFailed(
            f"recorded best {recorded!r} s is {recorded / modeled - 1.0:+.4f} "
            f"off the modeled {modeled!r} s (band +-{band:.4f})"
        )


def check_speedup(best, result: TuningResult, o3_runtime: float) -> float:
    """``best_speedup`` is ``o3_runtime`` (the task's -O3 anchor) over the
    best recorded runtime.  The speedup the tuner recorded with that
    measurement, and the one the result reports, must both equal it."""
    speedup = o3_runtime / best.runtime
    for what, value in (("the tuner's recorded speedup_vs_o3", best.speedup_vs_o3),
                        ("result.speedup_over_o3()", result.speedup_over_o3())):
        if value != speedup:
            raise CheckFailed(
                f"{what} {value!r} != -O3 runtime / best runtime {speedup!r}"
            )
    return speedup


def check_tune(result: TuningResult, program: Program, platform: Platform,
               budget: int, repeats: int, o3_runtime: float) -> float:
    """All checks on one finished tune; returns its ``best_speedup``."""
    check_history(result, budget)
    best = best_measurement(result)
    modules = rebuild(program, result.best_config, platform)
    modeled = check_output(program, modules, platform)
    check_runtime_band(best.runtime, modeled, platform, repeats)
    return check_speedup(best, result, o3_runtime)
