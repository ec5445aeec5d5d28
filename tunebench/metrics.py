"""The benchmark's specification and the layer metrics that partition a tune.

``BENCHMARK.json`` at the repository root is the one list of workloads and
metrics (name, unit, direction, bound); :func:`load_spec` reads it.  Imports
nothing from ``repro``.
"""

from __future__ import annotations

import json
import os

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

#: self-time metrics that partition the traced tune (they sum to
#: ``trace.tune_cpu_s``); the other ``*_s`` layer metrics are
#: ``startup.*``, ``eval_engine.compile_batch_s`` and ``trace.*``
SELF_TIMES = [
    "compiler.pass_s",
    "compiler.clone_s",
    "eval_engine.self_s",
    "generator.ask_s",
    "cost_model.fit_s",
    "cost_model.extend_s",
    "cost_model.predict_s",
    "task.measure_s",
    "machine.vm_s",
    "machine.bytecode_s",
    "machine.harvest_s",
    "tuner.self_s",
]


def load_spec() -> dict:
    """``BENCHMARK.json``: workloads, ``end_to_end`` and ``per_layer`` metrics."""
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        return json.load(fh)
