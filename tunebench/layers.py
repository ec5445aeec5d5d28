"""Outside-in layer profile: wrappers around public calls into each layer.

The benchmark does not instrument the program.  It replaces public methods
of the program's classes with wrappers that time each call on the process
CPU clock and count it.  Spans nest: a wrapper's *self* time is its call's
duration minus the time of the wrapped calls made inside it, so the self
times of all layers plus the tuner's own self time add up to the traced
tune.  Spans are aggregated in memory per layer name and read out once, at
the end of the tune.

:class:`PassCounter` is the untraced mode's only wrapper: a counter of pass
applications (``pass_runs``), too cheap to move the tune's CPU time.
"""

from __future__ import annotations

import time
from collections import defaultdict
from typing import Callable, Dict, List, Tuple

from repro.compiler.ir import Module
from repro.compiler.pass_manager import registry
from repro.core.cost_model import CitroenCostModel
from repro.core.generator import CandidateGenerator
from repro.core.task import AutotuningTask
from repro.machine.artifacts import ArtifactStore
from repro.machine.bytecode import BytecodeVM
from repro.machine.profiler import Profiler

clock = time.process_time


class _Patches:
    """Installed method replacements, undone by :meth:`remove`."""

    def __init__(self) -> None:
        self._saved: List[Tuple[type, str, object]] = []

    def set(self, owner: type, attr: str, new: Callable) -> None:
        self._saved.append((owner, attr, owner.__dict__.get(attr)))
        setattr(owner, attr, new)

    def remove(self) -> None:
        for owner, attr, before in reversed(self._saved):
            if before is None:
                delattr(owner, attr)
            else:
                setattr(owner, attr, before)
        self._saved.clear()


def pass_methods() -> List[Tuple[type, Callable]]:
    """``(class, run_on_module)`` of every registered pass, looked up before
    any wrapper is installed, so a subclass never wraps its parent's wrapper."""
    classes = {type(registry.create(n)) for n in registry.names()}
    return [(c, c.run_on_module) for c in sorted(classes, key=lambda c: c.__name__)]


class PassCounter:
    """Counts pass applications; the untraced mode's ``pass_runs``."""

    def __init__(self) -> None:
        self.runs = 0
        self._patches = _Patches()

    def install(self) -> "PassCounter":
        for cls, fn in pass_methods():
            self._patches.set(cls, "run_on_module", self._counted(fn))
        return self

    def _counted(self, fn: Callable) -> Callable:
        def run_on_module(pss, module, stats, target):
            self.runs += 1
            return fn(pss, module, stats, target)

        return run_on_module

    def remove(self) -> None:
        self._patches.remove()


class LayerRecorder:
    """Self-time spans and counters per layer, recorded from outside."""

    def __init__(self) -> None:
        self.self_s: Dict[str, float] = defaultdict(float)
        self.total_s: Dict[str, float] = defaultdict(float)
        self.calls: Dict[str, int] = defaultdict(int)
        self.counts: Dict[str, int] = defaultdict(int)
        # one slot per open span: CPU time of the child spans finished in it
        self._open: List[float] = []
        self._patches = _Patches()

    # -- spans ---------------------------------------------------------------
    def span(self, name: str, fn: Callable, after: Callable = None) -> Callable:
        """``fn`` wrapped in a span called ``name``; ``after(args, result)``
        may add counters once the call has returned."""
        open_spans = self._open
        self_s, total_s, calls = self.self_s, self.total_s, self.calls

        def wrapper(*args, **kwargs):
            t0 = clock()
            open_spans.append(0.0)
            try:
                result = fn(*args, **kwargs)
            finally:
                dt = clock() - t0
                children = open_spans.pop()
                self_s[name] += dt - children
                total_s[name] += dt
                calls[name] += 1
                if open_spans:
                    open_spans[-1] += dt
            if after is not None:
                after(args, result)
            return result

        return wrapper

    def run(self, name: str, fn: Callable, *args, **kwargs):
        """Call ``fn`` as the root span ``name`` (the tune)."""
        return self.span(name, fn)(*args, **kwargs)

    # -- installation ----------------------------------------------------------
    def install(self, task: AutotuningTask) -> "LayerRecorder":
        """Wrap each layer's public entry points; counters read ``task``."""
        counts = self.counts
        patch = self._patches.set
        span = self.span

        def count_noop(args, changed):
            if not changed:
                counts["compiler.noop_pass_runs"] += 1

        for cls, fn in pass_methods():
            patch(cls, "run_on_module", span("compiler.pass", fn, count_noop))
        patch(Module, "clone", span("compiler.clone", Module.clone))
        patch(AutotuningTask, "compile_batch", span("eval_engine", AutotuningTask.compile_batch))
        patch(CandidateGenerator, "ask", span("generator.ask", CandidateGenerator.ask))
        patch(CitroenCostModel, "fit", span("cost_model.fit", CitroenCostModel.fit))
        patch(CitroenCostModel, "add_observation",
              span("cost_model.extend", CitroenCostModel.add_observation))
        patch(CitroenCostModel, "predict_merged",
              span("cost_model.predict", CitroenCostModel.predict_merged))
        patch(CitroenCostModel, "coverage_many",
              span("cost_model.predict", CitroenCostModel.coverage_many))

        measure = AutotuningTask.measure

        def counted_measure(*args, **kwargs):
            before = task.n_measurements
            result = measure(*args, **kwargs)
            if task.n_measurements == before:
                counts["task.measure_cache_hits"] += 1
            return result

        patch(AutotuningTask, "measure", span("task.measure", counted_measure))

        def count_steps(args, result):
            counts["machine.vm_steps"] += result.steps

        patch(BytecodeVM, "run", span("machine.vm", BytecodeVM.run, count_steps))

        bytecode_for = Profiler.bytecode_for

        def counted_bytecode_for(profiler, *args, **kwargs):
            before = profiler.bytecode_compiles
            result = bytecode_for(profiler, *args, **kwargs)
            counts["machine.bytecode_builds"] += profiler.bytecode_compiles - before
            return result

        patch(Profiler, "bytecode_for", span("machine.bytecode", counted_bytecode_for))
        def count_harvested(args, fresh):
            # the compile engine prebuilds bytecode for every compiled candidate
            counts["machine.bytecode_builds"] += len(fresh)

        patch(ArtifactStore, "harvest",
              span("machine.harvest", ArtifactStore.harvest, count_harvested))
        return self

    def remove(self) -> None:
        self._patches.remove()
