"""Host-speed sampling: scale a phase's CPU time to a reference host speed.

The benchmark runs on shared hosts whose speed swings with clock frequency,
a busy sibling hyperthread or a neighbour's cache pressure: identical tunes
took from 0.7x to 1.7x of each other's CPU time.  :class:`SpeedSampler`
measures that swing while the program runs.  Every ``INTERVAL_S`` of wall
time a ``SIGALRM`` handler runs a fixed chunk of pure-Python work (dict
updates, integer arithmetic, a ``deepcopy`` and a sort; no ``repro`` code)
with the garbage collector paused, and times it on the thread CPU clock.

A phase's own CPU time is its process CPU time minus the chunks run inside
it.  Its scaled time is the own time times ``REF_CHUNK_S`` over the mean
chunk time of the phase: the CPU seconds the phase would take on a host
where the chunk takes ``REF_CHUNK_S``.  The chunks cost about 2% of the
CPU time; a program change cannot move them, since they run no program code.

Imports nothing from ``repro``.
"""

from __future__ import annotations

import copy
import gc
import signal
import statistics
import time
from typing import List, NamedTuple

#: wall seconds between chunks
INTERVAL_S = 0.025
#: the chunk's CPU time on the reference host (2-vCPU KVM Intel Xeon)
REF_CHUNK_S = 0.5e-3

_TREE = {
    "blocks": [
        {"name": f"b{i}", "instrs": [("add", i, j, 1.5 * j) for j in range(6)],
         "succ": [i + 1]}
        for i in range(8)
    ]
}


def chunk() -> int:
    """The fixed work one sample times."""
    acc = 0
    table = {}
    for i in range(400):
        table[i & 63] = i * 3 + acc
        acc = (acc + table.get(i & 31, 0) * 7) & 0xFFFFF
    tree = copy.deepcopy(_TREE)
    names = sorted((b["name"] for b in tree["blocks"]), reverse=True)
    return acc + len(names)


class Mark(NamedTuple):
    cpu: float  # process CPU seconds
    chunks: int  # chunks taken so far


class Scaled(NamedTuple):
    seconds: float  # own CPU seconds at the reference speed
    own_s: float  # CPU seconds of the phase minus its chunks
    speed: float  # mean chunk time over REF_CHUNK_S: >1 on a slow host


class SpeedSampler:
    """Times ``chunk()`` every ``INTERVAL_S`` while started."""

    def __init__(self) -> None:
        self.chunk_s: List[float] = []

    def _sample(self, *_signal) -> None:
        enabled = gc.isenabled()
        gc.disable()
        t0 = time.thread_time()
        chunk()
        self.chunk_s.append(time.thread_time() - t0)
        if enabled:
            gc.enable()

    def start(self) -> "SpeedSampler":
        signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)
        return self

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)

    def mark(self) -> Mark:
        """A phase boundary.  Takes one sample first, so every phase that
        ends here holds at least one."""
        self._sample()
        return Mark(time.process_time(), len(self.chunk_s))

    def scaled(self, begin: Mark, end: Mark) -> Scaled:
        chunks = self.chunk_s[begin.chunks:end.chunks]
        own = end.cpu - begin.cpu - sum(chunks)
        speed = statistics.fmean(chunks) / REF_CHUNK_S
        return Scaled(own / speed, own, speed)
