"""The benchmark's workloads: which program, tuner, budget and pass-sequence
length each one tunes, and how a run's seed becomes the seeds of its tunes.
Why each workload is in the benchmark is said in ``BENCHMARK.json``.

Imports nothing from ``repro``, so the parent process of a run stays small.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List

PLATFORM = "arm-a57"


@dataclass(frozen=True)
class Workload:
    name: str
    suite: str  # "spec" or "cbench"
    program: str
    tuner: str  # "citroen" or "random"
    budget: int
    seq_length: int
    #: tunes per round, each at its own sub-seed; a run reports medians
    #: over them.  The tune's CPU time depends on its seed (a CITROEN tune
    #: on 519.lbm_r whose incumbents have large IR runs passes 1.7x slower
    #: at the same pass count), so the cheaper the tune, the more tunes.
    tunes: int


WORKLOADS: Dict[str, Workload] = {
    w.name: w
    for w in (
        Workload("citroen-lbm", "spec", "519.lbm_r", "citroen", 20, 32, 6),
        Workload("citroen-sha-long", "cbench", "security_sha", "citroen", 250, 16, 3),
        Workload("random-lbm", "spec", "519.lbm_r", "random", 800, 32, 4),
    )
}


def sub_seeds(seed: int, tunes: int) -> List[int]:
    """Seeds of the ``tunes`` tunes in one round of a run at ``seed``."""
    return [seed * 100 + k for k in range(tunes)]
