"""Host-speed probe: a fixed pure-Python kernel timed between workload steps.

On a shared host the same work can take ±25% longer or shorter from one
second to the next, and the level drifts over minutes, because other
tenants contend for the cores.  The probe samples the host's speed while
passes run: a pass calls the probe between its steps (and a service pass hands it to
``ServiceScheduler.run`` as ``should_stop``, which the scheduler polls
before each job).  The probe runs its kernel at most once per
:data:`GAP_S`, so it costs about 2% of a pass.

The run's *slowdown* is the time-weighted mean probe time divided by
:data:`REFERENCE_S`, the kernel's time on an uncontended host.  Dividing
the run's host times by it rescales them to that host.  On the 2-core
host the benchmark was defined on, six identical sweep runs spread 29% in
raw best-pass throughput and 4% after rescaling.  The kernel does not use
the code under test, so a change to that code cannot move the probe.
"""

from __future__ import annotations

import time
from typing import List, Tuple

#: Minimum host time between two probe samples.
GAP_S = 0.05

#: Kernel time on an uncontended host: the fastest samples seen on the
#: 2-core x86 host the benchmark was defined on took 0.5-0.6 ms.
REFERENCE_S = 0.0006


def _kernel() -> float:
    """About a millisecond of dict, list and float work."""
    table = {}
    acc = 0.0
    for i in range(1500):
        key = i % 97
        table[key] = table.get(key, 0.0) * 0.5 + i * 1.000001
        acc += table[key] / (1.0 + key)
        row = [acc, key, i]
        row.sort()
    return acc


class SpeedProbe:
    """Samples the kernel's host time while passes run."""

    def __init__(self) -> None:
        #: (start, duration) of every sample, in host seconds.
        self.samples: List[Tuple[float, float]] = []
        self._last = float("-inf")

    def __call__(self) -> bool:
        """Take a sample unless one was taken in the last :data:`GAP_S`.

        Returns False, so the probe can be passed as ``should_stop``.
        """
        now = time.perf_counter()
        if now - self._last >= GAP_S:
            _kernel()
            self._last = time.perf_counter()
            self.samples.append((now, self._last - now))
        return False

    def slowdown(self) -> float:
        """Time-weighted mean sample over :data:`REFERENCE_S`.

        Each sample stands for the host time until the next one, so long
        steps with a single sample before them weigh as much as the many
        short steps of the same length of time.
        """
        starts = [start for start, _ in self.samples]
        weights = [later - earlier for earlier, later in zip(starts, starts[1:])]
        durations = [duration for _, duration in self.samples[:-1]]
        mean = sum(w * d for w, d in zip(weights, durations)) / sum(weights)
        return mean / REFERENCE_S


def no_probe() -> bool:
    """Stand-in for untimed passes (the traced run compares raw walls)."""
    return False
