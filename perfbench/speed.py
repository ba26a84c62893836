"""Timing at a reference CPU speed, for a host whose speed drifts.

On a small shared host, neighbours load the cores and the speed of this
process swings: on a 2-core VM the same DQN iteration took 1.3 s to 2.3 s
within one minute, and its CPU time moved with its wall time.  The median
iteration of a 30 s run then moved by 18% (quartile spread over runs).  A
fixed reference task, the *probe*, slows down in step.  So each timed region
is cut into segments at operation boundaries, probes run between segments
(outside the timed operations), and each segment's wall time is scaled by
``PROBE_REF_S / probe time``, the probe time being the mean of the probes on
either side.  The sum is the region's wall time at the reference speed: the
speed at which the probe takes ``PROBE_REF_S``.  Scaled this way, the spread
of run medians fell to 4-8% on every workload.

The probe uses no redsim code, so a change to the package moves the scaled
time as it moves the wall time.
"""

from __future__ import annotations

import json
import statistics
from time import perf_counter

import numpy as np

# Probe time at the reference speed: its median on the 2-core VM (Python
# 3.11, numpy with single-threaded OpenBLAS) where the benchmark was tuned.
PROBE_REF_S = 0.055
# Probes run before an operation once this long has passed since the last ones.
PROBE_EVERY_S = 1.0
# Probes run this many times in a row and count as their median: one probe
# strays by about 8% even while the host's speed holds.
PROBE_REPEATS = 3

_RNG = np.random.default_rng(0)
_WEIGHTS = _RNG.standard_normal((100, 100)) * 0.1
_BATCH = _RNG.standard_normal((32, 100))
_INDEX = _RNG.integers(0, 5000, 200_000)
_VALUES = _RNG.standard_normal(200_000)
_RECORDS = [{"obs": [i % 7, i % 3, 1, 0, i % 5], "action": i % 11, "reward": -1.0} for i in range(300)]


def probe() -> float:
    """Wall time of a fixed task mixing the program's kinds of work: bytecode
    and dicts, JSON encode and decode, small single-threaded matrix products,
    scattered array updates, and allocating and sorting many small objects."""
    start = perf_counter()
    counts: dict[int, int] = {}
    for i in range(75_000):
        key = i & 1023
        counts[key] = counts.get(key, 0) + i
    for _ in range(10):
        json.loads(json.dumps(_RECORDS))
    x = _BATCH
    for _ in range(750):
        x = np.tanh(x @ _WEIGHTS)
    for _ in range(5):
        np.add.at(np.zeros(5000), _INDEX, _VALUES)
    pairs = [(i, str(i)) for i in range(30_000)]
    pairs.sort(key=lambda pair: -pair[0])
    return perf_counter() - start


class SpeedMeter:
    """Wall time of one region's operations, raw and at the reference speed.

    Call ``before_op`` before each operation and ``add`` with its wall time
    after it; ``finish`` closes the region.  ``probe`` is injectable for tests.
    """

    def __init__(self, probe=probe, clock=perf_counter):
        self._probe = probe
        self._clock = clock
        self.raw_s = 0.0
        self.ref_s = 0.0
        self.probes: list[float] = []
        self._segment_s = 0.0
        self._take_probe()

    def _take_probe(self) -> None:
        self.probes.append(statistics.median(self._probe() for _ in range(PROBE_REPEATS)))
        self._probed_at = self._clock()

    def _close_segment(self) -> None:
        before = self.probes[-1]
        self._take_probe()
        self.ref_s += self._segment_s * PROBE_REF_S * 2 / (before + self.probes[-1])
        self._segment_s = 0.0

    def before_op(self) -> None:
        if self._segment_s and self._clock() - self._probed_at >= PROBE_EVERY_S:
            self._close_segment()

    def add(self, seconds: float) -> None:
        self.raw_s += seconds
        self._segment_s += seconds

    def finish(self) -> None:
        if self._segment_s:
            self._close_segment()
