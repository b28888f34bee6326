"""Host speed, read by timing a fixed pure-Python kernel.

The end-to-end times are reported in *reference seconds*: host seconds
rescaled by how fast the host ran at that moment.  On a shared host the
same work can take 1.7x longer for tens of seconds while other tenants
load the cores, which moves every wall-clock figure together.  A run
therefore times a small fixed kernel between units of work, and a
measured interval counts ``REFERENCE_S / kernel time`` reference
seconds per host second, using the kernel readings taken around it.  A
change to the program does not touch the kernel, so it shows in full.

Which kernel follows the program depends on the program's hot loops,
so each workload names its own (see :class:`Kernel`); each runs with
the garbage collector paused so that the program's heap does not leak
into the reading.  Over 100 s of a 2-vCPU VM whose speed swung by 1.7x,
in 2-s windows, the log-ratio of program time to kernel time varied
with a standard deviation of 0.04 for storm calls, 0.08 for rig builds
and 0.02 for physics steps with :data:`CALC`, against 0.07, 0.12 and
0.06 with :data:`CHURN`; ring routing, the bulk of a city, moved one
for one with :data:`CHURN` and 1.3 times as much as :data:`CALC`.
"""

from __future__ import annotations

import gc
import heapq
import math
import statistics
import time
from typing import Callable, List, NamedTuple, Tuple

clock = time.perf_counter


class Kernel(NamedTuple):
    """A fixed piece of work and its time on the reference host: one
    reference second is the time that host needs for 1 / reference_s
    runs of it."""

    run: Callable[[], object]
    reference_s: float


class _Item:
    __slots__ = ("a", "b")


def _churn(n: int = 600) -> int:
    acc = 0
    table = {}
    for i in range(n):
        item = _Item()
        item.a = i
        item.b = {"k": i, "v": i & 7}
        copy = item.b.copy()
        table[i & 255] = copy
        if isinstance(copy, dict):
            acc += copy["v"] + len(table)
    return acc


def _calc(n: int = 800) -> float:
    x = 0.0
    for i in range(n):
        a = i * 0.001
        x += (math.sin(a) * math.cos(a) + math.sqrt(a + 1.0)
              - math.atan2(a, 1.0))
    heap: List[Tuple[int, int]] = []
    for i in range(n * 2 // 5):
        heapq.heappush(heap, ((i * 7919) % 1013, i))
    while heap:
        x += heapq.heappop(heap)[1]
    return x


#: Object and dict churn: follows ring routing and the invariant sweep.
CHURN = Kernel(_churn, 400e-6)
#: Float math, then a heap of tuples: follows binder calls, rig builds
#: and physics steps.  540 µs is its time when CHURN takes 400 µs, so
#: the two give reference seconds of the same length.
CALC = Kernel(_calc, 540e-6)


class Speedometer:
    """Kernel readings over a run, and the scale they give an interval."""

    def __init__(self, kernel: Kernel = CALC) -> None:
        self.kernel = kernel
        #: (host clock when the reading started, kernel seconds)
        self.readings: List[Tuple[float, float]] = []

    def read(self, times: int = 1) -> None:
        was_enabled = gc.isenabled()
        gc.disable()
        try:
            for _ in range(times):
                start = clock()
                self.kernel.run()
                self.readings.append((start, clock() - start))
        finally:
            if was_enabled:
                gc.enable()

    def scale(self, start: float, end: float, pad: float) -> float:
        """Reference seconds per host second over ``[start, end]``, from
        the median of the readings taken within ``pad`` seconds of it."""
        near = [seconds for at, seconds in self.readings
                if start - pad <= at <= end + pad]
        if not near:
            raise ValueError("no speed reading near the interval")
        return self.kernel.reference_s / statistics.median(near)
