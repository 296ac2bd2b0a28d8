"""Paths and small statistics shared by the benchmark's processes."""

from __future__ import annotations

import gc
import json
import math
import resource
import sys
import time
from bisect import bisect_left, bisect_right
from pathlib import Path
from typing import Iterable, List, Sequence, Tuple

HERE = Path(__file__).resolve().parent
#: the checkout the benchmark runs from; the program under test is
#: imported from its ``src`` tree
ROOT = HERE.parent
SRC = ROOT / "src"
#: scratch space for stores and trace files (ignored by git)
WORK = ROOT / ".perfbench_work"

#: the service workload's per-request latency limit
LIMIT_S = 0.250


def use_source_tree() -> None:
    """Make ``import repro`` resolve to this checkout's ``src`` tree."""
    for path in (str(SRC), str(HERE)):
        if path not in sys.path:
            sys.path.insert(0, path)


#: iterations of the speed kernel in one slice, and a slice's time at
#: the reference speed (about the quick stretches of a 2-vCPU cloud VM)
SLICE_ITERS = 25000
REF_SLICE_S = 0.004


class _Cell:
    __slots__ = ("key", "value")

    def __init__(self, key: int, value: int) -> None:
        self.key = key
        self.value = value


def _speed_kernel(n: int) -> int:
    """Fixed pure-Python work: object allocation, attribute and dict
    traffic, like the compiler's, but none of the program's code."""
    table = {}
    for i in range(n):
        cell = _Cell(i & 255, i)
        table[cell.key] = cell
    return len(table)


class Speedometer:
    """Tracks the host's current speed with a fixed kernel timed between
    measured operations.

    A shared VM's speed drifts by up to 2x within a minute, which swamps
    any change to the program.  Each :meth:`sample` times a group of
    slices of :func:`_speed_kernel` (with the collector off, so the
    program's heap cannot slow it); :meth:`factor` turns a time measured
    between two groups into a time at the reference speed, at which one
    slice takes ``REF_SLICE_S``.  The kernel is the benchmark's own code,
    so a change to the program moves the scaled times and not the
    factor.  A slice is timed in CPU seconds of the sampling thread, so
    other threads holding the interpreter lock do not count.
    """

    def __init__(self) -> None:
        self.spans: List[Tuple[float, float]] = []  # each group's wall span
        self.times: List[float] = []   # each group's midpoint
        self.slices: List[float] = []  # each group's median slice time
        self.spent_s = 0.0             # time taken by all the groups

    def sample(self, slices: int = 1) -> None:
        was = gc.isenabled()
        gc.disable()
        try:
            start = time.perf_counter()
            took = []
            for _ in range(slices):
                t0 = time.thread_time()
                _speed_kernel(SLICE_ITERS)
                took.append(time.thread_time() - t0)
            end = time.perf_counter()
        finally:
            if was:
                gc.enable()
        self.spent_s += end - start
        self.spans.append((start, end))
        self.times.append((start + end) / 2.0)
        self.slices.append(median(took))

    def factor(self, start: float, end: float) -> float:
        """Reference seconds per measured second over ``[start, end]``,
        from the groups nearest before and after it."""
        near = [
            self.slices[k]
            for k in (bisect_right(self.times, start) - 1,
                      bisect_left(self.times, end))
            if 0 <= k < len(self.slices)
        ]
        if not near:
            raise ValueError("no speed sample taken")
        return REF_SLICE_S * len(near) / sum(near)

    def scaled(self, start: float, end: float) -> float:
        """Seconds of ``[start, end]`` at the reference speed, leaving
        out the groups sampled inside it; each stretch between two groups
        is scaled by its own factor."""
        total = 0.0
        at = start
        for g0, g1 in self.spans:
            if start < g0 and g1 < end:
                total += (g0 - at) * self.factor(at, g0)
                at = g1
        return total + (end - at) * self.factor(at, end)

    def median_slice_ms(self) -> float:
        return median(self.slices) * 1000.0


def percentile(values: Sequence[float], q: float) -> float:
    """Linear-interpolated percentile ``q`` (0..100) of ``values``."""
    if not values:
        raise ValueError("percentile of no values")
    ordered = sorted(values)
    rank = (len(ordered) - 1) * q / 100.0
    lo = math.floor(rank)
    hi = min(lo + 1, len(ordered) - 1)
    return ordered[lo] + (ordered[hi] - ordered[lo]) * (rank - lo)


def median(values: Sequence[float]) -> float:
    return percentile(values, 50.0)


def geomean(values: Iterable[float]) -> float:
    logs = [math.log(v) for v in values]
    return math.exp(sum(logs) / len(logs)) if logs else float("nan")


def peak_rss_mb() -> float:
    """This process's peak resident set size (Linux reports KiB)."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def emit(obj) -> None:
    """Print one JSON object as this process's last stdout line."""
    sys.stdout.write(json.dumps(obj, sort_keys=True) + "\n")
    sys.stdout.flush()
