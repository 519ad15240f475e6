"""Host-speed calibration.

On a shared host the speed of a CPU drifts by tens of percent, from one
second to the next and from one minute to the next, for the benchmark's own
code as much as for the library's.  The benchmark therefore interleaves a
fixed slice of pure-Python work, which shares no code with the library,
with the work it measures: a timer signal runs one slice every
``INTERVAL_S`` seconds, and the time the slices take is kept out of the
measured time.  (Work that runs in worker processes gets a burst of slices
just before and just after it instead, so that slices and workers do not
compete for the CPUs.)  A measured interval is reported scaled to the
speed at which one slice takes ``NOMINAL_S``:

    normalized seconds = measured seconds * NOMINAL_S
                         / median seconds of the slices that ran with it

The raw seconds and the slice times are recorded next to every normalized
number.  A change to this file changes every normalized number, so it is a
change to the benchmark, not to the program.
"""

from __future__ import annotations

import gc
import json
import signal
import statistics
import time

MASK64 = (1 << 64) - 1
SLICE_ROUNDS = 4000
# Seconds one slice takes on an idle core of the reference host (Python
# 3.11, x86-64); only the scale of normalized times depends on it.
NOMINAL_S = 0.0025
INTERVAL_S = 0.04


def _work() -> int:
    """Integer mixing, small tuples, dict and list traffic, and JSON: the
    kinds of interpreter work the library's hot paths do."""
    table: dict[int, tuple[int, int]] = {}
    rows = []
    z = 0x9E3779B97F4A7C15
    for i in range(SLICE_ROUNDS):
        z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & MASK64
        z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & MASK64
        pair = (i, (z >> (i & 63)) & 1)
        table[i & 511] = pair
        rows.append(pair)
        if i & 255 == 0:
            rows = [r for r in rows[-256:] if r[1]]
    text = json.dumps({str(k): list(v) for k, v in table.items()}, sort_keys=True)
    return len(json.loads(text)) + len(rows)


def measure() -> float:
    """Seconds one slice takes right now.

    The garbage collector is paused, so that the size of the caller's heap
    does not enter the figure.
    """
    enabled = gc.isenabled()
    gc.disable()
    try:
        start = time.perf_counter()
        _work()
        return time.perf_counter() - start
    finally:
        if enabled:
            gc.enable()


def burst(count: int = 5) -> list[float]:
    """Several slices in a row, for intervals that cannot be interleaved."""
    return [measure() for _ in range(count)]


def scale(slices: list[float]) -> float:
    """Factor that normalizes times measured among these slices."""
    return NOMINAL_S / statistics.median(slices)


class Sampler:
    """Runs a slice every INTERVAL_S seconds of wall time while active.

    ``paused`` accumulates the seconds spent in slices, which callers
    subtract from what they measure.  The timer is not inherited by child
    processes, so pool workers run undisturbed.
    """

    def __init__(self) -> None:
        self.slices: list[float] = []
        self.paused = 0.0
        self._busy = False

    def _tick(self, signum, frame) -> None:
        if self._busy:
            return
        self._busy = True
        start = time.perf_counter()
        self.slices.append(measure())
        self.paused += time.perf_counter() - start
        self._busy = False

    def __enter__(self) -> "Sampler":
        signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)
