"""Machine-speed probe: rescales measured times to a fixed reference speed.

The benchmark runs on shared hosts whose neighbours slow every instruction
by up to ~1.7x, switching on and off every second or two, so raw wall
times of the same code drift by 20-50% between runs.  A probe is a fixed
pure-Python loop (calls, small frozen dataclasses, tuple compares: the
kind of work resilat does) whose cost depends on the machine alone.  It
is timed with the garbage collector paused, so the workload's heap does
not change its cost: ``SAMPLES`` times in a row for a short phase, and
every ``INTERVAL_S`` seconds during a long one, from a ``SIGALRM`` handler
on the main thread (``Sampler``), so the interpreter stays single-threaded
and the time spent in probes is known exactly and left out of the phase.
A time is rescaled as ``raw * REFERENCE_S / mean(probe times)``: seconds
on a machine where one probe takes ``REFERENCE_S``.  Code that gets 20%
slower is still 20% slower after rescaling; a busier host is not.
"""

from __future__ import annotations

import gc
import signal
import statistics
import time
from dataclasses import dataclass

REFERENCE_S = 0.0004  # one probe on an uncontended 2-vCPU Xeon VM, Python 3.11
SAMPLES = 25
INTERVAL_S = 0.02


@dataclass(frozen=True)
class _Pair:
    m: int
    r: int


def _step(a: _Pair, b: _Pair) -> _Pair:
    if (a.m, a.r) < (b.m, b.r):
        return _Pair(a.m + b.r, a.r - b.m)
    return _Pair(b.m, a.r + 1)


def probe_once() -> float:
    """Seconds one fixed probe takes right now."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        start = time.perf_counter()
        acc = _Pair(1, 2)
        for i in range(360):
            acc = _step(acc, _Pair(i & 7, i & 3))
        return time.perf_counter() - start
    finally:
        if enabled:
            gc.enable()


def samples() -> list[float]:
    """SAMPLES probe times taken now, one after another."""
    return [probe_once() for _ in range(SAMPLES)]


def factor(probe_times) -> float:
    """Multiplier taking a raw time measured next to probe_times to
    reference-speed seconds."""
    return REFERENCE_S / statistics.fmean(probe_times)


class Sampler:
    """Probes every INTERVAL_S from a SIGALRM handler while in use.

    ``samples`` holds the probe times and ``spent`` the seconds the
    handler took, which the caller subtracts from the phase it timed.
    With ``periodic=False`` it takes no probes (for a phase whose inner
    timings must not contain any) and ``samples`` stays empty.
    """

    def __init__(self, periodic: bool = True):
        self.periodic = periodic
        self.samples: list[float] = []
        self.spent = 0.0
        self._previous = None

    def _tick(self, signum, frame) -> None:
        start = time.perf_counter()
        self.samples.append(probe_once())
        self.spent += time.perf_counter() - start

    def __enter__(self) -> "Sampler":
        if not self.periodic:
            return self
        self._previous = signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)
        return self

    def __exit__(self, *exc) -> None:
        if not self.periodic:
            return
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._previous)
