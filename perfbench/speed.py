"""Machine speed, sampled with a fixed reference loop while the program runs.

On a shared virtual machine the same pure-Python loop runs up to twice
as slow in some spells as in others, for seconds to minutes at a time,
and process CPU time slows down with wall time (it is not steal time).  Runs
of the benchmark made minutes apart would then differ by more than the
program does.  So every timed pipeline and set-up is paired with samples
of ``reference_work``, a fixed loop of the same kinds of operation the
pipeline spends its time in (big-integer bit operations, bit counts,
dict and list traffic, calls), taken from the same seconds:

- during a pipeline, a SIGALRM timer runs one sample every
  ``INTERVAL_S``; the time spent in samples is taken off the pipeline's
  wall time;
- one sample is taken just before and one just after, so that short
  pipelines have samples too.

A time is then reported at reference speed: its wall time times
``REF_S`` over the mean of its samples.  The mean weighs every second of
the pipeline alike, so a change of spell half way through is averaged
the way the pipeline felt it.  The reference loop is the benchmark's own
code, so any change to the program's speed shows in full.
"""
from __future__ import annotations

import signal
import time
from contextlib import contextmanager

# about one reference sample's time on a 2-vCPU Xeon VM with Python 3.11;
# it only sets the scale of the reported times
REF_S = 0.0025
INTERVAL_S = 0.05
BRACKET = 3
_LOOPS = 420
_MASK = (1 << 1000) - 1


def reference_work() -> int:
    """A fixed amount of pipeline-like interpreter work."""
    seen: dict[int, int] = {}
    out: list[int] = []
    acc = 0
    for i in range(_LOOPS):
        mask = _MASK ^ (i * 0x9E3779B97F4A7C15 << (i % 900))
        for j in range(8):
            part = mask & (_MASK >> (j * 97))
            acc += part.bit_count()
            seen[acc & 1023] = seen.get(acc & 1023, 0) + 1
        out.append(acc)
    return acc + len(seen) + len(out)


def sample() -> float:
    start = time.perf_counter()
    reference_work()
    return time.perf_counter() - start


class Meter:
    """Wall time of a call, less its samples, with the samples it saw."""

    def __init__(self):
        self._samples: list[float] = []
        self._spent = 0.0

    def _on_alarm(self, signum, frame):
        start = time.perf_counter()
        self._samples.append(sample())
        self._spent += time.perf_counter() - start

    @contextmanager
    def _sampling(self):
        previous = signal.signal(signal.SIGALRM, self._on_alarm)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)
        try:
            yield
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
            signal.signal(signal.SIGALRM, previous)

    def time(self, fn, *args):
        """(fn's result, its wall seconds, its reference-speed seconds)."""
        self._samples = [sample()]
        self._spent = 0.0
        with self._sampling():
            start = time.perf_counter()
            result = fn(*args)
            end = time.perf_counter()
        wall = end - start - self._spent
        self._samples.append(sample())
        return result, wall, at_reference_speed(wall, self._samples)


def at_reference_speed(wall: float, samples: list[float]) -> float:
    return wall * REF_S * len(samples) / sum(samples)


def time_bracketed(fn, *args):
    """Like ``Meter.time`` for a short call: BRACKET samples on each side.

    The first sample of a fresh interpreter warms the loop up and is
    dropped.
    """
    sample()
    before = [sample() for _ in range(BRACKET)]
    start = time.perf_counter()
    result = fn(*args)
    wall = time.perf_counter() - start
    samples = before + [sample() for _ in range(BRACKET)]
    return result, wall, at_reference_speed(wall, samples)
