"""The machine's speed, measured with a fixed piece of reference work.

On a shared host the speed of the benchmark's cores drifts by a third within
seconds and by up to half over minutes, whatever the program does. Every
time the benchmark reports is therefore scaled to a fixed speed: a time t
measured while one unit of reference work took r seconds on average is
reported as ``t * REFERENCE_S / r``, in seconds of a machine on which the
unit takes ``REFERENCE_S`` (a quiet 2-vCPU x86-64 VM).

r comes from two sources. Ten units run before and after each slice of
jobs, outside the job times. While a job runs, SIGPROF fires every
``SAMPLE_PERIOD_S`` of process CPU time and its handler runs one unit in the
main thread, so that a long job is scaled by the speed it actually saw; the
handler's own wall time is taken off the job's time. A unit is timed by the
CPU time of its thread: the speed of the core, without the time the unit
waits for the GIL while the program's own threads run.
"""
from __future__ import annotations

import signal
from fractions import Fraction
from time import perf_counter, thread_time

import numpy as np

REFERENCE_S = 0.001
SAMPLE_PERIOD_S = 0.05
SLICE_UNITS = 10

_MATRIX = np.random.default_rng(0).standard_normal((60, 60))
_MATRIX = _MATRIX @ _MATRIX.T
_FRACTIONS = [Fraction(i, 7 * i + 3) for i in range(1, 40)]


def reference_unit() -> None:
    """About 1 ms of the program's kinds of work: interpreter steps,
    Fraction arithmetic and small LAPACK calls."""
    acc = 0
    for i in range(8000):
        acc += i * i
    total = Fraction(0)
    for f in _FRACTIONS:
        total += f * f
    for _ in range(2):
        np.linalg.eigvalsh(_MATRIX)


def scaled(seconds: float, ref_s: float) -> float:
    """A time measured while a unit took ref_s seconds, at reference speed."""
    return seconds * REFERENCE_S / ref_s


class Speed:
    """Reference samples: ``measure`` between jobs, ``start``/``stop``
    around one. The first unit of a process pays for lazy loading; it runs
    on creation and counts only in ``spent``."""

    def __init__(self):
        self.samples = []  # seconds per unit, in the order taken
        t0 = perf_counter()
        reference_unit()
        self.spent = perf_counter() - t0  # wall seconds of the units in a job's time

    def measure(self) -> float:
        """Seconds per unit, over SLICE_UNITS units."""
        t0 = thread_time()
        for _ in range(SLICE_UNITS):
            reference_unit()
        return (thread_time() - t0) / SLICE_UNITS

    def _on_prof(self, signum, frame):
        w0, t0 = perf_counter(), thread_time()
        reference_unit()
        self.samples.append(thread_time() - t0)
        self.spent += perf_counter() - w0

    def start(self) -> tuple:
        """Start sampling; returns the mark that ``stop`` takes."""
        mark = (len(self.samples), self.spent)
        signal.signal(signal.SIGPROF, self._on_prof)
        signal.setitimer(signal.ITIMER_PROF, SAMPLE_PERIOD_S, SAMPLE_PERIOD_S)
        return mark

    def stop(self, mark: tuple) -> tuple:
        """Stop sampling: (samples taken since ``mark``, seconds they took)."""
        signal.setitimer(signal.ITIMER_PROF, 0)
        signal.signal(signal.SIGPROF, signal.SIG_IGN)
        return self.samples[mark[0]:], self.spent - mark[1]
