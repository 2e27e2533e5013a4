"""Scaling wall times to a reference speed.

On a shared machine the speed of a core drifts by up to a factor of two
within seconds while this process's own load stays the same.  A fixed
reference task that shares no code with the library is timed between
instances, and each instance's wall time is multiplied by the reference's
quiet-machine time over its median time in a window around the instance.
Scaled times therefore read as seconds at quiet-machine speed.

Two references are used because the two kinds of work slow down by
different factors under contention:

- in-process work is scaled by exact rational elimination in pure Python
  (the same kind of work as the library's kernel);
- work done in child processes (CLI commands, set-up) is scaled by the start
  of a bare interpreter, `python -c pass`.
"""

from __future__ import annotations

import bisect
import statistics
import subprocess
import sys
import time
from fractions import Fraction

WINDOW_S = 0.5
MIN_WINDOW_SAMPLES = 5
AROUND_CALL = 3


def rational_elimination() -> Fraction:
    """Gauss-Jordan elimination of a fixed 8x8 rational matrix."""
    n = 8
    rows = [[Fraction((3 * i + 5 * j) % 13 - 6, 1 + (i * j) % 5) for j in range(n)]
            for i in range(n)]
    for c in range(n):
        p = next(r for r in range(c, n) if rows[r][c] != 0)
        rows[c], rows[p] = rows[p], rows[c]
        inv = 1 / rows[c][c]
        rows[c] = [x * inv for x in rows[c]]
        for r in range(n):
            if r != c and rows[r][c] != 0:
                f = rows[r][c]
                rows[r] = [x - f * y for x, y in zip(rows[r], rows[c])]
    return rows[0][0]


def bare_interpreter_start() -> None:
    # No timeout: with one, the wait polls in steps of up to 50 ms.
    subprocess.run([sys.executable, "-c", "pass"], check=True,
                   stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL)


class SpeedProbe:
    """Reference timings taken during a run, and the scale they give at a moment.

    `quiet_seconds` is the reference's time on a quiet 2-core x86-64 VM with
    CPython 3.11; it only sets the unit of scaled times.
    """

    def __init__(self, reference, quiet_seconds: float, every_s: float) -> None:
        self.reference = reference
        self.quiet_seconds = quiet_seconds
        self.every_s = every_s
        self.times: list[float] = []
        self.values: list[float] = []

    def sample(self, count: int = 1) -> None:
        for _ in range(count):
            start = time.perf_counter()
            self.reference()
            end = time.perf_counter()
            self.times.append((start + end) / 2)
            self.values.append(end - start)

    def maybe_sample(self) -> None:
        if not self.times or time.perf_counter() - self.times[-1] >= self.every_s:
            self.sample()

    def scale(self, at: float) -> float:
        """quiet_seconds over the median reference time within WINDOW_S of `at`."""
        lo = bisect.bisect_left(self.times, at - WINDOW_S)
        hi = bisect.bisect_right(self.times, at + WINDOW_S)
        if hi - lo < MIN_WINDOW_SAMPLES:
            nearest = sorted(range(len(self.times)), key=lambda i: abs(self.times[i] - at))
            window = [self.values[i] for i in nearest[:MIN_WINDOW_SAMPLES]]
        else:
            window = self.values[lo:hi]
        return self.quiet_seconds / statistics.median(window)

    def timed(self, fn, *args) -> tuple[float, float]:
        """(raw, scaled) seconds of one call, scaled by samples taken right around it."""
        self.sample(AROUND_CALL)
        start = time.perf_counter()
        fn(*args)
        end = time.perf_counter()
        self.sample(AROUND_CALL)
        local = statistics.median(self.values[-2 * AROUND_CALL:])
        return end - start, (end - start) * self.quiet_seconds / local


def in_process_probe() -> SpeedProbe:
    return SpeedProbe(rational_elimination, 0.0015, 0.05)


def child_process_probe() -> SpeedProbe:
    return SpeedProbe(bare_interpreter_start, 0.045, 0.3)
