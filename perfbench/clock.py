"""CPU time rescaled to a fixed reference speed.

On a shared virtual machine the CPU time of a fixed piece of work swings by
up to 2x within a minute, as other tenants come and go on the same cores.
A fixed computation that does not use the program, the reference, slows
down by about the same factor.  Clock.run times a piece of work in CPU
seconds and times the reference before it, after it and, from a timer
signal every SAMPLE_S seconds, during it; the piece counts

    (its CPU time less the samples' own) * REF_NOMINAL_S / (mean reference time)

so the result keeps the program's own cost while the host's speed drifts.
Sampling during the work matters for jobs of a second or more, across which
the host's speed changes.
"""

from __future__ import annotations

import gc
import signal
import statistics
import time
from fractions import Fraction

# The reference does the two kinds of work the program spends its time on,
# about equally: exact Gaussian elimination of a fixed 10 x 10 integer matrix
# over Fractions (LP, DD, linear algebra) and a bitmask search for the rows
# that contain each column set of a fixed 0/1 matrix (the bounds searches).
# Each kind slows down by its own factor on a busy host.
REF_MATRIX = [[(7 * i * i + 3 * j * j + 5 * i * j + 11 * i + j) % 19 - 9 for j in range(10)]
              for i in range(10)]
REF_MASKS = [(37 * i * i + 11 * i + 5) % 2048 | 1 << (i % 11) for i in range(12)]
# CPU seconds of one reference on an idle 2-vCPU Intel Xeon virtual machine
# with CPython 3.11; it only sets the unit of rescaled times.
REF_NOMINAL_S = 0.003
BRACKET_REPS = 4
SAMPLE_S = 0.2


def _rank(rows) -> int:
    r = 0
    for c in range(len(rows[0])):
        piv = next((i for i in range(r, len(rows)) if rows[i][c]), None)
        if piv is None:
            continue
        rows[r], rows[piv] = rows[piv], rows[r]
        for i in range(r + 1, len(rows)):
            if rows[i][c]:
                f = rows[i][c] / rows[r][c]
                rows[i] = [a - f * b for a, b in zip(rows[i], rows[r])]
        r += 1
    return r


def _rows_of_column_sets(masks, ncols: int) -> int:
    seen = set()
    for cols in range(1, 1 << ncols):
        rows = 0
        for r, mask in enumerate(masks):
            if mask & cols == cols:
                rows |= 1 << r
        seen.add(rows)
    return len(seen)


def reference(reps: int = 1) -> float:
    """CPU seconds of one reference, averaged over reps of them."""
    enabled = gc.isenabled()
    gc.disable()  # the reference makes no cycles; a collection here would time the program's garbage
    try:
        c = time.process_time()
        for _ in range(reps):
            _rank([[Fraction(x) for x in row] for row in REF_MATRIX])
            _rows_of_column_sets(REF_MASKS, 11)
        return (time.process_time() - c) / reps
    finally:
        if enabled:
            gc.enable()


class Clock:
    """Times pieces of work in rescaled CPU seconds.  With sample=False the
    reference runs only between pieces, so that nothing interrupts the
    work (the traced run uses this, to keep the reference out of spans)."""

    def __init__(self, sample: bool = True):
        self.sample = sample
        self.last = reference(BRACKET_REPS)
        self.refs = [self.last]
        self._samples: list[float] = []
        self._spent = 0.0
        self._busy = False

    def _on_timer(self, signum, frame):
        if self._busy:
            return
        self._busy = True
        c = time.process_time()
        self._samples.append(reference())
        self._spent += time.process_time() - c
        self._busy = False

    def run(self, fn):
        """fn() timed: (its result, CPU seconds, rescaled CPU seconds, wall
        seconds).  The wall time includes the samples taken during fn."""
        self._samples, self._spent = [], 0.0
        if self.sample:
            old = signal.signal(signal.SIGALRM, self._on_timer)
            signal.setitimer(signal.ITIMER_REAL, SAMPLE_S, SAMPLE_S)
        c, t = time.process_time(), time.perf_counter()
        try:
            result = fn()
        finally:
            cpu, wall = time.process_time() - c, time.perf_counter() - t
            if self.sample:
                signal.setitimer(signal.ITIMER_REAL, 0)
                signal.signal(signal.SIGALRM, old)
        cpu -= self._spent
        before, self.last = self.last, reference(BRACKET_REPS)
        self.refs.append(self.last)
        r = statistics.fmean([before, self.last] + self._samples)
        return result, cpu, cpu * REF_NOMINAL_S / r, wall
