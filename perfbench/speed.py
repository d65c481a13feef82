"""How fast the machine ran while a child was timed, sampled from inside the child.

On a shared host the speed one process gets drifts by tens of percent
within seconds and between minutes, and a command's wall time follows
it: the spread of wall times from one run to the next is about as
large as any bound a benchmark can hold.  A reference loop timed before
or after the command samples other moments and does not track it.

``SpeedProbe`` times a fixed reference loop every ``PERIOD_S`` of wall
time from a ``SIGALRM`` handler, so the samples come from the same
process, core and moments as the command they interrupt.  The loop does
the kinds of work galimech does (``Fraction`` arithmetic on
full-precision floats and float arithmetic) but never imports
galimech, so a change to the program cannot make it faster.  The
command's wall time, minus the time spent in the probe, is scaled to
the reference speed: the speed at which one pass of the loop takes
``REFERENCE_S``.
"""

from __future__ import annotations

import signal
import time
from fractions import Fraction

PERIOD_S = 0.025
REFERENCE_S = 1e-3
_TERMS = [Fraction(0.1 + 0.0123456789 * i) for i in range(8)]


def reference_loop() -> float:
    """One pass of the fixed reference work: well under ``PERIOD_S``."""
    acc, exact = 0.25, Fraction(0)
    for i in range(200):
        acc = acc * 0.999 + (i * 0.37 + 1.1) * 1e-3
        exact += Fraction(acc) * _TERMS[i % 8]
    return acc + float(exact)


class SpeedProbe:
    """Samples the reference loop's pass time while a command runs."""

    def __init__(self):
        self.samples: list[float] = []
        self._previous = None

    def _sample(self, _signum, _frame):
        start = time.perf_counter()
        reference_loop()
        self.samples.append(time.perf_counter() - start)

    def install(self):
        self._previous = signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, PERIOD_S, PERIOD_S)

    def restore(self):
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        signal.signal(signal.SIGALRM, self._previous or signal.SIG_DFL)

    def speed(self) -> float | None:
        """Machine speed over the command, relative to the reference speed.

        Samples are taken at equal steps of wall time, so the mean of
        ``REFERENCE_S / pass`` weighs each step by the speed it ran at.
        """
        if not self.samples:
            return None
        return sum(REFERENCE_S / s for s in self.samples) / len(self.samples)
