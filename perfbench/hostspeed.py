"""The speed of the host, sampled with a fixed piece of pure-Python work.

On a shared host the same pass can take up to twice as long in a slow
spell as in a fast one.  The spells last from a fraction of a second to
minutes, and a plain Python loop slows down with them by about the same
factor.  So while ``run.py`` times a pass, a ``Sampler`` times the
reference work below every ``INTERVAL_S``, and the pass is reported as

    (measured seconds - seconds spent sampling) * REF_S / mean sample

that is, the time the same work would take at the reference speed.  The
reference work uses no extsq code, so a change to extsq cannot move it
except through the state the pass leaves in the caches; each sample runs
the work once untimed first to take most of that out.

The sampler is a ``SIGALRM`` handler, which Python runs in the main thread
between bytecodes, so it starts no thread.
"""

import cmath
import signal
import statistics
import time
from fractions import Fraction

INTERVAL_S = 0.1
REPS = 3
# Seconds of one ``reference_work()`` call at the reference speed: about
# the fast spells of a 2-vCPU Intel Xeon VM at 2.1 GHz under Python 3.11.
REF_S = 5.0e-4


def reference_work():
    """Dictionary products over exponent tuples, as in sparse polynomial
    multiplication, then ``Fraction`` sums and complex float arithmetic."""
    a = {(i, j): i - j + 1 for i in range(6) for j in range(6)}
    prod = {}
    for ka, ca in a.items():
        for kb, cb in a.items():
            k = (ka[0] + kb[0], ka[1] + kb[1])
            prod[k] = prod.get(k, 0) + ca * cb
    acc = Fraction(0)
    for i in range(1, 40):
        acc += Fraction(i, i + 1)
    z = 0j
    for i in range(150):
        z += cmath.exp(complex(0.01 * i, 0.1))
    return len(prod), acc, z


def sample() -> float:
    """Mean seconds of one warm ``reference_work()`` call."""
    reference_work()
    t0 = time.perf_counter()
    for _ in range(REPS):
        reference_work()
    return (time.perf_counter() - t0) / REPS


class Sampler:
    """Samples the host speed every ``INTERVAL_S`` while the block runs.

    ``spent`` is the wall time the samples took; ``to_reference(seconds)``
    turns seconds measured in the block into seconds at ``REF_S``.
    """

    def __enter__(self):
        self.samples, self.spent = [], 0.0
        self._previous = signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._previous)

    def _tick(self, signum, frame):
        t0 = time.perf_counter()
        self.samples.append(sample())
        self.spent += time.perf_counter() - t0

    def to_reference(self, seconds: float) -> float:
        if not self.samples:  # a block shorter than one interval
            self.samples.append(sample())
        return seconds * REF_S / statistics.fmean(self.samples)
