"""A fixed reference computation that measures how fast the machine is right now.

Other tenants of the machine slow this code by up to 2x for seconds to
minutes at a time, far longer than a run, so the minimum or median of a run
cannot hide it.  The reference is timed next to every operation; it does the
same kinds of work as the package (small numpy linear algebra, Python-level
loops, Fraction arithmetic) and never changes, so the ratio of an operation's
time to the reference time beside it follows the code, not the machine.  A
time is reported in milliseconds at the reference's nominal speed:
time * NOMINAL_S / (local reference time).
"""

from __future__ import annotations

import time
from fractions import Fraction

import numpy as np

#: the reference's time on this code's development machine when idle
#: (2-vCPU Xeon at 2.0 GHz, Python 3.11, numpy 2.4); only a unit, fixed forever
NOMINAL_S = 2.5e-4

_rng = np.random.default_rng(20240)
_MATRICES = [(lambda a: a + a.T)(_rng.standard_normal((6, 6))) for _ in range(3)]
_FRACTIONS = [Fraction(int(p), int(q)) for p, q in _rng.integers(1, 10**4, (24, 2))]


def reference() -> float:
    """Run the reference once and return its duration in seconds."""
    t0 = time.perf_counter()
    for a in _MATRICES:
        w, v = np.linalg.eigh(a)
        b = np.linalg.inv(v).T @ a
        float(np.max(np.abs(b)) + np.linalg.det(a[:2, :2]))
    acc = Fraction(0)
    for x, y in zip(_FRACTIONS, _FRACTIONS[1:]):
        acc += x * y / (x + y)
    return time.perf_counter() - t0


#: runs of the reference per sample where one sample must stand for a long span
SAMPLE_RUNS = 20


def sample() -> float:
    """Median duration of SAMPLE_RUNS runs of the reference: a few ms, steadier
    than one run as a measure of the machine's speed around a long timing."""
    return float(np.median([reference() for _ in range(SAMPLE_RUNS)]))


def local_means(ref_times, window: int = 65) -> np.ndarray:
    """Centred moving mean of reference times, the machine speed around each sample."""
    ref = np.asarray(ref_times, dtype=float)
    kernel = np.ones(min(window, len(ref)))
    return np.convolve(ref, kernel, "same") / np.convolve(np.ones_like(ref), kernel, "same")
