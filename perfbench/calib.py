"""Host-speed calibration for the timed metrics.

On a shared host the speed of a core drifts by tens of percent over
minutes, far more than the bounds of the timed metrics allow.  The
benchmark therefore runs a fixed kernel that uses no boundarylab code
between its tasks and reports times scaled to a reference speed:

    reported = measured * REF_MS / (kernel time near the measurement)

A change to boundarylab cannot move the kernel, so the scaling removes
host drift and nothing else.  The kernel mixes what the workloads spend
their time on: Python bytecode, Python callbacks from compiled scipy
routines (quad inside brentq, like ``jacobi.v_inverse``), and numpy
array and LAPACK work.  ``REF_MS`` is the kernel's median time on the
reference machine (2 shared vCPUs, one thread), so reported times are
close to the measured ones there.  The measured (unscaled) figures are
printed and recorded beside the reported ones.
"""

from __future__ import annotations

import math
import time

import numpy as np
from scipy.integrate import quad
from scipy.optimize import brentq

REF_MS = 6.0

_X = np.random.default_rng(12345).random(120000)
_A = np.random.default_rng(54321).random((128, 128))
_A = _A + _A.T


def _density(x):
    return math.exp(-x * x) * (1.0 + 0.5 * math.cos(3.0 * x))


def _mass(y):
    return quad(_density, 0.0, y)[0]


def kernel():
    acc = 0.0
    for i in range(20000):
        acc += math.sqrt(i + 1.0) * 0.5
    total = _mass(4.0)
    for k in range(1, 16):
        acc += brentq(lambda y: _mass(y) - k * total / 16, 0.0, 4.0, xtol=1e-12)
    np.sort(_X)
    np.linalg.eigvalsh(_A)
    return acc


def sample() -> float:
    """Milliseconds for one run of the kernel."""
    t0 = time.perf_counter()
    kernel()
    return 1e3 * (time.perf_counter() - t0)


def block(n: int) -> list:
    """n samples in a row."""
    return [sample() for _ in range(n)]


def local_factors(samples, window=5):
    """Scale factor REF_MS / (median of the ``window`` samples around i), per i.

    ``samples[i]`` is the kernel time taken right after task i, so task i
    is scaled by the host speed of the few seconds around it.
    """
    xs = np.asarray(samples, dtype=float)
    half = window // 2
    out = np.empty(xs.size)
    for i in range(xs.size):
        lo = max(0, min(i - half, xs.size - window))
        out[i] = REF_MS / float(np.median(xs[lo:lo + window]))
    return out
