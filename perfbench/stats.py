"""Summary statistics and the input digest used by the benchmark."""

from __future__ import annotations

import dataclasses
import enum
import hashlib

import numpy as np
from scipy.special import betainc

# Percentiles the tail may be reported at, highest first.
LADDER = (99.9, 99.0, 95.0, 90.0, 75.0, 50.0)
MIN_BEYOND = 10


def harrell_davis(samples, q):
    """Harrell-Davis estimate of the q-quantile: the order statistics
    weighted by the Beta((n + 1) q, (n + 1)(1 - q)) mass of each 1/n cell."""
    xs = np.sort(np.asarray(samples, dtype=float))
    n = xs.size
    cells = betainc((n + 1) * q, (n + 1) * (1.0 - q), np.linspace(0.0, 1.0, n + 1))
    return float(np.dot(np.diff(cells), xs))


def tail(samples, percentile=None):
    """(percentile, value, samples beyond).

    Without ``percentile``: the highest ladder percentile with at least
    ``MIN_BEYOND`` samples strictly above its value; with fewer than about
    2 * MIN_BEYOND samples no step qualifies and p50 is returned.

    Values are Harrell-Davis estimates: a Beta-weighted mean of all order
    statistics.  A workload's tail percentile often falls in a gap between
    the costs of two tasks, where the single order statistic that
    ``numpy.percentile`` picks jumps with per-task noise; the weighted
    mean moves smoothly there (run-to-run spread of the comparison-sandwich
    p90: 10% with ``numpy.percentile``, 3.5% with this, on the same runs).
    """
    xs = np.asarray(samples, dtype=float)
    if xs.size == 0:
        raise ValueError("no samples")
    for p in LADDER if percentile is None else (percentile,):
        value = harrell_davis(xs, p / 100.0)
        beyond = int(np.count_nonzero(xs > value))
        if beyond >= MIN_BEYOND or percentile is not None:
            return p, value, beyond
    value = harrell_davis(xs, 0.5)
    return 50.0, value, int(np.count_nonzero(xs > value))


def _feed(h, obj):
    if isinstance(obj, np.ndarray):
        arr = np.ascontiguousarray(obj)
        h.update(f"a{arr.dtype.str}{arr.shape}".encode())
        h.update(arr.tobytes())
    elif isinstance(obj, enum.Enum):
        _feed(h, obj.value)
    elif isinstance(obj, bool) or obj is None:
        h.update(f"c{obj!r}".encode())
    elif isinstance(obj, (int, np.integer)):
        h.update(f"i{int(obj)}".encode())
    elif isinstance(obj, (float, np.floating)):
        h.update(f"f{float(obj).hex()}".encode())
    elif isinstance(obj, str):
        h.update(f"s{len(obj)}:".encode())
        h.update(obj.encode())
    elif isinstance(obj, dict):
        h.update(f"d{len(obj)}".encode())
        for key in sorted(obj):
            _feed(h, key)
            _feed(h, obj[key])
    elif isinstance(obj, (list, tuple)):
        h.update(f"l{len(obj)}".encode())
        for item in obj:
            _feed(h, item)
    elif dataclasses.is_dataclass(obj):
        h.update(f"o{type(obj).__name__}".encode())
        for f in dataclasses.fields(obj):
            _feed(h, getattr(obj, f.name))
    elif hasattr(obj, "__dict__"):
        # program objects built from inputs: hash the public attributes
        # (the inputs), not caches derived from them
        h.update(f"o{type(obj).__name__}".encode())
        _feed(h, {k: v for k, v in vars(obj).items() if not k.startswith("_")})
    else:
        raise TypeError(f"cannot digest {type(obj).__name__}")


def digest(obj) -> str:
    """sha256 of a canonical encoding of generated inputs."""
    h = hashlib.sha256()
    _feed(h, obj)
    return h.hexdigest()
