"""Closed-form fixtures: theta = e^{-a t} on [0, L] against its exact values.

The exponential weight has the elementary mass M(x) = (1 - e^{-a x}) / a
(x at a = 0) and the logarithmic inverse, so every value below is exact:
the total mass; the isoperimetric constant, a coth(aL/2) with both ends
Dirichlet and a / (1 - e^{-aL}) with a Neumann right end (2/L and 1/L at
a = 0); the separation distances of ``interval_bsep``, from the packing
chain of M and its inverse at 40 digits; and the distance-to-boundary CDF
at the screen's knots.

On uniform grids and on a graded one each error must meet an a-priori bound
of the mass rule, h the widest cell, so it falls under refinement at the
rule's order.  It has no cliff at 16,001 points, where a 1e-12 relative
test of the steps once gave up Simpson for the trapezoid, nor on the graded
grid, which once took the trapezoid.  A knot value errs by at most
composite Simpson's L h^4 max|theta^(4)| / 180, plus n eps of the total for
the rounding of the table's cumulative sum.  Inside a cell the mass adds
the share error: the trapezoid share of the linear interpolant differs
from the exponential's by (ah)^2 u (1 - u) (1 - 2u) / 12 + O((ah)^3),
under (ah)^2 / 96 for ah <= 1/4, times the cell's mass, at most h.  The
separation distances carry that mass error through the packing's
conditioning, read off the exact chain.  On grids of random log-normal
steps the total mass is checked as well.
"""

import functools
import math

import mpmath as mp
import numpy as np
import pytest

from boundarylab.spectral import (
    Endpoint,
    RadialProblem,
    interval_bsep,
    isoperimetric_constant,
    problem_screen,
)

L = 4.0
ETA = 0.25
RATES = [0.0, 0.5, 2.0, 8.0]
ENDS = {"DD": (Endpoint.DIRICHLET, Endpoint.DIRICHLET),
        "DN": (Endpoint.DIRICHLET, Endpoint.NEUMANN)}
SIZES = [4001, 16001, 64001]
EPS = np.finfo(float).eps


def _mass(a, x):
    return x if a == 0 else -np.expm1(-a * x) / a


@functools.cache
def _exact_bsep(a, bcs, k, eta=ETA):
    """Supremum of the separations D that the packer accepts, exactly: k sets
    of mass eta * M(L), each packed from its left end by the inverse of M,
    gaps D, and the packer's slack (the last set may end 1e-12 L past L - D,
    or reach 1e-12 of the total past it with a Neumann right end)."""
    with mp.workdps(40):
        a, length, slack = mp.mpf(a), mp.mpf(L), mp.mpf(1e-12)
        m = (lambda x: x) if a == 0 else (lambda x: -mp.expm1(-a * x) / a)
        inv = (lambda y: y) if a == 0 else (lambda y: -mp.log1p(-a * y) / a)
        total = m(length)

        def over(D):
            pos = D
            for _ in range(k):
                target = m(pos) + eta * total
                if a * target >= 1:
                    return 1
                end = inv(target)
                pos = end + D
            if bcs == "DD":
                return end - (length - D + slack * length)
            return target - total * (1 + slack)

        lo, hi = mp.mpf(0), length
        for _ in range(130):
            mid = (lo + hi) / 2
            lo, hi = (mid, hi) if over(mid) <= 0 else (lo, mid)
        return lo


def _grid(grid):
    """n uniform points, or 4,001 graded ones whose cells widen threefold."""
    if grid == "graded":
        s = np.linspace(0.0, 1.0, 4001)
        return L * s * (1.0 + s) / 2.0
    return np.linspace(0.0, L, grid)


@functools.cache
def _errors(a, bcs, grid):
    """Relative errors of the total mass, the isoperimetric constant and the
    k = 1-3 separations, and the largest CDF error at the screen's knots."""
    t = _grid(grid)
    p = RadialProblem(t, np.exp(-a * t), left_bc=ENDS[bcs][0], right_bc=ENDS[bcs][1])
    total = _mass(a, L)
    if a == 0:
        iso = (2.0 if bcs == "DD" else 1.0) / L
    else:
        iso = a / math.tanh(a * L / 2) if bcs == "DD" else a / -math.expm1(-a * L)
    s = problem_screen(p)
    r = s.t
    F = (_mass(a, r) + total - _mass(a, L - r)) / total if bcs == "DD" else _mass(a, r) / total
    out = {"mass": (p.total_mass - total) / total,
           "iso": (isoperimetric_constant(p) - iso) / iso,
           "cdf": float(np.abs(s.F - F).max())}
    for k in (1, 2, 3):
        ref = float(_exact_bsep(a, bcs, k))
        out[f"bsep{k}"] = (interval_bsep(p, [ETA] * k) - ref) / ref
    return {key: abs(v) for key, v in out.items()}


def _bounds(a, bcs, grid):
    """A-priori bounds of the errors of :func:`_errors` on a grid of n points
    whose widest cell is h."""
    t = _grid(grid)
    h, n = float(np.diff(t).max()), t.size
    assert a * h <= 0.25
    total = _mass(a, L)
    # a knot value: composite Simpson's bound and the cumulative sum's rounding
    knot = L * h ** 4 * a ** 4 / 180.0 / total + n * EPS
    # any point: the knot below it, and the share error times the cell's mass
    inside = knot + (a * h) ** 2 / 96.0 * h / total
    out = {"mass": knot, "iso": 2.0 * knot, "cdf": 4.0 * inside}
    for k in (1, 2, 3):
        # a set reads the mass at its start and inverts it at its end, and
        # the last check reads the total: each shifts a share eta by inside
        d = mp.mpf("1e-6")
        slope = abs(_exact_bsep(a, bcs, k, ETA + d) - _exact_bsep(a, bcs, k, ETA - d)) / (2 * d)
        out[f"bsep{k}"] = float(slope / _exact_bsep(a, bcs, k)) * 5.0 * inside + 4.0 * EPS
    return out


@pytest.mark.parametrize("grid", [*SIZES, "graded"])
@pytest.mark.parametrize("bcs", list(ENDS))
@pytest.mark.parametrize("a", RATES)
def test_errors_meet_the_rules_bounds(a, bcs, grid):
    errs, bounds = _errors(a, bcs, grid), _bounds(a, bcs, grid)
    for key, bound in bounds.items():
        assert errs[key] <= bound, (key, errs[key], bound)


@pytest.mark.parametrize("seed", [10, 22, 45])
@pytest.mark.parametrize("a", [0.5, 2.0])
def test_log_normal_steps_keep_the_total_mass(a, seed):
    # 2,001 points; one neighbouring cell in ten is over tenfold the other
    rng = np.random.default_rng(seed)
    t = np.concatenate(([0.0], np.cumsum(np.exp(rng.normal(0.0, 1.0, 2000)))))
    t *= 3.0 / t[-1]
    p = RadialProblem(t, np.exp(-a * t))
    assert p.total_mass == pytest.approx(_mass(a, 3.0), rel=1e-7)


@pytest.mark.parametrize("n", SIZES)
def test_truncated_exponential_ray_isoperimetric_constant(n):
    # theta = e^{-2t} on [0, 40], Neumann at 40: I = 2 / (1 - e^{-80}) = 2
    t = np.linspace(0.0, 40.0, n)
    p = RadialProblem(t, np.exp(-2.0 * t), right_bc=Endpoint.NEUMANN)
    assert isoperimetric_constant(p) == pytest.approx(2.0, rel=1e-9)
