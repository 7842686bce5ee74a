"""The one mass of a gridded density: its knot table, its value and its closed-form inverse."""

from __future__ import annotations

import math
from bisect import bisect_left, bisect_right

from ._numpy import np
from .errors import DomainError


def cumulative_simpson(y: np.ndarray, t: np.ndarray) -> np.ndarray:
    """Cumulative integral of positive y on any strictly increasing grid t.

    Each two-cell panel, steps h0 and h1, takes the integral of the quadratic
    through its nodes, O(h^4): its trapezoid T less the bend (h0^2 - h0 h1 +
    h1^2) / 6 ((y2 - y1) / h1 - (y1 - y0) / h0), in step ratios h / (h0 + h1)
    so that no square overflows.  The bend is limited to [-T/2, T/2], which
    equal steps never reach, so the table rises on any grid.  Odd nodes split
    panels by the left cell's share of T; a lone last cell takes its trapezoid.
    """
    n = y.size
    e = n - 1 - (n - 1) % 2  # the last even node
    y0, y1, y2 = y[0:e:2], y[1:e:2], y[2:e + 1:2]
    out = np.zeros(n)  # its odd and even nodes are work space until they take the table
    odd, span = out[1:e:2], np.subtract(t[2:e + 1:2], t[0:e:2], out=out[2:e + 1:2])
    r0, r1 = (t[1:e:2] - t[0:e:2]) / span, (t[2:e + 1:2] - t[1:e:2]) / span
    # per unit of span: the bend, the left cell's trapezoid (in odd) and T
    bend = ((y2 - y1) / r1 - (y1 - y0) / r0) * ((1.0 - 3.0 * r0 * r1) / 6.0)
    np.multiply(y0 + y1, 0.5 * r0, out=odd)
    trap = np.multiply(y1 + y2, 0.5 * r1, out=r1) + odd
    np.clip(bend, -np.multiply(trap, 0.5, out=r0), r0, out=bend)  # r0 takes T / 2
    odd /= trap  # the left cell's share
    odd *= np.multiply(span, trap - bend, out=span)  # span takes the panels
    np.cumsum(span, out=span)
    odd += out[0:e:2]
    if e < n - 1:
        out[-1] = out[-2] + 0.5 * (t[-1] - t[-2]) * (y[-2] + y[-1])
    return out


def pl_density(t, theta, min_points: int):
    """Checked (t, theta, knot table of the mass) of a gridded density on [0, T]."""
    t, theta = np.asarray(t, dtype=float), np.asarray(theta, dtype=float)
    if t.ndim != 1 or t.shape != theta.shape:
        raise DomainError("grid and density must be matching 1-d arrays")
    if t.size < min_points:
        raise DomainError(f"grid needs >= {min_points} points, got {t.size}")
    if not (np.isfinite(t).all() and np.isfinite(theta).all()):
        raise DomainError("grid and density must be finite")
    if t[0] != 0.0 or np.any(np.diff(t) <= 0):
        raise DomainError("grid must increase strictly from 0")
    if np.any(theta <= 0):
        raise DomainError("density must be positive on the grid")
    with np.errstate(all="ignore"):  # a table past the float range is refused below
        cum = cumulative_simpson(theta, t)
    if not (np.isfinite(cum).all() and cum[-1] > 0.0):
        raise DomainError("the density's mass leaves the floating-point range")
    return t, theta, cum


def pl_cumulative(x, grid: np.ndarray, theta: np.ndarray, cum: np.ndarray):
    """Mass of theta from grid[0] to x (clamped), read as :func:`pl_cell`
    from the knot table ``cum``.  A float gives a float and an ndarray an
    ndarray, with the same operations per element, so an array call equals
    the scalar calls bitwise.
    """
    if not isinstance(x, np.ndarray):
        grid, theta, cum = memoryview(grid), memoryview(theta), memoryview(cum)
        x = min(max(float(x), grid[0]), grid[-1])
        return pl_cell(x, min(bisect_right(grid, x), len(grid) - 1) - 1, grid, theta, cum)
    x = np.clip(x.astype(float, copy=False), grid[0], grid[-1])
    i = np.minimum(grid.searchsorted(x, side="right"), grid.size - 1) - 1
    t0, c0, c1 = grid[i], cum[i], cum[i + 1]
    u = (x - t0) / (grid[i + 1] - t0)
    w = theta[i] / (theta[i] + theta[i + 1])
    a = 2.0 * w - 1.0
    v = 1.0 - u
    share = np.where(a <= 0.0, u * (2.0 * w - a * u), np.where(
        u < 0.25,
        np.minimum(u + a * (u - u * u), 1.0 - 0.75 * ((1.0 - a) + a * 0.75)),
        1.0 - v * ((1.0 - a) + a * v)))
    return np.minimum(c0 + (c1 - c0) * share, c1)


def pl_cell(x: float, i: int, grid, theta, cum) -> float:
    """The mass at a float x in cell i, on float memoryviews: the cell's table
    increment times the share S(u) = 2 w u - a u^2 of the cell's trapezoid
    below u = (x - t_i) / h, with w = theta_i / (theta_i + theta_{i+1}) and
    a = 2 w - 1.

    Every operation in S rises with u, or with 1 - u under a subtraction, so
    the mass is nondecreasing in floating point; and S keeps its relative
    precision as u -> 0.  Where theta rises (a <= 0) S is u (2 w - a u).
    Where it falls, S is u + a (u - u^2) below u = 1/4, where u - u^2 still
    rises in floats, capped at the upper form's value at 1/4; from u = 1/4 on
    it is 1 - v (1 - a + a v), v = 1 - u.
    """
    t0, c0, c1 = grid[i], cum[i], cum[i + 1]
    u = (x - t0) / (grid[i + 1] - t0)
    w = theta[i] / (theta[i] + theta[i + 1])
    a = 2.0 * w - 1.0
    if a <= 0.0:
        share = u * (2.0 * w - a * u)
    elif u < 0.25:
        share = min(u + a * (u - u * u), 1.0 - 0.75 * ((1.0 - a) + a * 0.75))
    else:
        v = 1.0 - u
        share = 1.0 - v * ((1.0 - a) + a * v)
    return min(c0 + (c1 - c0) * share, c1)


def _invert_mass(grid, theta, cum, target: float) -> float:
    """Smallest x with M(x) >= target, on float memoryviews of the grid,
    theta and the knot table: the inverse of :func:`pl_cell`.

    M is continuous and nondecreasing, so x lies in the cell whose right knot
    is the first to reach the target.  There M is the cell's table increment
    times the share f(u) = 2 w u - (2 w - 1) u^2, and the root
    u = F / (w + sqrt(w^2 + (1 - 2 w) F)) of f(u) = F, with F the target's
    share of the increment, has no cancellation.  Plain floats.
    """
    if target <= 0.0:
        return 0.0
    k = bisect_left(cum, target)
    if k == len(cum):
        return grid[-1]
    t0, t1, c0 = grid[k - 1], grid[k], cum[k - 1]
    F = (target - c0) / (cum[k] - c0)
    w = theta[k - 1] / (theta[k - 1] + theta[k])
    d = w + math.sqrt(max(w * w + (1.0 - 2.0 * w) * F, 0.0))
    return min(t0 + (t1 - t0) * F / d, t1)
