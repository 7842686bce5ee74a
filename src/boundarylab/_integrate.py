"""Internal cumulative-integration helpers."""

from __future__ import annotations

from bisect import bisect_right

from ._numpy import np
from .errors import DomainError


def cumulative_simpson(y: np.ndarray, h: float) -> np.ndarray:
    """Cumulative integral of uniformly sampled y with O(h^4) accuracy.

    Composite Simpson at even nodes; odd nodes add the integral of the
    local quadratic through the surrounding three samples.
    """
    n = y.size
    out = np.zeros(n)
    if n < 3:
        if n == 2:
            out[1] = 0.5 * h * (y[0] + y[1])
        return out
    even_end = n - 1 if n % 2 == 1 else n - 2
    panels = (h / 3.0) * (
        y[0:even_end - 1:2] + 4.0 * y[1:even_end:2] + y[2:even_end + 1:2]
    )
    out[2:even_end + 1:2] = np.cumsum(panels)
    odd = np.arange(1, n, 2)
    odd = odd[odd <= even_end + 1]
    base = odd - 1
    valid = base + 2 <= n - 1
    # left half-panel weights of the interpolating quadratic: (5, 8, -1)/12
    out[odd[valid]] = out[base[valid]] + h * (
        5.0 * y[base[valid]] + 8.0 * y[base[valid] + 1] - y[base[valid] + 2]
    ) / 12.0
    if not valid.all():
        j = odd[~valid]
        out[j] = out[j - 1] + 0.5 * h * (y[j - 1] + y[j])
    return out


def cumulative_trapezoid(y: np.ndarray, t: np.ndarray) -> np.ndarray:
    """Cumulative trapezoid on an arbitrary strictly increasing grid."""
    return np.concatenate([[0.0], np.cumsum(0.5 * (y[1:] + y[:-1]) * np.diff(t))])


def cumulative_auto(y: np.ndarray, t: np.ndarray) -> np.ndarray:
    """Simpson on uniform grids, trapezoid otherwise."""
    dt = np.diff(t)
    if dt.size >= 2 and np.allclose(dt, dt[0], rtol=1e-12, atol=0.0):
        return cumulative_simpson(y, float(dt[0]))
    return cumulative_trapezoid(y, t)


def pl_density(t, theta, min_points: int):
    """Checked (t, theta, cumulative mass at t) of a gridded density on [0, T]."""
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
    return t, theta, cumulative_auto(theta, t)


def pl_cumulative(x, grid: np.ndarray, theta: np.ndarray, cum: np.ndarray):
    """Mass of theta from grid[0] to x (clamped): ``cum`` at the knots plus
    the exact trapezoid of the piecewise-linear interpolant over the partial
    cell.  A float gives a float and an ndarray an ndarray, with the same
    operations per element, so an array call equals the scalar calls bitwise.
    """
    if not isinstance(x, np.ndarray):
        grid, theta, cum = memoryview(grid), memoryview(theta), memoryview(cum)
        x = min(max(float(x), grid[0]), grid[-1])
        return pl_cell(x, min(bisect_right(grid, x), len(grid) - 1) - 1, grid, theta, cum)
    x = np.clip(x.astype(float, copy=False), grid[0], grid[-1])
    i = np.minimum(grid.searchsorted(x, side="right"), grid.size - 1) - 1
    t0, th0 = grid[i], theta[i]
    dx = x - t0
    thx = th0 + (theta[i + 1] - th0) * dx / (grid[i + 1] - t0)
    return cum[i] + 0.5 * dx * (th0 + thx)


def pl_cell(x: float, i: int, grid, theta, cum) -> float:
    """:func:`pl_cumulative` at a float x in cell i, on float memoryviews."""
    t0, th0, th1 = grid[i], theta[i], theta[i + 1]
    dx = x - t0
    return cum[i] + 0.5 * dx * (th0 + (th0 + (th1 - th0) * dx / (grid[i + 1] - t0)))
