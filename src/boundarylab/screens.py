"""Screens: probability distributions on the ray [0, inf).

A screen is the pushforward of a measure under a nonnegative 1-Lipschitz
function vanishing on the boundary; it is the carrier for every
concentration invariant in this package.  Three representations:

* ``GridScreen``   -- CDF knots with linear interpolation (continuous,
  optional atom at 0 via F[0] > 0);
* ``AtomScreen``   -- finite atom list (discrete spaces);
* ``DensityScreen``-- a closed catalog screen (uniform, exponential,
  ball, half-Gaussian): exact CDF, tails and quantiles from one record
  per family, scaled by a factor.

The quantile conventions are fixed here once: superlevel sets are closed
(``P[T >= r]``), lower quantiles take the left edge of CDF flats, upper
quantiles the right edge.
"""

from __future__ import annotations

import functools
import math
from typing import Callable, NamedTuple

from . import _text
from ._numpy import np
from .errors import DomainError

__all__ = [
    "Screen",
    "GridScreen",
    "AtomScreen",
    "DensityScreen",
    "ObsBounds",
    "closed_screen",
    "part_inradius",
    "bsep_single",
    "obs_inradius",
    "ky_fan_zero",
    "scale",
    "ks_distance",
    "screen_from_json",
]

_MASS_TOL = 1e-12
_TAIL_CUTOFF = 1e-13  # tail mass past a DensityScreen's scan end


def _require_finite(what: str, x) -> None:
    """Raise ``DomainError`` unless ``x`` (a number or an array) is finite
    throughout; NaN compares false, so the ordered checks alone let it by.
    Numbers are tested first, by ``math.isfinite``: numpy costs microseconds
    per scalar, and a scalar check then never imports it."""
    finite = math.isfinite(x) if isinstance(x, (float, int)) else np.isfinite(x).all()
    if not finite:
        raise DomainError(f"{what} must be finite")


def _point(t):
    """``t``; NaN, which orders against no knot, atom or support end, raises."""
    if math.isnan(t):
        raise DomainError("a screen query point must be a number, got NaN")
    return t


class ObsBounds(NamedTuple):
    """Lower/upper enclosure for an observable inscribed radius that the
    screen alone cannot pin down (support not declared full)."""

    lower: float
    upper: float


class Screen:
    """Common interface; see the concrete subclasses."""

    full_support: bool
    upper_support: float

    # -- CDF queries ---------------------------------------------------
    def cdf(self, t: float) -> float:
        return float(self.cdf_fast(_point(t)))

    def cdf_fast(self, ts: np.ndarray) -> np.ndarray:
        """The exact CDF at each of ``ts``."""
        raise NotImplementedError

    def _sides(self, ts) -> tuple:
        """The left limits F(t-) and the values F(t) at each of ``ts``."""
        raise NotImplementedError

    def _breaks(self) -> np.ndarray:
        """Abscissae where the CDF may jump or bend, or the density peak, up to
        ``scan_upper``."""
        return self.knots()

    def cdf_left(self, t: float) -> float:
        """Left limit F(t-)."""
        return float(self._sides(_point(t))[0])

    def tail_closed(self, r: float) -> float:
        """P[T >= r] (closed superlevel convention)."""
        return 1.0 - self.cdf_left(r)

    def tail_open(self, eps: float) -> float:
        """P[T > eps]."""
        return 1.0 - self.cdf(eps)

    # -- quantiles -----------------------------------------------------
    def quantile(self, xi: float) -> float:
        """inf{r >= 0 : F(r) >= xi} for xi in (0, 1]."""
        raise NotImplementedError

    def bsep(self, eta: float) -> float:
        """sup{r >= 0 : P[T >= r] >= eta} for eta in (0, 1]."""
        raise NotImplementedError

    # -- misc ----------------------------------------------------------
    def scale(self, c: float) -> "Screen":
        raise NotImplementedError

    def knots(self) -> np.ndarray:
        """Abscissae worth probing in scans (``to_csv``): a grid's or atom
        list's own ``t``."""
        return self.t

    def scan_upper(self) -> float:
        """Finite abscissa beyond which at most ~1e-12 mass remains: the last
        knot, past which a grid or atom list holds none."""
        return float(self.t[-1])

    def to_json(self) -> str:
        raise NotImplementedError

    def to_csv(self, n: int = 1001) -> str:
        """CSV of (t, F(t)) pairs with a header row."""
        hi = self.scan_upper()
        ts = np.unique(np.concatenate([np.linspace(0.0, hi, n), self.knots()]))
        return _text.csv_text(("t", "F"), (ts, self.cdf_fast(ts)))


class GridScreen(Screen):
    """CDF given on knots, linear in between; optional atom at 0."""

    def __init__(self, t, F, full_support: bool | None = None):
        t = np.asarray(t, dtype=float)
        F = np.asarray(F, dtype=float)
        if t.ndim != 1 or t.shape != F.shape or t.size < 2:
            raise DomainError("grid screen needs matching 1-d knot arrays")
        _require_finite("grid screen knots", t)
        _require_finite("grid screen CDF values", F)
        if t[0] != 0.0:
            raise DomainError("grid screens start at t = 0")
        if np.any(np.diff(t) <= 0):
            raise DomainError("knots must be strictly increasing")
        if np.any(np.diff(F) < 0) or F[0] < 0:
            raise DomainError("CDF values must be nondecreasing and >= 0")
        if abs(F[-1] - 1.0) > _MASS_TOL:
            raise DomainError(f"CDF must reach 1 within {_MASS_TOL}, got {F[-1]}")
        self.t = t
        self.F = F / F[-1]
        if full_support is None:
            full_support = bool(np.all(np.diff(self.F) > 0))
        self.full_support = full_support
        self.upper_support = float(t[-1])

    def cdf_fast(self, ts):
        return np.interp(ts, self.t, self.F, left=0.0)

    def _sides(self, ts):
        F = self.cdf_fast(ts)
        return np.where(ts <= 0.0, 0.0, F), F  # F(t-) = 0 up to the atom at 0; NaN stays NaN

    @functools.cached_property
    def _slope(self):
        return np.append(np.diff(self.F) / np.diff(self.t), 0.0)  # each cell's, then 0 outside

    def _density(self, ts):
        return (self._slope[np.searchsorted(self.t, ts) - 1],
                self._slope[np.searchsorted(self.t, ts, side="right") - 1])

    def quantile(self, xi):
        i = int(np.searchsorted(self.F, xi, side="left"))
        if i == 0:
            return float(self.t[0])
        if i >= self.F.size:
            i = self.F.size - 1
        f0, f1 = self.F[i - 1], self.F[i]
        return float(self.t[i - 1] + (xi - f0) * (self.t[i] - self.t[i - 1]) / (f1 - f0))

    def bsep(self, eta):
        g = 1.0 - eta
        if g < self.F[0]:
            # the atom at 0 already exceeds the allowed sublevel mass
            return 0.0
        j = int(np.searchsorted(self.F, g, side="right"))
        if j >= self.F.size:
            return float(self.t[-1])
        f0, f1 = self.F[j - 1], self.F[j]
        return float(self.t[j - 1] + (g - f0) * (self.t[j] - self.t[j - 1]) / (f1 - f0))

    def scale(self, c):
        return GridScreen(self.t * c, self.F.copy(), self.full_support)

    def to_json(self):
        return _text.dumps({"kind": "grid", "t": self.t.tolist(), "F": self.F.tolist(),
                            "full_support": self.full_support})


class AtomScreen(Screen):
    """Finite discrete distribution; all conventions are exact.  Each query
    is one ``searchsorted`` or one array pass over ``_cum``, the CDF, or the
    masses of the k top atoms, held exactly as ``_top`` (``np.cumsum``) plus
    ``_top_err`` (its rounding errors): ``bsep`` compares them with eta by the
    sign of an exact difference, so a tie is a tie."""

    full_support = False

    def __init__(self, t, p):
        t = np.asarray(t, dtype=float)
        p = np.asarray(p, dtype=float)
        if t.ndim != 1 or t.shape != p.shape or t.size == 0:
            raise DomainError("atom screen needs matching 1-d arrays")
        _require_finite("atom locations", t)
        _require_finite("atom masses", p)
        if np.any(t < 0):
            raise DomainError("atoms must sit at t >= 0")
        if np.any(p < 0):
            raise DomainError("atom masses must be >= 0")
        if abs(p.sum() - 1.0) > _MASS_TOL:
            raise DomainError(f"atom masses must sum to 1 within {_MASS_TOL}")
        # merge duplicate locations; np.add.at adds tied masses in input order
        uniq, inv = np.unique(t, return_inverse=True)
        mass = np.zeros(uniq.size)
        np.add.at(mass, inv, p)
        keep = mass > 0
        self.t = uniq[keep]
        self.p = mass[keep]
        self.upper_support = float(self.t[-1])
        self._cum = np.concatenate(([0.0], np.cumsum(self.p)))
        self._top = np.concatenate(([0.0], np.cumsum(self.p[::-1])))
        lo, hi = self._top[:-1], self._top[1:]
        step = hi - lo  # TwoSum: the rounding error of each step, exactly
        self._top_err = np.concatenate(([0.0], np.cumsum((lo - (hi - step)) + (self.p[::-1] - step))))

    def cdf_fast(self, ts):
        return self._cum[np.searchsorted(self.t, ts, side="right")]

    def _sides(self, ts):
        return self._cum[np.searchsorted(self.t, ts)], self.cdf_fast(ts)

    def _density(self, ts):
        return (np.zeros(np.shape(ts)),) * 2

    def tail_closed(self, r):
        k = self.t.size - np.searchsorted(self.t, _point(r), side="left")
        return float(self._top[k] + self._top_err[k])

    def tail_open(self, eps):
        k = self.t.size - np.searchsorted(self.t, _point(eps), side="right")
        return float(self._top[k] + self._top_err[k])

    def quantile(self, xi):
        i = int(np.searchsorted(self._cum[1:], xi, side="left"))
        return float(self.t[min(i, self.t.size - 1)])

    def bsep(self, eta):
        # the fewest top atoms that hold eta: the last of them is the answer
        holds = (self._top - eta) + self._top_err >= 0.0
        return float(self.t[self.t.size - np.argmax(holds)]) if holds[-1] else 0.0

    def scale(self, c):
        return AtomScreen(self.t * c, self.p.copy())

    def to_json(self):
        return _text.dumps({"kind": "atoms", "t": self.t.tolist(), "p": self.p.tolist()})


class DensityScreen(Screen):
    """Closed catalog screen: the law of c*T, where T has the unit-scale
    screen of one catalog family and c is ``scale_factor``.

    Every query (``cdf`` and ``cdf_fast``, the tails, ``quantile``, ``bsep``,
    ``pdf``, ``to_csv``) and KS evaluates the family's exact kernels: there is
    one CDF, the exact tail.  Every parameter is checked before the kernel
    that every query reads is built, once (a ball's is a ``jacobi.BallKernel``,
    which holds its rim).  A ``kernel`` already built from ``params`` is taken
    as it is, unchecked.
    """

    def __init__(self, family: str, params: dict, scale_factor: float = 1.0,
                 full_support: bool = True, kernel=None):
        self._family = _FAMILIES.get(family)
        if self._family is None:
            raise DomainError(f"unknown screen family {family!r}")
        try:
            self.params = dict(params)
            if kernel is None:
                _text.check(_text.NUMBER_OBJECT, self.params, f"{family} screen parameters")
                for name, x in self.params.items():
                    _require_finite(f"{family} parameter {name}", x)
                kernel = self._family.kernel(**self.params)
        except TypeError as exc:  # unknown or missing parameter
            raise DomainError(f"bad parameters for screen family {family!r}: {exc}") from None
        self.kernel = kernel
        self.scale_factor = float(scale_factor)
        self.full_support = full_support
        self._upper = self._family.upper(self.kernel)
        self.upper_support = self.scale_factor * self._upper

    def _tail(self, r):
        r = r / self.scale_factor
        if r <= 0.0:
            return 1.0
        if r >= self._upper:
            return 0.0
        return self._family.tail(self.kernel, r)

    def tail_closed(self, r):
        return self._tail(float(_point(r)))

    tail_open = tail_closed  # no atoms

    def cdf(self, t):
        return 1.0 - self.tail_closed(t)

    cdf_left = cdf

    def cdf_fast(self, ts):
        return np.array([1.0 - self._tail(t) for t in np.ravel(ts).tolist()])

    def quantile(self, xi):
        return self.scale_factor * self._family.inverse(self.kernel, max(1.0 - xi, 0.0))

    def bsep(self, eta):
        # a strictly positive density: the right and left quantiles agree
        return self.scale_factor * self._family.inverse(self.kernel, eta)

    def pdf(self, t):
        c = self.scale_factor
        return self._family.pdf(self.kernel, np.asarray(t, dtype=float) / c) / c

    def _sides(self, ts):
        return (self.cdf_fast(ts),) * 2

    def _density(self, ts):
        return (self.pdf(ts),) * 2

    def _breaks(self):
        return np.array([0.0, self.scale_factor * self._family.mode(self.kernel), self.scan_upper()])

    def scale(self, c):
        return DensityScreen(self._family.name, self.params, self.scale_factor * c,
                             self.full_support, self.kernel)

    def knots(self):
        return np.linspace(0.0, self.scan_upper(), 257)

    def scan_upper(self):
        return self.bsep(_TAIL_CUTOFF) if math.isinf(self._upper) else self.upper_support

    def to_json(self):
        return _text.dumps({"kind": "closed", "family": self._family.name, "params": self.params,
                            "scale": self.scale_factor, "full_support": self.full_support})


# ---------------------------------------------------------------------------
# closed-form screen catalog
# ---------------------------------------------------------------------------

class _Family(NamedTuple):
    """One catalog screen family on the unit scale.  ``kernel`` validates
    its parameters into the kernel data that the other fields take;
    ``upper`` is the support end, ``tail`` the mass P[T >= r] for
    0 < r < upper, ``solve`` its inverse for eta in (0, 1], ``pdf`` the
    density, vectorized in t, and ``mode`` where that density peaks."""

    name: str
    kernel: Callable
    upper: Callable
    tail: Callable
    solve: Callable
    pdf: Callable
    mode: Callable = lambda kernel: 0.0

    def inverse(self, kernel, eta: float) -> float:
        """The r with P[T >= r] = eta; the support end at eta = 0.  Refuses
        an infinite radius, which a tiny rate or eta can give."""
        r = self.solve(kernel, eta) if eta > 0.0 else self.upper(kernel)
        if not math.isfinite(r):
            raise DomainError(f"the {self.name} screen has no finite quantile at eta={eta}")
        return r


@functools.cache
def _jacobi():
    """``jacobi``, imported on the first call and looked up in the cache
    after it: processes that never build a ball or Gaussian screen (graph
    commands, spectra, audits) do not compile it."""
    from . import jacobi

    return jacobi


def _positive(what: str, x) -> float:
    if not x > 0:
        raise DomainError(f"{what} must be positive, got {x}")
    return float(x)


def _ball(N, kappa, lam):
    return _jacobi().ball_kernel(N, _jacobi().classify(kappa, lam))


def _ball_pdf(rim, t):
    """k g(X - k t)^(N-1) / G(X), g = sin (kappa > 0) or sinh (kappa < 0), or
    N (1 - t/C)^(N-1) / C (kappa = 0), off the kernel's rim; 0 past it."""
    m = rim.N - 1.0
    if rim.cc.kappa == 0.0:
        return np.maximum(1.0 - t / rim.C, 0.0) ** m * (rim.N / rim.C)
    s = (np.sin if rim.cc.kappa > 0 else np.sinh)(np.maximum(rim.X - rim.k * t, 0.0))
    return (s / math.exp(rim.log_g)) ** m / np.exp(rim.log_G - m * rim.log_g - math.log(rim.k))


def _half_gaussian(K, Lam):
    ic = _jacobi().classify_infinite(K, Lam)
    if not ic.admissible:
        raise DomainError(f"(K, Lam) = ({K}, {Lam}) is not admissible")
    return ic


def _half_gaussian_pdf(ic, t):
    """exp(-z^2) / (sqrt(pi / 2K) erfc(z0)), z = (K t + Lam) / sqrt(2K) and
    z0 = z(0), through erfcx(z0) = e^(z0^2) erfc(z0) when z0 >= 0 (DLMF 7.2),
    so that no factor leaves the float range; Lam e^(-Lam t) when K = 0."""
    K, Lam = ic.K, ic.Lam
    if K == 0.0:
        return Lam * np.exp(-Lam * t)
    root, scale = math.sqrt(2.0 * K), math.sqrt(0.5 * math.pi / K)
    if Lam >= 0.0:
        return np.exp(-t * (0.5 * K * t + Lam)) / (scale * _jacobi().erfcx(Lam / root))
    return np.exp(-((K * t + Lam) / root) ** 2) / (scale * math.erfc(Lam / root))


_FAMILIES = {f.name: f for f in (
    _Family(
        "uniform", lambda width: _positive("uniform width", width), lambda w: w,
        lambda w, r: 1.0 - r / w, lambda w, eta: w * (1.0 - eta),
        lambda w, t: np.where((t >= 0.0) & (t <= w), 1.0 / w, 0.0)),
    _Family(
        "exponential", lambda rate: _positive("exponential rate", rate), lambda rate: math.inf,
        lambda rate, r: math.exp(-rate * r), lambda rate, eta: math.log(1.0 / eta) / rate,
        lambda rate, t: rate * np.exp(-rate * t)),
    _Family(
        "ball", _ball, lambda k: k.C, lambda k, r: _jacobi().ball_tail(k, r),
        lambda k, eta: _jacobi().ball_inverse(k, eta), _ball_pdf,
        lambda k: max(0.0, (k.X - 0.5 * math.pi) / k.k) if k.cc.kappa > 0.0 else 0.0),
    _Family(
        "half_gaussian", _half_gaussian, lambda ic: math.inf,
        lambda ic, r: _jacobi().gaussian_tail(ic, r),
        lambda ic, eta: _jacobi().gaussian_tail_inverse(ic, eta), _half_gaussian_pdf,
        lambda ic: max(0.0, -ic.Lam / ic.K) if ic.K > 0.0 else 0.0),
)}


def closed_screen(family: str, **params) -> DensityScreen:
    """Construct a catalog screen by family name."""
    return DensityScreen(family, params)


def screen_from_json(text: str) -> Screen:
    obj = _text.read_object(text, "screen")
    kind = obj.pop("kind", None)
    if not isinstance(kind, str) or kind not in _text.SCREENS:
        raise DomainError(f"unknown screen kind {kind!r}")
    fields = _text.read(_text.SCREENS[kind], obj, "screen")
    if kind == "closed":
        return scale(DensityScreen(fields["family"], fields["params"],
                                   full_support=fields["full_support"]), fields["scale"])
    return (GridScreen if kind == "grid" else AtomScreen)(**fields)


# ---------------------------------------------------------------------------
# invariants
# ---------------------------------------------------------------------------

def part_inradius(s: Screen, xi: float) -> float:
    """Partial inscribed radius: the lower xi-quantile of the screen.

    The empty set is admissible for xi <= 0, so the value is 0 there;
    xi > 1 has no admissible set at all.
    """
    _require_finite("xi", xi)
    if xi > 1.0:
        raise DomainError(f"no Borel set has mass >= {xi}")
    if xi <= 0.0:
        return 0.0
    return s.quantile(xi)


def bsep_single(s: Screen, eta: float) -> float:
    """Boundary separation distance sup{r : P[T >= r] >= eta}.

    The optimal mass-eta set on a screen is a closed superlevel set of
    the coordinate.  Returns 0 when eta > 1 (no admissible set).
    """
    _require_finite("eta", eta)
    if eta <= 0.0:
        raise DomainError(f"eta must be positive, got {eta}")
    if eta > 1.0:
        return 0.0
    return s.bsep(eta)


def obs_inradius(s: Screen, eta: float):
    """Observable inscribed radius of the screen's underlying space.

    Equals the boundary separation distance when the measure has full
    support.  Otherwise only the enclosure

        part_inradius(s, 1 - eta)  <=  ObsInRad  <=  bsep_single(s, eta)

    is certain, and an ``ObsBounds`` pair is returned instead of a float.
    Identically 0 for eta >= 1.
    """
    _require_finite("eta", eta)
    if eta <= 0.0:
        raise DomainError(f"eta must be positive, got {eta}")
    if eta >= 1.0:
        return 0.0
    if s.full_support:
        return s.bsep(eta)
    return ObsBounds(part_inradius(s, 1.0 - eta), bsep_single(s, eta))


def ky_fan_zero(s: Screen) -> float:
    """Ky Fan distance to zero, inf{eps >= 0 : P[T > eps] <= eps}: the least float
    eps with ``tail_open(eps) <= eps``, by bisection on the open tail until its ends
    are adjacent floats.  The upper end max(1, P[T > 0]) passes, as no tail tops
    P[T > 0], which tops 1 where an atom screen's masses sum to 1 + 2^-52."""
    if (g0 := s.tail_open(0.0)) <= 0.0:
        return 0.0
    lo, hi = 0.0, max(1.0, g0)
    while lo < (mid := 0.5 * (lo + hi)) < hi:
        if s.tail_open(mid) <= mid:
            hi = mid
        else:
            lo = mid
    return hi


def scale(s: Screen, c: float) -> Screen:
    """Distribution of c*T; every invariant scales linearly with c."""
    _require_finite("scale factor", c)
    if not c > 0:
        raise DomainError(f"scale factor must be positive, got {c}")
    return s.scale(c)


def ks_distance(s1: Screen, s2: Screen) -> float:
    """sup_t |F1(t) - F2(t)|, exactly: F1 - F2 is smooth between the merged
    knots of the two screens (atoms, grid knots, support ends, a closed
    density's mode, and scan ends past which under 1e-13 of mass remains), so
    the supremum lies at a knot, on either side, or where the densities
    (``_density``: 0 on atoms, a grid's cell slope, ``pdf``) cross.  Crossings
    are bracketed on the knots plus 256 cells and root-found; ``_sides`` reads
    the exact one-sided CDFs there, a closed screen by its exact tail
    (0.1-0.3 ms for ``distribution_law``'s pairs).  A closed density is
    monotone on each side of its mode, so against a grid or atom screen a cell
    holds at most one crossing; two closed screens may cross twice in one
    cell, and that pair goes unseen."""
    knots = np.concatenate([s1._breaks(), s2._breaks()])
    grid = np.unique(np.concatenate([knots, np.linspace(0.0, knots.max(), 257)]))
    (left1, right1), (left2, right2) = s1._density(grid), s2._density(grid)
    g_lo, g_up = (right1 - right2)[:-1], (left1 - left2)[1:]
    turn = g_lo * g_up < 0.0
    roots = [_crossing(lambda x: float(s1._density(x)[0] - s2._density(x)[0]), *cell)
             for cell in zip(grid[:-1][turn], grid[1:][turn], g_lo[turn], g_up[turn])]
    ts = np.concatenate([knots, roots])
    return max(float(np.abs(a - b).max()) for a, b in zip(s1._sides(ts), s2._sides(ts)))


def _crossing(g, a: float, b: float, ga: float, gb: float) -> float:
    """A sign change of g in (a, b), g(a) = ga and g(b) = gb of opposite signs, to 1e-7
    of b by Anderson-Bjorck regula falsi (BIT 13, 1973), which bisects whenever two
    steps fail to halve the bracket: F1 - F2 is flat to O(dx^2) there."""
    older = old = math.inf  # the bracket widths two steps back and one step back
    for _ in range(100):
        if b - a <= 0.5 * older:
            x = (a * gb - b * ga) / (gb - ga)
        else:
            x = 0.5 * (a + b)
        older, old = old, b - a
        if b - a <= 1e-7 * b or (gx := g(x)) == 0.0:
            break
        if (gx > 0.0) == (gb > 0.0):  # x replaces b, and the value kept at a shrinks
            m = 1.0 - gx / gb
            b, gb, ga = x, gx, ga * (m if m > 0.0 else 0.5)
        else:
            m = 1.0 - gx / ga
            a, ga, gb = x, gx, gb * (m if m > 0.0 else 0.5)
    return x
