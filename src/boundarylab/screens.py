"""Screens: probability distributions on the ray [0, inf).

A screen is the pushforward of a measure under a nonnegative 1-Lipschitz
function vanishing on the boundary; it is the carrier for every
concentration invariant in this package.  Three representations:

* ``GridScreen``   -- CDF knots with linear interpolation (continuous,
  optional atom at 0 via F[0] > 0);
* ``AtomScreen``   -- finite atom list (discrete spaces);
* ``DensityScreen``-- a positive density with numeric CDF/quantile
  (closed-form catalog screens).

The quantile conventions are fixed here once: superlevel sets are closed
(``P[T >= r]``), lower quantiles take the left edge of CDF flats, upper
quantiles the right edge.
"""

from __future__ import annotations

import io
import json
import math
from typing import Callable, NamedTuple

import numpy as np
import scipy

from ._integrate import cumulative_simpson as _cumulative_simpson
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
_TABLE_SIZE = 1 << 15  # intervals in the cached CDF table of a DensityScreen
_TAIL_CUTOFF = 1e-13


def _require_finite(what: str, x) -> None:
    """Raise ``DomainError`` unless ``x`` (a number or an array) is finite
    throughout; NaN compares false, so the ordered checks alone let it by.
    Numbers take ``math.isfinite``: numpy costs microseconds per scalar."""
    finite = np.isfinite(x).all() if isinstance(x, np.ndarray) else math.isfinite(x)
    if not finite:
        raise DomainError(f"{what} must be finite")


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
        raise NotImplementedError

    def cdf_fast(self, ts: np.ndarray) -> np.ndarray:
        """Vectorized CDF for scans; accuracy ~1e-8 (exact on grids/atoms)."""
        raise NotImplementedError

    def cdf_left(self, t: float) -> float:
        """Left limit F(t-)."""
        raise NotImplementedError

    def tail_closed(self, r: float) -> float:
        """P[T >= r] (closed superlevel convention)."""
        if r <= 0.0:
            return 1.0
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
        """Abscissae worth probing in sup-distance scans."""
        raise NotImplementedError

    def scan_upper(self) -> float:
        """Finite abscissa beyond which at most ~1e-12 mass remains."""
        raise NotImplementedError

    def to_json(self) -> str:
        raise NotImplementedError

    def to_csv(self, n: int = 1001) -> str:
        """CSV of (t, F(t)) pairs with a header row."""
        hi = self.scan_upper()
        ts = np.unique(np.concatenate([np.linspace(0.0, hi, n), self.knots()]))
        fs = self.cdf_fast(ts)
        buf = io.StringIO()
        buf.write("t,F\n")
        for t, f in zip(ts, fs):
            buf.write(f"{t:.17g},{f:.17g}\n")
        return buf.getvalue()


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

    def cdf(self, t):
        return float(np.interp(t, self.t, self.F))

    def cdf_fast(self, ts):
        return np.interp(ts, self.t, self.F)

    def cdf_left(self, t):
        if t <= 0.0:
            return 0.0
        return self.cdf(t)

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

    def knots(self):
        return self.t

    def scan_upper(self):
        return float(self.t[-1])

    def to_json(self):
        return json.dumps(
            {
                "kind": "grid",
                "t": self.t.tolist(),
                "F": self.F.tolist(),
                "full_support": self.full_support,
            },
            allow_nan=False,
        )


class AtomScreen(Screen):
    """Finite discrete distribution; all conventions are exact."""

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
        order = np.argsort(t, kind="stable")
        t, p = t[order], p[order]
        # merge duplicate locations
        uniq, inv = np.unique(t, return_inverse=True)
        mass = np.zeros(uniq.size)
        np.add.at(mass, inv, p)
        keep = mass > 0
        self.t = uniq[keep]
        self.p = mass[keep]
        self.upper_support = float(self.t[-1])

    def cdf(self, t):
        i = int(np.searchsorted(self.t, t, side="right"))
        return float(self.p[:i].sum())

    def cdf_fast(self, ts):
        idx = np.searchsorted(self.t, ts, side="right")
        cum = np.concatenate([[0.0], np.cumsum(self.p)])
        return cum[idx]

    def cdf_left(self, t):
        i = int(np.searchsorted(self.t, t, side="left"))
        return float(self.p[:i].sum())

    def tail_closed(self, r):
        i = int(np.searchsorted(self.t, r, side="left"))
        return float(self.p[i:].sum())

    def tail_open(self, eps):
        i = int(np.searchsorted(self.t, eps, side="right"))
        return float(self.p[i:].sum())

    def quantile(self, xi):
        cum = np.cumsum(self.p)
        i = int(np.searchsorted(cum, xi, side="left"))
        if i >= self.t.size:
            i = self.t.size - 1
        return float(self.t[i])

    def bsep(self, eta):
        best = 0.0
        for j in range(self.t.size - 1, -1, -1):
            if float(self.p[j:].sum()) >= eta:
                return float(self.t[j])
        return best

    def ky_fan(self):
        """Exact inf{eps >= 0 : P[T > eps] <= eps} on the atom grid."""
        edges = np.concatenate([[0.0], self.t, [math.inf]])
        for j in range(self.t.size + 1):
            a, b = edges[j], edges[j + 1]
            v = self.tail_open(a)  # constant tail on [a, b)
            if v <= a:
                return float(a)
            if v < b:
                return float(v)
        return 1.0  # pragma: no cover - tail reaches 0 at the last atom

    def scale(self, c):
        return AtomScreen(self.t * c, self.p.copy())

    def knots(self):
        return self.t

    def scan_upper(self):
        return float(self.t[-1])

    def to_json(self):
        return json.dumps(
            {"kind": "atoms", "t": self.t.tolist(), "p": self.p.tolist()},
            allow_nan=False,
        )


class DensityScreen(Screen):
    """Screen defined by a positive probability density on [0, upper].

    The CDF is served from a cached high-order cumulative table plus a
    local quadrature correction, so point queries are accurate to
    ~1e-12 while vectorized scans stay cheap.  The density must accept
    numpy arrays and integrate to 1 within 1e-9.
    """

    def __init__(
        self,
        pdf: Callable[[np.ndarray], np.ndarray],
        upper: float,
        family: str | None = None,
        params: dict | None = None,
        scale_factor: float = 1.0,
        full_support: bool = True,
    ):
        self.pdf = pdf
        self.upper_support = float(upper)
        self.family = family
        self.params = dict(params) if params else {}
        self.scale_factor = float(scale_factor)
        self.full_support = full_support
        self._scaled_base = None  # (base screen, factor) when built by scale()
        self._hi = self._find_cutoff()
        ts = np.linspace(0.0, self._hi, _TABLE_SIZE + 1)
        ys = np.asarray(pdf(ts), dtype=float)
        if np.any(ys < 0):
            raise DomainError("density must be nonnegative")
        table = _cumulative_simpson(ys, ts[1] - ts[0])
        resid = 0.0
        if math.isinf(self.upper_support):
            resid, _ = scipy.integrate.quad(pdf, self._hi, np.inf, epsabs=1e-14, limit=200)
        total = table[-1] + resid
        if abs(total - 1.0) > 1e-9:
            raise DomainError(
                f"screen density must integrate to 1 within 1e-9, got {total}"
            )
        self._ts = ts
        self._Fs = table / total
        self._norm = total

    def _find_cutoff(self) -> float:
        if math.isfinite(self.upper_support):
            return self.upper_support
        hi = 1.0
        while True:
            tail, _ = scipy.integrate.quad(self.pdf, hi, np.inf, epsabs=1e-14, limit=200)
            if tail < _TAIL_CUTOFF:
                return hi
            hi *= 2.0
            if hi > 1e9:  # pragma: no cover
                raise DomainError("density tail does not decay")

    def cdf(self, t):
        if self._scaled_base is not None:
            base, c = self._scaled_base
            return base.cdf(float(t) / c)
        t = float(t)
        if t <= 0.0:
            return 0.0
        if t >= self._hi:
            if math.isinf(self.upper_support):
                tail, _ = scipy.integrate.quad(self.pdf, t, np.inf, epsabs=1e-14, limit=200)
                return min(1.0, 1.0 - tail / self._norm)
            return 1.0
        i = int(np.searchsorted(self._ts, t, side="right")) - 1
        extra, _ = scipy.integrate.quad(self.pdf, self._ts[i], t, epsabs=1e-14, limit=50)
        return min(1.0, self._Fs[i] + extra / self._norm)

    def cdf_fast(self, ts):
        return np.interp(ts, self._ts, self._Fs, right=1.0)

    def cdf_left(self, t):
        return self.cdf(t)

    def quantile(self, xi):
        if xi >= 1.0:
            return self.upper_support if math.isfinite(self.upper_support) else self._quantile_root(1.0 - 1e-13)
        return self._quantile_root(xi)

    def _quantile_root(self, xi):
        if self._scaled_base is not None:
            base, c = self._scaled_base
            return c * base._quantile_root(xi)
        i = int(np.searchsorted(self._Fs, xi, side="left"))
        if i == 0:
            return 0.0
        lo, hi = self._ts[i - 1], self._ts[min(i, self._ts.size - 1)]
        flo = self.cdf(lo) - xi
        fhi = self.cdf(hi) - xi
        if flo >= 0.0:
            return float(lo)
        if fhi <= 0.0:
            return float(hi)
        return float(scipy.optimize.brentq(
            lambda r: self.cdf(r) - xi, lo, hi, xtol=1e-14, rtol=8.9e-16,
        ))

    def bsep(self, eta):
        # continuous strictly positive density: right and left quantiles agree
        return self._quantile_root(1.0 - eta) if eta < 1.0 else 0.0

    def scale(self, c):
        # delegate point queries to the base screen so that quantiles
        # commute with scaling exactly (c * quantile, same float path)
        base_pdf = self.pdf
        out = object.__new__(DensityScreen)
        out.pdf = lambda t: np.asarray(
            base_pdf(np.asarray(t, dtype=float) / c), dtype=float
        ) / c
        out.upper_support = self.upper_support * c
        out.family = self.family
        out.params = dict(self.params)
        out.scale_factor = self.scale_factor * c
        out.full_support = self.full_support
        out._scaled_base = (self, c)
        out._hi = self._hi * c
        out._ts = self._ts * c
        out._Fs = self._Fs
        out._norm = self._norm
        return out

    def knots(self):
        return self._ts[:: max(1, _TABLE_SIZE // 256)]

    def scan_upper(self):
        return float(self._hi)

    def to_json(self):
        if self.family is None:
            raise DomainError(
                "only catalog (closed-form) density screens serialize; "
                "sample to a grid screen instead"
            )
        return json.dumps(
            {
                "kind": "closed",
                "family": self.family,
                "params": self.params,
                "scale": self.scale_factor,
                "full_support": self.full_support,
            },
            allow_nan=False,
        )


# ---------------------------------------------------------------------------
# closed-form screen catalog
# ---------------------------------------------------------------------------

def _build_uniform(width: float) -> DensityScreen:
    if width <= 0:
        raise DomainError("uniform width must be positive")

    def pdf(t):
        t = np.asarray(t, dtype=float)
        return np.where((t >= 0) & (t <= width), 1.0 / width, 0.0)

    return DensityScreen(pdf, width, family="uniform", params={"width": width})


def _build_exponential(rate: float) -> DensityScreen:
    if rate <= 0:
        raise DomainError("exponential rate must be positive")

    def pdf(t):
        return rate * np.exp(-rate * np.asarray(t, dtype=float))

    return DensityScreen(pdf, math.inf, family="exponential", params={"rate": rate})


# The two builders below are the only users of ``jacobi``; importing it
# here keeps scipy.special out of processes that never build a catalog
# screen (graph commands, spectra, audits).

def _build_ball(N: float, kappa: float, lam: float) -> DensityScreen:
    from . import jacobi

    cc = jacobi.classify(kappa, lam)
    if not cc.is_ball:
        raise DomainError(f"({kappa}, {lam}) is not in the ball regime")
    c = jacobi.c_radius(cc)
    z = jacobi.s_growth(N, cc, c)

    def pdf(t):
        return np.asarray(jacobi.s_profile_clamped(cc, t), dtype=float) ** (N - 1.0) / z

    return DensityScreen(
        pdf, c, family="ball", params={"N": N, "kappa": kappa, "lam": lam}
    )


def _build_half_gaussian(K: float, Lam: float) -> DensityScreen:
    from . import jacobi

    ic = jacobi.classify_infinite(K, Lam)
    if not ic.admissible:
        raise DomainError(f"(K, Lam) = ({K}, {Lam}) is not admissible")
    z, _ = scipy.integrate.quad(
        lambda t: np.exp(-0.5 * K * t * t - Lam * t), 0.0, np.inf,
        epsabs=1e-14, epsrel=1e-13, limit=200,
    )

    def pdf(t):
        t = np.asarray(t, dtype=float)
        return np.exp(-0.5 * K * t * t - Lam * t) / z

    return DensityScreen(
        pdf, math.inf, family="half_gaussian", params={"K": K, "Lam": Lam}
    )


_FAMILIES = {
    "uniform": _build_uniform,
    "exponential": _build_exponential,
    "ball": _build_ball,
    "half_gaussian": _build_half_gaussian,
}


def closed_screen(family: str, **params) -> DensityScreen:
    """Construct a catalog screen by family name."""
    try:
        builder = _FAMILIES[family]
    except KeyError:
        raise DomainError(f"unknown screen family {family!r}") from None
    return builder(**params)


def screen_from_json(text: str) -> Screen:
    obj = json.loads(text)
    kind = obj.get("kind")
    if kind == "grid":
        return GridScreen(obj["t"], obj["F"], obj.get("full_support"))
    if kind == "atoms":
        return AtomScreen(obj["t"], obj["p"])
    if kind == "closed":
        base = closed_screen(obj["family"], **obj["params"])
        c = obj.get("scale", 1.0)
        out = base if c == 1.0 else base.scale(c)
        out.full_support = obj.get("full_support", True)
        return out
    raise DomainError(f"unknown screen kind {kind!r}")


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
    """Ky Fan distance to zero: inf{eps >= 0 : P[T > eps] <= eps}."""
    if isinstance(s, AtomScreen):
        return s.ky_fan()
    g0 = s.tail_open(0.0)
    if g0 <= 0.0:
        return 0.0
    return float(scipy.optimize.brentq(
        lambda e: s.tail_open(e) - e, 0.0, 1.0, xtol=1e-14, rtol=8.9e-16,
    ))


def scale(s: Screen, c: float) -> Screen:
    """Distribution of c*T; every invariant scales linearly with c."""
    _require_finite("scale factor", c)
    if not c > 0:
        raise DomainError(f"scale factor must be positive, got {c}")
    return s.scale(c)


def ks_distance(s1: Screen, s2: Screen) -> float:
    """sup_t |F1(t) - F2(t)| by dense scan plus local zoom refinement."""
    hi = max(s1.scan_upper(), s2.scan_upper())
    cand = np.unique(
        np.concatenate([np.linspace(0.0, hi, 4097), s1.knots(), s2.knots()])
    )
    cand = cand[(cand >= 0) & (cand <= hi)]
    d = np.abs(s1.cdf_fast(cand) - s2.cdf_fast(cand))
    best = float(d.max())
    # atoms create jumps: probe both one-sided limits exactly
    for s, o in ((s1, s2), (s2, s1)):
        if isinstance(s, AtomScreen):
            for t in s.t:
                best = max(
                    best,
                    abs(s.cdf(t) - o.cdf(t)),
                    abs(s.cdf_left(t) - o.cdf_left(t)),
                )
    # residual disagreement past the scan window
    best = max(best, abs((1.0 - s1.cdf_fast(np.array([hi]))[0]) -
                         (1.0 - s2.cdf_fast(np.array([hi]))[0])))
    # zoom around the top local maxima
    order = np.argsort(d)[::-1][:8]
    for i in order:
        lo = cand[max(i - 1, 0)]
        up = cand[min(i + 1, cand.size - 1)]
        for _ in range(4):
            ts = np.linspace(lo, up, 65)
            dd = np.abs(s1.cdf_fast(ts) - s2.cdf_fast(ts))
            j = int(np.argmax(dd))
            best = max(best, float(dd[j]))
            lo = ts[max(j - 1, 0)]
            up = ts[min(j + 1, ts.size - 1)]
    return best
