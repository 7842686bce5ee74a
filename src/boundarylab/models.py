"""Model-space catalog and comparison-bound dispatch.

Each catalog entry is a radially symmetric space whose boundary-distance
screen and observable inscribed radius have closed forms:

* ``ball``                -- geodesic ball with profile-power density;
* ``warped``              -- horospherical warped product (pure exponential);
* ``half_gaussian``       -- Gaussian-type ray, the infinite-dimensional limit;
* ``exponential``         -- exponential ray;
* ``weighted_warped_exp`` -- warped product weighted so the boundary screen
  is exponential with an effective dimension N >= n;
* ``weighted_warped_gauss`` -- warped product with a density bound, whose
  boundary screen is a shifted Gaussian.

The module also generates random admissible radial densities (densities
obeying the differential surrogate of a curvature bound) and audits the
relative volume comparison against them.
"""

from __future__ import annotations

import functools
import json
import math
from dataclasses import dataclass

import numpy as np
from scipy.integrate import quad

from . import jacobi, screens
from ._integrate import cumulative_auto
from .errors import DomainError, RegimeError
from .jacobi import CurvatureClass, InfiniteCurvature, TwistParams

__all__ = [
    "ModelSpace",
    "FiniteN",
    "Twisted",
    "Infinite",
    "RadialDensity",
    "VolumeRatioAudit",
    "boundary_screen",
    "closed_form_obs_inradius",
    "comparison_bound",
    "volume_ratio_audit",
    "normalization_audit",
    "generate_admissible_finite",
    "generate_admissible_twisted",
    "generate_admissible_infinite",
    "model_from_json",
]

_TAGS = (
    "ball",
    "warped",
    "half_gaussian",
    "exponential",
    "weighted_warped_exp",
    "weighted_warped_gauss",
)


@dataclass(frozen=True)
class ModelSpace:
    """Tagged catalog entry; use the classmethod constructors."""

    tag: str
    n: int | None = None
    N: float | None = None
    kappa: float | None = None
    lam: float | None = None
    K: float | None = None
    Lam: float | None = None
    delta: float | None = None

    @classmethod
    def ball(cls, n: int, kappa: float, lam: float) -> "ModelSpace":
        if n < 2:
            raise DomainError(f"ball dimension must be >= 2, got {n}")
        cc = jacobi.classify(kappa, lam)
        if not cc.is_ball:
            raise DomainError(f"({kappa}, {lam}) does not admit a comparison ball")
        return cls("ball", n=int(n), kappa=float(kappa), lam=float(lam))

    @classmethod
    def warped(cls, n: int, kappa: float) -> "ModelSpace":
        if n < 2:
            raise DomainError(f"warped dimension must be >= 2, got {n}")
        if not kappa < 0:
            raise DomainError(f"warped model needs kappa < 0, got {kappa}")
        return cls("warped", n=int(n), kappa=float(kappa), lam=math.sqrt(-kappa))

    @classmethod
    def half_gaussian(cls, K: float, Lam: float) -> "ModelSpace":
        if not K > 0:
            raise DomainError(f"half-Gaussian model needs K > 0, got {K}")
        return cls("half_gaussian", K=float(K), Lam=float(Lam))

    @classmethod
    def exponential(cls, Lam: float) -> "ModelSpace":
        if not Lam > 0:
            raise DomainError(f"exponential model needs Lam > 0, got {Lam}")
        return cls("exponential", Lam=float(Lam))

    @classmethod
    def weighted_warped_exp(cls, n: int, N: float, kappa: float) -> "ModelSpace":
        if n < 2:
            raise DomainError(f"dimension must be >= 2, got {n}")
        if N < n:
            raise DomainError(f"effective dimension N={N} must be >= n={n}")
        if not kappa < 0:
            raise DomainError(f"needs kappa < 0, got {kappa}")
        return cls(
            "weighted_warped_exp",
            n=int(n),
            N=float(N),
            kappa=float(kappa),
            lam=math.sqrt(-kappa),
        )

    @classmethod
    def weighted_warped_gauss(cls, n: int, kappa: float, delta: float) -> "ModelSpace":
        if n < 2:
            raise DomainError(f"dimension must be >= 2, got {n}")
        if not kappa < 0:
            raise DomainError(f"needs kappa < 0, got {kappa}")
        return cls(
            "weighted_warped_gauss",
            n=int(n),
            kappa=float(kappa),
            lam=math.sqrt(-kappa),
            delta=float(delta),
        )

    @property
    def gauss_rate(self) -> float:
        """Shifted-Gaussian rate (n-1) * lam * e^{-2 delta}."""
        if self.tag != "weighted_warped_gauss":
            raise DomainError("gauss_rate is defined for weighted_warped_gauss only")
        return (self.n - 1) * self.lam * math.exp(-2.0 * self.delta)

    def to_json(self) -> str:
        fields = {
            "ball": ("n", "kappa", "lam"),
            "warped": ("n", "kappa"),
            "half_gaussian": ("K", "Lam"),
            "exponential": ("Lam",),
            "weighted_warped_exp": ("n", "N", "kappa"),
            "weighted_warped_gauss": ("n", "kappa", "delta"),
        }[self.tag]
        out = {"tag": self.tag}
        out.update({f: getattr(self, f) for f in fields})
        return json.dumps(out)


def model_from_json(text: str) -> ModelSpace:
    obj = json.loads(text) if isinstance(text, str) else dict(text)
    tag = obj.pop("tag", None)
    builders = {
        "ball": ModelSpace.ball,
        "warped": ModelSpace.warped,
        "half_gaussian": ModelSpace.half_gaussian,
        "exponential": ModelSpace.exponential,
        "weighted_warped_exp": ModelSpace.weighted_warped_exp,
        "weighted_warped_gauss": ModelSpace.weighted_warped_gauss,
    }
    if tag not in builders:
        raise DomainError(f"unknown model tag {tag!r}; expected one of {_TAGS}")
    try:
        return builders[tag](**obj)
    except TypeError as exc:
        raise DomainError(f"bad parameters for model {tag!r}: {exc}") from None


@functools.lru_cache(maxsize=None)
def boundary_screen(m: ModelSpace) -> screens.Screen:
    """Boundary-distance screen of a catalog model.

    The density on the ray is the normalized radial volume element; all
    catalog screens have full support.
    """
    if m.tag == "ball":
        return screens.closed_screen("ball", N=float(m.n), kappa=m.kappa, lam=m.lam)
    if m.tag == "warped":
        return screens.closed_screen("exponential", rate=(m.n - 1) * m.lam)
    if m.tag == "half_gaussian":
        return screens.closed_screen("half_gaussian", K=m.K, Lam=m.Lam)
    if m.tag == "exponential":
        return screens.closed_screen("exponential", rate=m.Lam)
    if m.tag == "weighted_warped_exp":
        return screens.closed_screen("exponential", rate=(m.N - 1) * m.lam)
    if m.tag == "weighted_warped_gauss":
        a = m.gauss_rate
        return screens.closed_screen("half_gaussian", K=a, Lam=a)
    raise DomainError(f"unknown tag {m.tag!r}")  # pragma: no cover


def closed_form_obs_inradius(m: ModelSpace, eta: float) -> float:
    """Observable inscribed radius of a catalog model, in closed form."""
    if not 0.0 < eta <= 1.0:
        raise DomainError(f"eta must lie in (0, 1], got {eta}")
    if eta == 1.0:
        return 0.0
    if m.tag == "ball":
        return jacobi.v_inverse(float(m.n), jacobi.classify(m.kappa, m.lam), eta)
    if m.tag == "warped":
        return math.log(1.0 / eta) / ((m.n - 1) * m.lam)
    if m.tag == "half_gaussian":
        return jacobi.gaussian_tail_inverse(jacobi.classify_infinite(m.K, m.Lam), eta)
    if m.tag == "exponential":
        return math.log(1.0 / eta) / m.Lam
    if m.tag == "weighted_warped_exp":
        return math.log(1.0 / eta) / ((m.N - 1) * m.lam)
    if m.tag == "weighted_warped_gauss":
        a = m.gauss_rate
        return jacobi.gaussian_tail_inverse(jacobi.classify_infinite(a, a), eta)
    raise DomainError(f"unknown tag {m.tag!r}")  # pragma: no cover


def normalization_audit(m: ModelSpace) -> float:
    """Total mass of the model's construction, recomputed by quadrature.

    For the weighted warped models the displayed volume element and the
    normalizing constant are integrated independently instead of trusting
    the algebra; the result should be 1 for every catalog entry.
    """
    if m.tag == "weighted_warped_exp":
        # raw weight e^{-f(z)} = (N-1) lam / vol(S^{n-1}) against s^{N-1}
        sphere = 2.0 * math.pi ** (m.n / 2.0) / math.gamma(m.n / 2.0)
        weight = (m.N - 1) * m.lam / sphere
        cc = jacobi.classify(m.kappa, m.lam)
        return sphere * weight * jacobi.s_growth(m.N, cc, math.inf)
    if m.tag == "weighted_warped_gauss":
        a = m.gauss_rate
        cn = 0.5 * (m.n - 1) * (m.lam * math.exp(-2.0 * m.delta) - 2.0 * m.delta)
        denom, _ = quad(lambda u: math.exp(-0.5 * a * u * u), 1.0, np.inf, limit=200)
        sphere_volume = math.exp(-cn) / denom
        radial, _ = quad(
            lambda t: math.exp(cn) * math.exp(-0.5 * a * (t + 1.0) ** 2),
            0.0,
            np.inf,
            limit=200,
        )
        return sphere_volume * radial
    # remaining models are normalized by construction: integrate the screen
    s = boundary_screen(m)
    hi = s.scan_upper()
    total, _ = quad(s.pdf, 0.0, hi, limit=200)
    if math.isinf(s.upper_support):
        tail, _ = quad(s.pdf, hi, np.inf, limit=200)
        total += tail
    return total


# ---------------------------------------------------------------------------
# comparison bounds
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class FiniteN:
    """Dimension parameter N in [n, inf) with curvature pair bounds."""

    N: float
    cc: CurvatureClass


@dataclass(frozen=True)
class Twisted:
    """Density-bounded comparison data."""

    tp: TwistParams


@dataclass(frozen=True)
class Infinite:
    """Infinite-dimensional curvature bounds."""

    ic: InfiniteCurvature


def comparison_bound(kind, eta: float) -> float:
    """Upper bound for ObsInRad of any admissible space with these bounds.

    Raises ``RegimeError`` when the curvature data is outside every
    covered regime (no comparison exists there).
    """
    if not 0.0 < eta <= 1.0:
        raise DomainError(f"eta must lie in (0, 1], got {eta}")
    if isinstance(kind, FiniteN):
        if not (kind.N > 1 and math.isfinite(kind.N)):
            raise DomainError(f"N must be finite and exceed 1, got {kind.N}")
        cc = kind.cc
        if cc.is_ball:
            return jacobi.v_inverse(kind.N, cc, eta)
        if cc.is_horospherical:
            lam = math.sqrt(-cc.kappa)
            return math.log(1.0 / eta) / ((kind.N - 1) * lam)
        raise RegimeError(
            f"no comparison available for regime {cc.regime.value} at N={kind.N}"
        )
    if isinstance(kind, Twisted):
        tp = kind.tp
        raw = jacobi.classify(tp.kappa, tp.lam)
        if raw.is_convex_ball:
            return jacobi.v_inverse(float(tp.n), tp.effective(), eta)
        if raw.is_horospherical and tp.kappa < 0:
            rate = (tp.n - 1) * tp.lam * math.exp(-2.0 * tp.delta)
            return math.log(1.0 / eta) / rate
        raise RegimeError(
            "twisted comparison needs the convex-ball regime or the "
            f"horospherical case, got {raw.regime.value}"
        )
    if isinstance(kind, Infinite):
        ic = kind.ic
        if not ic.admissible:
            raise RegimeError(
                f"no comparison available for (K, Lam) = ({ic.K}, {ic.Lam})"
            )
        return jacobi.gaussian_tail_inverse(ic, eta)
    raise DomainError(f"unknown comparison kind {kind!r}")


# ---------------------------------------------------------------------------
# radial densities and the volume-ratio audit
# ---------------------------------------------------------------------------

class RadialDensity:
    """A gridded radial density theta on [0, T] (not necessarily normalized)."""

    def __init__(self, t, theta):
        t = np.asarray(t, dtype=float)
        theta = np.asarray(theta, dtype=float)
        if t.ndim != 1 or t.shape != theta.shape or t.size < 2:
            raise DomainError("radial density needs matching 1-d arrays")
        if t[0] != 0.0 or np.any(np.diff(t) <= 0):
            raise DomainError("grid must increase strictly from 0")
        if np.any(theta <= 0):
            raise DomainError("density must be positive on its grid")
        self.t = t
        self.theta = theta
        self._cum = cumulative_auto(theta, t)

    @property
    def total(self) -> float:
        return float(self._cum[-1])

    def _cum_at(self, x: float) -> float:
        # integrate the piecewise-linear interpolant exactly up to x
        x = min(max(float(x), self.t[0]), self.t[-1])
        i = min(int(np.searchsorted(self.t, x, side="right")) - 1, self.t.size - 2)
        t0, t1 = self.t[i], self.t[i + 1]
        th = self.theta[i] + (self.theta[i + 1] - self.theta[i]) * (x - t0) / (t1 - t0)
        return float(self._cum[i] + 0.5 * (x - t0) * (self.theta[i] + th))

    def mass(self, a: float, b: float) -> float:
        """Integral of theta over [a, b]."""
        return self._cum_at(b) - self._cum_at(a)

    def screen(self) -> screens.GridScreen:
        return screens.GridScreen(self.t, self._cum / self.total, full_support=True)


@dataclass(frozen=True)
class VolumeRatioAudit:
    lhs: float
    rhs: float
    satisfied: bool


def volume_ratio_audit(
    density: RadialDensity, kind, r: float, R: float
) -> VolumeRatioAudit:
    """Check m(B_R(boundary)) / m(B_r(boundary)) against the comparison ratio.

    ``kind`` is FiniteN or Infinite; the caller asserts the density
    satisfies the corresponding curvature surrogate.
    """
    if r <= 0:
        raise DomainError(f"r must be positive, got {r}")
    if R < r:
        raise DomainError(f"need r <= R, got r={r}, R={R}")
    lhs = density.mass(0.0, R) / density.mass(0.0, r)
    if isinstance(kind, FiniteN):
        rhs = jacobi.s_growth(kind.N, kind.cc, R) / jacobi.s_growth(kind.N, kind.cc, r)
    elif isinstance(kind, Infinite):
        ic = kind.ic
        w = lambda t: np.exp(-0.5 * ic.K * t * t - ic.Lam * t)  # noqa: E731
        num, _ = quad(w, 0.0, R, limit=200)
        den, _ = quad(w, 0.0, r, limit=200)
        rhs = num / den
    else:
        raise DomainError(f"unknown comparison kind {kind!r}")
    return VolumeRatioAudit(lhs, rhs, lhs <= rhs + 1e-9)


def _random_log_slope_excess(rng, T: float, grid: np.ndarray) -> np.ndarray:
    """Cumulative integral of a random nonnegative spline on [0, T].

    The spline is the pointwise excess of -(log theta)' over the curvature
    surrogate; its integral tilts the model density while preserving the
    comparison inequality.
    """
    knots = np.linspace(0.0, T, rng.integers(4, 9))
    eps = rng.uniform(0.0, 1.5, size=knots.size)
    eps[rng.integers(0, knots.size)] = rng.uniform(0.3, 1.5)  # never identically 0
    vals = np.interp(grid, knots, eps)
    return np.concatenate(
        [[0.0], np.cumsum(0.5 * (vals[1:] + vals[:-1]) * np.diff(grid))]
    )


def generate_admissible_finite(
    N: float, cc: CurvatureClass, rng, points: int = 2001
) -> RadialDensity:
    """Random density satisfying the finite-dimensional curvature surrogate.

    theta = s_{kappa,lam}^(N-1) * exp(-E) with E' >= 0, so theta / s^(N-1)
    is nonincreasing; the support stops at a random fraction of the
    comparison radius (or a tail cutoff in the horospherical case).
    """
    if cc.is_ball:
        T = jacobi.c_radius(cc) * rng.uniform(0.5, 0.98)
    elif cc.is_horospherical:
        T = 12.0 / ((N - 1) * math.sqrt(-cc.kappa))
    else:
        raise DomainError(f"no admissible generator for regime {cc.regime.value}")
    t = np.linspace(0.0, T, points)
    base = np.asarray(jacobi.s_profile_clamped(cc, t)) ** (N - 1.0)
    E = _random_log_slope_excess(rng, T, t)
    return RadialDensity(t, base * np.exp(-E))


def generate_admissible_twisted(tp: TwistParams, rng, points: int = 2001) -> RadialDensity:
    """Random density for the density-bounded comparison (effective pair)."""
    eff = tp.effective()
    return generate_admissible_finite(float(tp.n), eff, rng, points)


def generate_admissible_infinite(
    ic: InfiniteCurvature, rng, points: int = 2001
) -> RadialDensity:
    """Random density with -(log theta)' >= K t + Lam pointwise."""
    if not ic.admissible:
        raise DomainError("generator needs admissible (K, Lam)")
    if ic.K > 0:
        T = (abs(ic.Lam) + 8.0) / ic.K if ic.Lam <= 0 else 8.0 / math.sqrt(ic.K)
        T = max(T, 4.0 / math.sqrt(ic.K))
    else:
        T = 14.0 / ic.Lam
    t = np.linspace(0.0, T, points)
    base = np.exp(-0.5 * ic.K * t * t - ic.Lam * t)
    E = _random_log_slope_excess(rng, T, t)
    return RadialDensity(t, base * np.exp(-E))
