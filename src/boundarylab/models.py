"""Model-space catalog and comparison-bound dispatch.

Each catalog entry is a radially symmetric space whose boundary-distance
screen and observable inscribed radius have closed forms on a kernel built once:

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
import math
from dataclasses import dataclass

from . import _text, jacobi, screens
from ._integrate import cumulative_trapezoid, pl_cumulative, pl_density
from ._numpy import np
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

_FIELDS = _text.MODELS  # tag -> the fields of its descriptor and constructor


def _checked(tag: str, *args) -> list:
    """The constructor arguments of model ``tag``, checked against its fields."""
    return [_text.check(kind, x, f"{tag} model parameter {name!r}")
            for (name, kind), x in zip(_FIELDS[tag].items(), args)]


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

    def __post_init__(self):
        for name, value in vars(self).items():
            if isinstance(value, float) and not math.isfinite(value):
                raise DomainError(f"{self.tag} model parameter {name} is not finite, got {value}")
        if self.n is not None and self.n < 2:
            raise DomainError(f"{self.tag} dimension must be >= 2, got {self.n}")
        # the screen's (family, params, kernel), not a field: ==, hash, repr, replace, JSON skip it
        family, params = _SCREENS[self.tag](self)
        object.__setattr__(self, "_screen", (family, params, screens._FAMILIES[family].kernel(**params)))

    @classmethod
    def ball(cls, n: int, kappa: float, lam: float) -> "ModelSpace":
        n, kappa, lam = _checked("ball", n, kappa, lam)
        return cls("ball", n=n, kappa=kappa, lam=lam)

    @classmethod
    def warped(cls, n: int, kappa: float) -> "ModelSpace":
        n, kappa = _checked("warped", n, kappa)
        if not kappa < 0:
            raise DomainError(f"warped model needs kappa < 0, got {kappa}")
        return cls("warped", n=n, kappa=kappa, lam=math.sqrt(-kappa))

    @classmethod
    def half_gaussian(cls, K: float, Lam: float) -> "ModelSpace":
        K, Lam = _checked("half_gaussian", K, Lam)
        if not K > 0:
            raise DomainError(f"half-Gaussian model needs K > 0, got {K}")
        return cls("half_gaussian", K=K, Lam=Lam)

    @classmethod
    def exponential(cls, Lam: float) -> "ModelSpace":
        (Lam,) = _checked("exponential", Lam)
        if not Lam > 0:
            raise DomainError(f"exponential model needs Lam > 0, got {Lam}")
        return cls("exponential", Lam=Lam)

    @classmethod
    def weighted_warped_exp(cls, n: int, N: float, kappa: float) -> "ModelSpace":
        n, N, kappa = _checked("weighted_warped_exp", n, N, kappa)
        if N < n:
            raise DomainError(f"effective dimension N={N} must be >= n={n}")
        if not kappa < 0:
            raise DomainError(f"needs kappa < 0, got {kappa}")
        return cls("weighted_warped_exp", n=n, N=N, kappa=kappa, lam=math.sqrt(-kappa))

    @classmethod
    def weighted_warped_gauss(cls, n: int, kappa: float, delta: float) -> "ModelSpace":
        n, kappa, delta = _checked("weighted_warped_gauss", n, kappa, delta)
        if not kappa < 0:
            raise DomainError(f"needs kappa < 0, got {kappa}")
        return cls("weighted_warped_gauss", n=n, kappa=kappa, lam=math.sqrt(-kappa), delta=delta)

    @property
    def gauss_rate(self) -> float:
        """Shifted-Gaussian rate (n-1) * lam * e^{-2 delta}."""
        if self.tag != "weighted_warped_gauss":
            raise DomainError("gauss_rate is defined for weighted_warped_gauss only")
        try:
            return (self.n - 1) * self.lam * math.exp(-2.0 * self.delta)
        except OverflowError:
            raise DomainError(f"e^(-2 delta) overflows at delta={self.delta}") from None

    def to_json(self) -> str:
        fields = {f: getattr(self, f) for f in _FIELDS[self.tag]}
        return _text.dumps({"tag": self.tag, **fields})


def model_from_json(text: str) -> ModelSpace:
    obj = _text.read_object(text, "model")
    tag = obj.pop("tag", None)
    if not isinstance(tag, str) or tag not in _FIELDS:
        raise DomainError(f"unknown model tag {tag!r}; expected one of {tuple(_FIELDS)}")
    try:  # the constructor checks the fields' types; its signature refuses missing and unknown ones
        return getattr(ModelSpace, tag)(**obj)
    except TypeError as exc:
        raise DomainError(f"bad parameters for model {tag!r}: {exc}") from None


# tag -> (screen family, parameters) of its boundary screen
_SCREENS = {
    "ball": lambda m: ("ball", {"N": float(m.n), "kappa": m.kappa, "lam": m.lam}),
    "warped": lambda m: ("exponential", {"rate": (m.n - 1) * m.lam}),
    "half_gaussian": lambda m: ("half_gaussian", {"K": m.K, "Lam": m.Lam}),
    "exponential": lambda m: ("exponential", {"rate": m.Lam}),
    "weighted_warped_exp": lambda m: ("exponential", {"rate": (m.N - 1) * m.lam}),
    "weighted_warped_gauss": lambda m: ("half_gaussian", {"K": m.gauss_rate,
                                                          "Lam": m.gauss_rate}),
}


@functools.lru_cache(maxsize=None)
def boundary_screen(m: ModelSpace) -> screens.Screen:
    """Boundary-distance screen of a catalog model.

    The density on the ray is the normalized radial volume element; all
    catalog screens have full support.
    """
    family, params, kernel = m._screen
    return screens.DensityScreen(family, params, kernel=kernel)


def closed_form_obs_inradius(m: ModelSpace, eta: float) -> float:
    """Observable inscribed radius of a catalog model, in closed form: the
    (1 - eta)-quantile of its boundary screen by the family's exact inverse."""
    if not 0.0 < eta <= 1.0:
        raise DomainError(f"eta must lie in (0, 1], got {eta}")
    family, _, kernel = m._screen
    return screens._FAMILIES[family].inverse(kernel, eta)


def normalization_audit(m: ModelSpace) -> float:
    """Total mass of the model's construction, recomputed by quadrature.

    For the weighted warped models the displayed volume element and the
    normalizing constant are integrated independently instead of trusting
    the algebra; the result should be 1 for every catalog entry.
    """
    import scipy
    if m.tag == "weighted_warped_exp":
        # raw weight e^{-f(z)} = (N-1) lam / vol(S^{n-1}) against s^{N-1}
        sphere = 2.0 * math.pi ** (m.n / 2.0) / math.gamma(m.n / 2.0)
        weight = (m.N - 1) * m.lam / sphere
        cc = jacobi.classify(m.kappa, m.lam)
        return sphere * weight * jacobi.s_growth(m.N, cc, math.inf)
    if m.tag == "weighted_warped_gauss":
        a = m.gauss_rate
        cn = 0.5 * (m.n - 1) * (m.lam * math.exp(-2.0 * m.delta) - 2.0 * m.delta)
        denom, _ = scipy.integrate.quad(
            lambda u: math.exp(-0.5 * a * u * u), 1.0, np.inf, limit=200,
        )
        sphere_volume = math.exp(-cn) / denom
        radial, _ = scipy.integrate.quad(
            lambda t: math.exp(cn) * math.exp(-0.5 * a * (t + 1.0) ** 2),
            0.0,
            np.inf,
            limit=200,
        )
        return sphere_volume * radial
    # remaining models are normalized by construction: integrate the screen
    s = boundary_screen(m)
    hi = s.scan_upper()
    total, _ = scipy.integrate.quad(s.pdf, 0.0, hi, limit=200)
    if math.isinf(s.upper_support):
        tail, _ = scipy.integrate.quad(s.pdf, hi, np.inf, limit=200)
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

    @functools.cached_property
    def _kernel(self):
        if not (self.N > 1 and math.isfinite(self.N)):
            raise DomainError(f"N must be finite and exceed 1, got {self.N}")
        if self.cc.is_ball:
            return "ball", jacobi.ball_kernel(self.N, self.cc)
        if self.cc.is_horospherical:
            return "exponential", (self.N - 1) * math.sqrt(-self.cc.kappa)
        raise RegimeError(f"no comparison available for regime {self.cc.regime.value} at N={self.N}")


@dataclass(frozen=True)
class Twisted:
    """Density-bounded comparison data."""

    tp: TwistParams

    @functools.cached_property
    def _kernel(self):
        tp, raw = self.tp, jacobi.classify(self.tp.kappa, self.tp.lam)
        if raw.is_convex_ball:
            return "ball", jacobi.ball_kernel(float(tp.n), tp.effective())
        if raw.is_horospherical and tp.kappa < 0:
            return "exponential", (tp.n - 1) * tp.lam * math.exp(-2.0 * tp.delta)
        raise RegimeError("twisted comparison needs the convex-ball regime or the "
                          f"horospherical case, got {raw.regime.value}")


@dataclass(frozen=True)
class Infinite:
    """Infinite-dimensional curvature bounds."""

    ic: InfiniteCurvature

    @functools.cached_property
    def _kernel(self):
        if not self.ic.admissible:
            raise RegimeError(f"no comparison available for (K, Lam) = ({self.ic.K}, {self.ic.Lam})")
        return "half_gaussian", self.ic


def comparison_bound(kind, eta: float) -> float:
    """Upper bound for ObsInRad of any admissible space with these bounds.

    Raises ``RegimeError``, at every call, when the curvature data is outside
    every covered regime; a kind keeps its (family, kernel) from its first bound.
    """
    if not 0.0 < eta <= 1.0:
        raise DomainError(f"eta must lie in (0, 1], got {eta}")
    if not isinstance(kind, (FiniteN, Twisted, Infinite)):
        raise DomainError(f"unknown comparison kind {kind!r}")
    family, kernel = kind._kernel
    return screens._FAMILIES[family].inverse(kernel, eta)


# ---------------------------------------------------------------------------
# radial densities and the volume-ratio audit
# ---------------------------------------------------------------------------

class RadialDensity:
    """A gridded radial density theta on [0, T] (not necessarily normalized)."""

    def __init__(self, t, theta):
        self.t, self.theta, self._cum = pl_density(t, theta, min_points=2)

    @property
    def total(self) -> float:
        return float(self._cum[-1])

    def mass(self, a, b):
        """Integral of theta over [a, b]; a and b are floats or arrays."""
        return (pl_cumulative(b, self.t, self.theta, self._cum)
                - pl_cumulative(a, self.t, self.theta, self._cum))

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
        import scipy
        ic = kind.ic
        w = lambda t: np.exp(-0.5 * ic.K * t * t - ic.Lam * t)  # noqa: E731
        num, _ = scipy.integrate.quad(w, 0.0, R, limit=200)
        den, _ = scipy.integrate.quad(w, 0.0, r, limit=200)
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
    return cumulative_trapezoid(np.interp(grid, knots, eps), grid)


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
    try:
        with np.errstate(over="raise"):  # a near-flat ball: inf * exp(-E) would be nan
            base = np.asarray(jacobi.s_profile_clamped(cc, t)) ** (N - 1.0)
    except FloatingPointError:
        raise DomainError(f"s^(N-1) overflows on [0, {T:g}] for ({cc.kappa}, {cc.lam})") from None
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
